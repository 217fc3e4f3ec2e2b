"""Unit tests for the serving subsystem (repro.serve).

Covers the clock, the bounded admission queue, request/state plumbing,
the continuous-batching scheduler's invariants, and the headline engine
contract: tokens and step logits bit-equal to sequential
:func:`repro.model.sampling.generate` regardless of batch composition,
with ``generate()`` given a store holding the entries the engine's
store holds (a partial cover's logits differ from a cold prefill's by
about 5e-7).
"""

import dataclasses

import numpy as np
import pytest

from repro.model import ModelConfig, PrefixCacheStore, TransformerLM
from repro.model.sampling import GenerationConfig, clamp_prompt, generate
from repro.serve import (
    AdmissionQueue,
    InferenceRequest,
    InvalidRequestError,
    OversizedRequestError,
    QueueFullError,
    RequestKind,
    RequestState,
    RequestStatus,
    SchedulerConfig,
    ServeConfig,
    ServeEngine,
    VirtualClock,
    WallClock,
)
from repro.serve.admission import SERVICE_TIME_HINT
from repro.serve.engine import (
    STEP_BASE,
    STEP_PER_DECODE_ROW,
    STEP_PER_PREFILL_TOKEN,
    step_duration,
)
from repro.serve.metrics import Counter, Histogram, ServeMetrics
from tests.conftest import ATOL, position_sensitive_model, recording_step_logits


def small_model(seed=0, vocab=64, max_seq_len=96):
    return TransformerLM(
        ModelConfig(
            vocab_size=vocab, d_model=32, n_layers=2, n_heads=4,
            max_seq_len=max_seq_len,
        ),
        seed=seed,
    )


@pytest.fixture(scope="module")
def model():
    return small_model()


def req(rid, prompt, kind=RequestKind.GENERATE, **kw):
    return InferenceRequest(
        request_id=rid, prompt_ids=tuple(prompt), kind=kind, **kw
    )


def reference(model, prompt, config, store=None):
    """generate()'s tokens and the logits of each of its steps."""
    with recording_step_logits() as steps:
        return generate(model, prompt, config, store), steps


def assert_bit_equal(steps, reference_steps):
    assert len(steps) == len(reference_steps)
    assert all(np.array_equal(a, b) for a, b in zip(steps, reference_steps))


def assert_matches_full_forward(model, prompt, config, tokens, steps):
    """Hold a decode to a reference that shares no code with it.

    Each step's logits are recomputed by the no-cache full forward of the
    (left-truncated) prompt plus the tokens emitted before it: no
    ``open_prompt``, ``DecodeStream``, prefill or KV cache.  They must
    agree within ``ATOL``, and a greedy decode must pick the full
    forward's argmax at every step, so its tokens are the full-forward
    greedy decode's.
    """
    seq = list(clamp_prompt(prompt, config.max_new_tokens, model.config.max_seq_len)[0])
    assert len(steps) == len(tokens)
    for tok, step in zip(tokens, steps):
        full = model.forward(np.asarray([seq], dtype=np.int64))[0, -1]
        np.testing.assert_allclose(step, full, rtol=0, atol=ATOL)
        if config.temperature == 0.0:
            assert tok == int(np.argmax(full))
        seq.append(tok)


def queued_state(rid="r", prompt=(1, 2, 3), seq=0, **kw):
    request = req(rid, prompt, **kw)
    return RequestState(request=request, prompt=request.prompt_ids, seq=seq)


class TestClock:
    def test_virtual_clock_advances(self):
        clock = VirtualClock()
        assert clock.now() == pytest.approx(0.0)
        clock.advance(1.5)
        assert clock.now() == pytest.approx(1.5)
        clock.advance_to(4.0)
        assert clock.now() == pytest.approx(4.0)

    def test_virtual_clock_never_goes_backwards(self):
        clock = VirtualClock()
        clock.advance(2.0)
        with pytest.raises(ValueError):
            clock.advance(-0.1)
        clock.advance_to(1.0)  # behind now: no-op, not an error
        assert clock.now() == pytest.approx(2.0)

    def test_wall_clock_advance_is_noop(self):
        clock = WallClock()
        t0 = clock.now()
        clock.advance(1000.0)
        assert clock.now() - t0 < 100.0  # did not jump by the advance


class TestRequest:
    def test_prompt_must_be_nonempty(self):
        with pytest.raises(ValueError):
            req("r", ())

    def test_prompt_coerced_to_int_tuple(self):
        r = req("r", [np.int64(3), np.int64(5)])
        assert r.prompt_ids == (3, 5)
        assert all(type(t) is int for t in r.prompt_ids)

    def test_tokens_reserved_is_prompt_plus_budget(self):
        state = queued_state(prompt=(1, 2, 3))
        state.budget = 7
        assert state.tokens_reserved() == 10

    def test_result_summary_is_plain(self):
        summary = queued_state().result_summary()
        assert summary["status"] == "queued"
        assert summary["kind"] == "generate"
        assert not any(isinstance(v, np.ndarray) for v in summary.values())


class TestAdmissionQueue:
    def test_fifo_order(self):
        q = AdmissionQueue(capacity=4)
        for i in range(3):
            q.push(queued_state(rid=f"r{2 - i}", seq=2 - i))
        assert [q.pop().request_id for _ in range(3)] == ["r0", "r1", "r2"]

    def test_capacity_rejection_carries_retry_after(self):
        q = AdmissionQueue(capacity=2)
        q.push(queued_state(rid="a", seq=0))
        q.push(queued_state(rid="b", seq=1))
        with pytest.raises(QueueFullError) as exc:
            q.push(queued_state(rid="c", seq=2))
        assert exc.value.capacity == 2
        assert SERVICE_TIME_HINT == 1.0
        assert exc.value.retry_after == 3 * SERVICE_TIME_HINT  # (2+1) waiting

    def test_expire_overdue_marks_and_removes(self):
        q = AdmissionQueue(capacity=4)
        q.push(queued_state(rid="late", seq=0, deadline=1.0))
        q.push(queued_state(rid="fine", seq=1, deadline=10.0))
        expired = q.expire_overdue(now=2.0)
        assert [s.request_id for s in expired] == ["late"]
        assert expired[0].status is RequestStatus.EXPIRED
        assert expired[0].finish_reason == "deadline"
        assert len(q) == 1 and q.peek().request_id == "fine"

    def test_deadline_is_not_expired_at_exactly_deadline(self):
        q = AdmissionQueue(capacity=2)
        q.push(queued_state(rid="edge", seq=0, deadline=1.0))
        assert q.expire_overdue(now=1.0) == []

    def test_remove_and_requeue(self):
        q = AdmissionQueue(capacity=4)
        a, b = queued_state(rid="a", seq=0), queued_state(rid="b", seq=1)
        q.push(a)
        q.push(b)
        assert q.remove(a) is True
        assert q.remove(a) is False
        q.requeue(a)  # original seq puts it back ahead of b
        assert q.pop().request_id == "a"

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=0)


class TestMetrics:
    def test_counter_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(3)
        assert c.value == 4
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_histogram_buckets_cumulate(self):
        h = Histogram(buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(55.5)
        assert snap["buckets"] == {"le_1": 1, "le_10": 1, "le_inf": 1}

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))

    def test_snapshot_is_plain_and_sorted(self):
        metrics = ServeMetrics()
        metrics.inc("submitted", 2)
        snap = metrics.snapshot()
        counters = [k for k, v in snap.items() if isinstance(v, int)]
        assert counters == sorted(counters)
        assert snap["submitted"] == 2
        assert set(snap["queue_depth"]) == {"count", "sum", "buckets"}


class TestEngineLifecycle:
    def test_duplicate_request_id_rejected(self, model):
        engine = ServeEngine(model)
        engine.submit(req("dup", (1, 2)))
        with pytest.raises(ValueError, match="duplicate"):
            engine.submit(req("dup", (3, 4)))

    def test_oversized_request_rejected_at_submit(self, model):
        engine = ServeEngine(
            model, config=ServeConfig(scheduler=SchedulerConfig(token_budget=8))
        )
        with pytest.raises(OversizedRequestError):
            engine.submit(
                req("big", range(1, 7),
                    generation=GenerationConfig(max_new_tokens=16))
            )
        assert ("reject", 0, "big", "oversized") in engine.events
        assert engine.metrics_snapshot()["rejected"] == 1

    def test_out_of_vocab_prompt_rejected_at_submit(self, model):
        engine = ServeEngine(model)
        good = engine.submit(
            req("good", (1, 2, 3), generation=GenerationConfig(max_new_tokens=3))
        )
        assert issubclass(InvalidRequestError, ValueError)
        for rid, bad_id in (("high", 99), ("negative", -1)):
            with pytest.raises(InvalidRequestError):
                engine.submit(req(rid, (1, bad_id, 2)))
            assert ("reject", 0, rid, "invalid") in engine.events
            assert rid not in engine.states
        engine.drain()
        assert good.status is RequestStatus.FINISHED and len(good.output_ids) == 3
        assert engine.metrics_snapshot()["rejected"] == 2

    def test_queue_full_rejection_logged(self, model):
        engine = ServeEngine(model, config=ServeConfig(queue_capacity=1))
        engine.submit(req("a", (1, 2)))
        with pytest.raises(QueueFullError):
            engine.submit(req("b", (3, 4)))
        assert ("reject", 0, "b", "queue-full") in engine.events
        assert "b" not in engine.states  # rejected submits are not tracked

    def test_cancel_queued_only(self, model):
        engine = ServeEngine(model)
        engine.submit(req("a", (1, 2)))
        assert engine.cancel("a") is True
        assert engine.states["a"].status is RequestStatus.CANCELLED
        assert engine.cancel("a") is False  # already terminal
        assert engine.cancel("ghost") is False
        engine.drain()
        assert engine.states["a"].output_ids == []

    def test_drain_returns_states_in_submission_order(self, model):
        engine = ServeEngine(model)
        for rid in ("x", "y", "z"):
            engine.submit(req(rid, (1, 2, 3), kind=RequestKind.SCORE))
        states = engine.drain()
        assert [s.request_id for s in states] == ["x", "y", "z"]
        assert all(s.status is RequestStatus.FINISHED for s in states)

    def test_timestamps_progress_on_virtual_clock(self, model):
        engine = ServeEngine(model)
        engine.submit(
            req("t", (1, 2, 3), generation=GenerationConfig(max_new_tokens=4))
        )
        state = engine.drain()[0]
        assert state.submitted_at == pytest.approx(0.0)
        assert state.admitted_at is not None
        assert state.first_token_at is not None
        assert state.finished_at > state.submitted_at


    def test_lifecycle_stamps_follow_the_work(self, model):
        """A first token and a finish are stamped after the forward that
        produced them, not at the start of their step; admission keeps
        the step's start time."""

        class TickingClock:
            """Moves one unit forward on every read, as wall time does."""

            def __init__(self):
                self.t = 0.0

            def now(self):
                self.t += 1.0
                return self.t

            def advance(self, seconds):
                del seconds

        engine = ServeEngine(model, clock=TickingClock())
        engine.submit(
            req("g", (1, 2, 3), generation=GenerationConfig(max_new_tokens=2))
        )
        engine.submit(req("s", (4, 5, 6), kind=RequestKind.SCORE))
        engine.step()
        g, s = engine.states["g"], engine.states["s"]
        assert g.admitted_at == s.admitted_at  # both admitted in one step
        assert g.submitted_at < g.admitted_at < s.finished_at < g.first_token_at
        engine.drain()
        assert g.first_token_at < g.finished_at

class TestEngineGenerateParity:
    """Engine decode is bit-equal to generate(): tokens and step logits.

    Both share the decode path, so each request is also held to the
    no-cache full forward (:func:`assert_matches_full_forward`), on a model
    where a position bug moves the logits far past ``ATOL``.
    """

    PROMPT = (3, 5, 7, 9, 11, 13)

    @pytest.fixture(scope="class")
    def model(self):
        return position_sensitive_model(seed=3)

    SAMPLERS = [
        GenerationConfig(max_new_tokens=8, temperature=0.0),
        GenerationConfig(max_new_tokens=8, temperature=0.9, seed=7),
        GenerationConfig(max_new_tokens=8, temperature=0.8, top_k=8, seed=11),
        GenerationConfig(max_new_tokens=8, temperature=0.8, top_p=0.9, seed=13),
        GenerationConfig(
            max_new_tokens=8, temperature=1.1, top_k=12, top_p=0.7, seed=3
        ),
    ]

    @pytest.mark.parametrize(
        "config, covered",
        # every sampler on a store miss, then a warm store entry covering
        # exactly / part of the prompt
        [(c, 0) for c in SAMPLERS] + [(SAMPLERS[1], 6), (SAMPLERS[1], 4)],
        ids=[
            "greedy", "sampled", "top_k", "top_p", "top_k_p",
            "exact_cover", "partial_cover",
        ],
    )
    def test_single_request_matches_generate(self, model, config, covered):
        # generate() and the engine each open the prompt through their own
        # store, both holding the same entry
        reference_store, store = PrefixCacheStore(), PrefixCacheStore()
        if covered:
            entry = model.prefill(self.PROMPT[:covered])
            reference_store.put(entry)
            store.put(entry)
        tokens, steps = reference(model, self.PROMPT, config, reference_store)
        engine = ServeEngine(model, prefix_store=store)
        engine.submit(req("r", self.PROMPT, generation=config))
        with recording_step_logits(engine) as recorded:
            state = engine.drain()[0]
        assert list(state.output_ids) == tokens
        assert_bit_equal(recorded["r"], steps)
        assert_matches_full_forward(model, self.PROMPT, config, tokens, steps)
        assert state.prefix_hit_tokens == covered
        # no prompt token is forwarded twice
        assert engine.metrics_snapshot()["prefill_tokens"] == len(self.PROMPT) - covered

    def test_batch_composition_does_not_change_outputs(self, model):
        """Each request's tokens and logits are independent of its
        batchmates."""
        configs = {
            f"r{i}": GenerationConfig(
                max_new_tokens=4 + i, temperature=0.9, seed=100 + i
            )
            for i in range(5)
        }
        prompts = {
            rid: tuple(range(2 + i, 8 + i)) for i, rid in enumerate(configs)
        }
        engine = ServeEngine(model)
        for rid, config in configs.items():
            engine.submit(req(rid, prompts[rid], generation=config))
        with recording_step_logits(engine) as recorded:
            engine.drain()
        for rid, config in configs.items():
            tokens, steps = reference(model, prompts[rid], config)
            assert list(engine.states[rid].output_ids) == tokens
            assert_bit_equal(recorded[rid], steps)
            assert_matches_full_forward(model, prompts[rid], config, tokens, steps)

    def test_overlong_prompt_left_truncates_like_generate(self, model):
        config = GenerationConfig(max_new_tokens=6, temperature=0.0)
        long_prompt = tuple((i % 50) + 1 for i in range(150))  # > max_seq_len
        tokens, steps = reference(model, long_prompt, config)
        engine = ServeEngine(
            model,
            config=ServeConfig(scheduler=SchedulerConfig(token_budget=4096)),
        )
        engine.submit(req("long", long_prompt, generation=config))
        with recording_step_logits(engine) as recorded:
            state = engine.drain()[0]
        assert list(state.output_ids) == tokens
        assert_bit_equal(recorded["long"], steps)
        assert_matches_full_forward(model, long_prompt, config, tokens, steps)
        assert state.finish_reason == "length"

    def test_stop_token_mid_batch_leaves_the_others_decoding(self, model):
        """One request's stop token fires while its batchmates decode on;
        every request still matches generate() bit for bit."""
        sampled = GenerationConfig(max_new_tokens=8, temperature=0.9, seed=7)
        free = reference(model, self.PROMPT, sampled)[0]
        k = next(i for i in range(2, len(free) - 1) if free[i] not in free[:i])
        configs = {
            "stop": dataclasses.replace(sampled, stop_token_ids=(free[k],)),
            "greedy": GenerationConfig(max_new_tokens=8),
            "top_k": GenerationConfig(
                max_new_tokens=8, temperature=0.8, top_k=8, seed=11
            ),
        }
        # no prompt starts another, so every request misses the store
        prompts = {
            "stop": self.PROMPT, "greedy": self.PROMPT[1:],
            "top_k": (15,) + self.PROMPT,
        }
        engine = ServeEngine(model)
        for rid, config in configs.items():
            engine.submit(req(rid, prompts[rid], generation=config))
        with recording_step_logits(engine) as recorded:
            engine.drain()
        for rid, config in configs.items():
            tokens, steps = reference(model, prompts[rid], config)
            assert list(engine.states[rid].output_ids) == tokens
            assert_bit_equal(recorded[rid], steps)
            assert_matches_full_forward(model, prompts[rid], config, tokens, steps)
        # (step, reason, tokens): all three decode from step 0
        finished = {e[2]: (e[1],) + e[3:] for e in engine.events if e[0] == "finish"}
        assert finished == {
            "stop": (k, "stop", k + 1),
            "greedy": (7, "length", 8),
            "top_k": (7, "length", 8),
        }

    def test_zero_budget_request_finishes_at_admission(self, model, monkeypatch):
        """``max_new_tokens=0`` finishes ``"length"`` in its admission
        step with no token; its stream never enters ``decode_step``."""
        import repro.serve.scheduler as scheduler

        decoded, decode_step = [], scheduler.decode_step

        def spy(streams):
            decoded.extend(streams)
            return decode_step(streams)

        monkeypatch.setattr(scheduler, "decode_step", spy)
        engine = ServeEngine(model)
        engine.submit(
            req("z", self.PROMPT, generation=GenerationConfig(max_new_tokens=0))
        )
        state = engine.drain()[0]
        assert state.finish_reason == "length"
        assert list(state.output_ids) == [] and state.first_token_at is None
        assert engine.events[1:] == [
            ("admit", 0, "z", 0), ("finish", 0, "z", "length", 0),
        ]
        assert decoded == []

    def test_score_matches_prefill_boundary_logits(self, model):
        prompt = [4, 8, 15, 16, 23]
        engine = ServeEngine(model)
        engine.submit(req("s", prompt, kind=RequestKind.SCORE))
        state = engine.drain()[0]
        assert state.finish_reason == "scored"
        assert np.array_equal(
            state.final_logits, model.prefill(prompt).last_logits
        )

    def test_streaming_callback_sees_every_token(self, model):
        config = GenerationConfig(max_new_tokens=5, temperature=0.0)
        streamed = []
        engine = ServeEngine(model)
        engine.submit(
            req("s", self.PROMPT, generation=config,
                stream=lambda rid, tok, fin: streamed.append((rid, tok, fin)))
        )
        state = engine.drain()[0]
        assert [t for _, t, _ in streamed] == list(state.output_ids)
        assert [fin for _, _, fin in streamed] == [False] * 4 + [True]
        assert all(rid == "s" for rid, _, _ in streamed)


class TestContinuousBatching:
    def test_scheduler_invariants_hold_every_step(self, model):
        config = ServeConfig(
            scheduler=SchedulerConfig(token_budget=64, max_running=3)
        )
        engine = ServeEngine(model, config=config)
        for i in range(8):
            engine.submit(
                req(f"r{i}", range(1, 6 + (i % 3)),
                    generation=GenerationConfig(max_new_tokens=4 + i % 5))
            )
        while engine.has_work:
            engine.step()
            assert len(engine.scheduler.running) <= 3
            assert engine.scheduler.reserved_tokens() <= 64
        assert all(s.done for s in engine.states.values())

    def test_short_request_overtakes_long_one(self, model):
        """Continuous batching: a late short request finishes while an
        earlier long one is still decoding."""
        engine = ServeEngine(model)
        engine.submit(
            req("long", (1, 2, 3),
                generation=GenerationConfig(max_new_tokens=30))
        )
        engine.step()  # long is admitted and decoding
        engine.submit(
            req("short", (4, 5, 6),
                generation=GenerationConfig(max_new_tokens=2))
        )
        engine.drain()
        finishes = [e for e in engine.events if e[0] == "finish"]
        assert [e[2] for e in finishes] == ["short", "long"]

    def test_head_of_line_admission_is_fifo(self, model):
        """A blocked head is never overtaken by a smaller later request."""
        config = ServeConfig(
            scheduler=SchedulerConfig(token_budget=30, max_running=4)
        )
        engine = ServeEngine(model, config=config)
        gen = GenerationConfig(max_new_tokens=10)
        engine.submit(req("fat-0", range(1, 11), generation=gen))  # 20 tokens
        engine.submit(req("fat-1", range(1, 11), generation=gen))  # blocked
        engine.submit(req("thin", (1, 2), kind=RequestKind.SCORE))  # would fit
        engine.drain()
        admits = [e[2] for e in engine.events if e[0] == "admit"]
        assert admits == ["fat-0", "fat-1", "thin"]

    def test_decode_steps_counted_only_when_decoding(self, model):
        engine = ServeEngine(model)
        engine.submit(req("s", (1, 2, 3), kind=RequestKind.SCORE))
        engine.drain()
        snap = engine.metrics_snapshot()
        assert snap["engine_steps"] == 1
        assert snap["decode_steps"] == 0

    def test_caller_store_is_used_even_when_empty(self, model):
        """An empty store is falsy (it has ``__len__``); the engine must
        still open prompts through the caller's object."""
        store = PrefixCacheStore()
        engine = ServeEngine(model, prefix_store=store)
        assert engine.scheduler.prefix_store is store
        engine.submit(req("s", (1, 2, 3), kind=RequestKind.SCORE))
        engine.drain()
        assert len(store) == 1
        assert engine.metrics_snapshot()["prefix_cache"] == store.stats()

    def test_prefix_store_stats_in_snapshot(self, model):
        engine = ServeEngine(model)
        scaffold = tuple(range(1, 13))
        for i in range(4):
            engine.submit(
                req(f"s{i}", scaffold + (20 + i,), kind=RequestKind.SCORE)
            )
        engine.drain()
        snap = engine.metrics_snapshot()
        store = snap["prefix_cache"]
        # one cold prefill, then every later prompt forks the scaffold
        assert store["misses"] == 1
        assert store["hits"] == 3
        assert snap["prefix_hit_tokens"] == 3 * 12

    def test_step_cost_model_drives_virtual_clock(self, model):
        assert (STEP_BASE, STEP_PER_PREFILL_TOKEN, STEP_PER_DECODE_ROW) == (
            1.0, 0.01, 0.05,
        )
        engine = ServeEngine(model)
        engine.submit(
            req("g", (1, 2, 3, 4), generation=GenerationConfig(max_new_tokens=4))
        )
        engine.step()  # admission: prefill of 4 tokens and one decode row
        first = STEP_BASE + STEP_PER_PREFILL_TOKEN * 4 + STEP_PER_DECODE_ROW
        assert engine.clock.now() == first == step_duration(4, 1)
        engine.step()  # one decode row
        assert engine.clock.now() == first + (STEP_BASE + STEP_PER_DECODE_ROW)
