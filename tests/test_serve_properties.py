"""Property-based tests (hypothesis) for the serving scheduler.

Random arrival/length schedules drive the real engine on the virtual
clock.  The properties, over *every* schedule hypothesis can dream up:

* **liveness** — every submitted request reaches a terminal state and
  the simulation drains (no starvation beyond the token-budget bound:
  a request either fits the budget eventually, expires on its own
  deadline, or is dropped by its own retry budget — never stuck);
* **budget safety** — the running batch never exceeds ``max_running``
  width or ``token_budget`` reserved tokens at any step;
* **replay identity** — the same ``(schedule, seed)`` replays to a
  bit-identical event log, metrics snapshot, and per-request outputs.

The model is deliberately tiny and module-scoped: the properties are
about the scheduler, not the transformer.  The sampler-parity property
is the exception: it decodes on the position-sensitive model, so its
no-cache full-forward reference can see a cache or position bug.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import ModelConfig, TransformerLM
from repro.serve import (
    InferenceRequest,
    RequestKind,
    SchedulerConfig,
    ServeConfig,
    ServeEngine,
    SimRequestSpec,
    TERMINAL_STATUSES,
    make_workload,
    simulate,
)
from repro.model.sampling import GenerationConfig
from tests.conftest import position_sensitive_model, recording_step_logits
from tests.test_serve import (
    assert_bit_equal,
    assert_matches_full_forward,
    reference,
)

VOCAB = 48
MAX_SEQ = 64


@pytest.fixture(scope="module")
def model():
    return TransformerLM(
        ModelConfig(
            vocab_size=VOCAB, d_model=16, n_layers=1, n_heads=2,
            max_seq_len=MAX_SEQ,
        ),
        seed=0,
    )


# one scripted arrival: (gap to previous, prompt tail length, decode
# budget, kind flag, sampling seed)
arrival_specs = st.lists(
    st.tuples(
        st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False),
        st.integers(1, 8),
        st.integers(1, 8),
        st.booleans(),
        st.integers(0, 2**20),
    ),
    min_size=1,
    max_size=10,
)

schedule_configs = st.tuples(
    st.integers(12, 48),  # token_budget
    st.integers(1, 4),  # max_running
)


def build_specs(raw):
    specs = []
    t = 0.0
    for i, (gap, tail, budget, is_generate, seed) in enumerate(raw):
        t += gap
        specs.append(
            SimRequestSpec(
                request_id=f"req-{i:03d}",
                arrival=t,
                # short shared scaffold + distinct tail
                prompt_ids=tuple([7, 11, 13] + [(seed + j) % VOCAB or 1
                                                for j in range(tail)]),
                kind=RequestKind.GENERATE if is_generate else RequestKind.SCORE,
                max_new_tokens=budget,
                temperature=0.9,
                seed=seed,
            )
        )
    return specs


class TestSchedulerProperties:
    @given(raw=arrival_specs, config=schedule_configs)
    @settings(max_examples=25, deadline=None)
    def test_liveness_and_replay_identity(self, model, raw, config):
        token_budget, max_running = config
        serve_config = ServeConfig(
            scheduler=SchedulerConfig(
                token_budget=max(token_budget, 11 + 8),  # every spec fits
                max_running=max_running,
            ),
        )
        specs = build_specs(raw)
        first = simulate(model, specs, config=serve_config, max_retries=100)
        # liveness: every request terminated, nothing dropped or stuck
        assert first.dropped == []
        assert len(first.summaries) == len(specs)
        terminal = {s.value for s in TERMINAL_STATUSES}
        assert all(s["status"] in terminal for s in first.summaries)
        assert first.metrics["finished"] == len(specs)
        # replay identity: same schedule, same everything
        second = simulate(model, specs, config=serve_config, max_retries=100)
        assert first.replay_key_view() == second.replay_key_view()

    @given(raw=arrival_specs, config=schedule_configs)
    @settings(max_examples=25, deadline=None)
    def test_budget_and_width_never_exceeded(self, model, raw, config):
        token_budget, max_running = config
        budget = max(token_budget, 11 + 8)
        engine = ServeEngine(
            model,
            config=ServeConfig(
                queue_capacity=128,
                scheduler=SchedulerConfig(
                    token_budget=budget, max_running=max_running
                ),
            ),
        )
        for spec in build_specs(raw):
            engine.submit(spec.to_request())
        steps = 0
        while engine.has_work:
            engine.step()
            steps += 1
            assert len(engine.scheduler.running) <= max_running
            assert engine.scheduler.reserved_tokens() <= budget
            assert steps < 10_000  # starvation bound
        assert all(s.done for s in engine.states.values())

    @given(seed=st.integers(0, 2**16), n=st.integers(1, 10))
    @settings(max_examples=15, deadline=None)
    def test_generated_workloads_replay(self, model, seed, n):
        specs = make_workload(
            n, seed=seed, vocab_size=VOCAB, scaffold_len=4,
            prompt_len_range=(2, 6), max_new_range=(1, 6), temperature=0.7,
        )
        first = simulate(model, specs)
        second = simulate(model, specs)
        assert first.replay_key_view() == second.replay_key_view()
        assert first.metrics["submitted"] == n


class TestSamplingProperties:
    @pytest.fixture(scope="class")
    def sensitive_model(self):
        return position_sensitive_model(seed=3)

    @given(
        temperature=st.sampled_from([0.0, 0.8]),
        top_p=st.floats(0.05, 1.0, allow_nan=False),
        top_k=st.integers(0, 12),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_engine_matches_generate_under_any_sampler(
        self, sensitive_model, temperature, top_p, top_k, seed
    ):
        """Decode parity (tokens and step logits) is sampler-independent
        (greedy, top-k, top-p), and every decode matches the no-cache full
        forward."""
        model = sensitive_model
        config = GenerationConfig(
            max_new_tokens=5, temperature=temperature, top_k=top_k,
            top_p=top_p, seed=seed,
        )
        prompt = [3, 5, 7, 9]
        tokens, steps = reference(model, prompt, config)
        engine = ServeEngine(model)
        engine.submit(
            InferenceRequest(
                request_id="r", prompt_ids=tuple(prompt), generation=config
            )
        )
        with recording_step_logits(engine) as recorded:
            assert list(engine.drain()[0].output_ids) == tokens
        assert_bit_equal(recorded["r"], steps)
        assert_matches_full_forward(model, prompt, config, tokens, steps)
