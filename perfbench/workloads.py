"""The four workloads.

Each ``run_<workload>(seed, seconds, tracer)`` sets the program up
(several times, reporting the median), generates its inputs from
``seed``, measures for ``seconds``, then checks a seeded sample of
outputs against a reference path and returns a :class:`Result`.  The
program only ever receives the generated inputs.

Times and rates are put on the host-speed scale of :mod:`hostspeed`
(:func:`on_host_scale`): the reference step is timed between units of
work, and in the chat loop's idle time.  An open loop's rates are set
by its arrival schedule and are left as measured.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Dict, List

import numpy as np

from repro.core.world import MicroWorld, WorldConfig
from repro.corpus import datasets
from repro.eval.full_instruct import FullInstructEvaluator
from repro.eval.runner import BatchedEvaluationRunner
from repro.eval.token_pred import TokenPredictionEvaluator
from repro.model.config import scaled_config
from repro.model.sampling import GenerationConfig, generate
from repro.model.transformer import TransformerLM
from repro.serve.admission import OversizedRequestError, QueueFullError
from repro.serve.clock import WallClock
from repro.serve.engine import ServeEngine
from repro.serve.request import InferenceRequest, RequestKind, RequestStatus
from repro.train.cpt import ContinualPretrainer, CPTConfig

import spec
from hostspeed import HostSpeed
from measure import RequestOutcome, percentile, samples_needed, slo_ok_frac, tail


@dataclass
class Result:
    metrics: Dict[str, float]  # end-to-end slot -> value
    attempted: int
    failed: int
    wrong: int  # outputs that differ from the reference path
    report: Dict[str, object] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)  # measured by the workload


def timed_setup(build: Callable[[], object], tracer, speed: HostSpeed) -> tuple:
    """Run ``build`` :data:`spec.SETUP_REPEATS` times, then start the
    tracer's measured phase; returns ``(median_s, last_result)``."""
    times, value = [], None
    for _ in range(spec.SETUP_REPEATS):
        value = None
        gc.collect()  # each set-up starts from the same heap
        t0 = time.perf_counter()
        value = build()
        times.append(time.perf_counter() - t0)
        speed.tick()
    gc.collect()
    tracer.phase = "run"
    return statistics.median(times), value


def on_host_scale(metrics: Dict[str, float], speed: HostSpeed, open_loop: bool = False) -> Dict[str, float]:
    """Times multiplied and rates divided by the run's host-speed scale;
    memory, and an open loop's rates, as measured."""
    scale = speed.scale()
    out = dict(metrics)
    for name in ("setup_s", "gap_p50_ms"):
        out[name] = metrics[name] * scale
    if not open_loop:
        for name in ("work_per_s", "work2_per_s"):
            out[name] = metrics[name] / scale
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def large_model(vocab_size: int, seed: int) -> TransformerLM:
    return TransformerLM(
        scaled_config(vocab_size, "large", max_seq_len=spec.MAX_SEQ_LEN), seed=seed
    )


def keep_measuring(started: float, seconds: float, workload: str, n_lat: int, n_gap: int) -> bool:
    """True until ``seconds`` have passed and both tails have their
    samples, or the overrun limit is reached."""
    elapsed = time.perf_counter() - started
    if elapsed >= spec.MAX_OVERRUN * seconds:
        return False
    wanted = spec.TAIL_WANTED[workload]
    return (
        elapsed < seconds
        or n_lat < samples_needed(wanted["lat"])
        or n_gap < samples_needed(wanted["gap"])
    )


def latency_slots(lat_s, gap_s, wanted) -> tuple:
    """The ``gap`` median in ms, and for the report the ``lat`` median
    and both tails (as measured, not on the host-speed scale), the
    percentile each tail is, and the sample counts."""
    lat_tail, lat_p = tail(lat_s, wanted["lat"])
    gap_tail, gap_p = tail(gap_s, wanted["gap"])
    slots = {"gap_p50_ms": 1e3 * percentile(gap_s, 50)}
    report = {
        "lat_p50_ms": 1e3 * percentile(lat_s, 50),
        "lat_tail_ms": 1e3 * lat_tail,
        "lat_tail_pct": lat_p,
        "lat_n": len(lat_s),
        "gap_tail_ms": 1e3 * gap_tail,
        "gap_tail_pct": gap_p,
        "gap_n": len(gap_s),
    }
    return slots, report


# -- serving -----------------------------------------------------------------
class TokenLog:
    """``stream`` callback recording when each request's tokens arrive.

    TTFT and ITL are taken from these times, not from the engine's
    ``first_token_at``, which holds the start of the step that produced
    the token.
    """

    def __init__(self) -> None:
        self.times: Dict[str, List[float]] = {}

    def __call__(self, request_id: str, token: int, final: bool) -> None:
        self.times.setdefault(request_id, []).append(time.perf_counter())


def sampling_config(rng, max_new: int, sampled: bool) -> GenerationConfig:
    seed = int(rng.integers(2**31))
    if sampled:
        return GenerationConfig(max_new_tokens=max_new, temperature=0.8, top_k=40, seed=seed)
    return GenerationConfig(max_new_tokens=max_new, temperature=0.0, seed=seed)


def spread_evenly(rng, lo_hi, n: int) -> np.ndarray:
    """``n`` integers spread evenly over ``[lo, hi]`` in seeded order.

    Every seed gets the same multiset, so seeds change the order of the
    work, not its amount.
    """
    return rng.permutation(np.rint(np.linspace(lo_hi[0], lo_hi[1], n)).astype(int))


def exactly(rng, share: float, n: int) -> np.ndarray:
    """``n`` flags, ``round(share * n)`` of them set, in seeded order."""
    k = int(round(share * n))
    return rng.permutation(np.arange(n) < k)


def chat_schedule(rng, word_ids, system_prompts, seconds, stream) -> list:
    """Poisson-timed ``(due_s, request)`` turns of simulated chat sessions.

    Each session has ``turns`` turns.  Turn ``k``'s prompt is the
    session's shared system prompt, its ``k`` earlier user turns and
    stand-in replies, then the new user turn.  Sessions interleave in
    seeded order.  Gaps between arrivals are the quantiles of an
    exponential distribution, shuffled and scaled to span ``seconds``;
    turn and output lengths are spread evenly.
    """
    c = spec.CHAT
    turns = c["turns"]
    n_sessions = -(-max(int(c["rate_per_s"] * seconds), samples_needed(
        spec.TAIL_WANTED["chat-shared"]["lat"])) // turns)
    n = n_sessions * turns
    gaps = rng.permutation(-np.log1p(-(np.arange(n + 1) + 0.5) / (n + 1)))
    dues = seconds * np.cumsum(gaps)[:n] / gaps.sum()
    out_lens = spread_evenly(rng, c["output_len"], n)
    user_lens = spread_evenly(rng, c["user_len"], n)
    sampled = exactly(rng, c["sampled_frac"], n)
    systems = rng.permutation(np.arange(n_sessions) % len(system_prompts))
    order = rng.permutation(np.repeat(np.arange(n_sessions), turns))
    history = [list(system_prompts[i]) for i in systems]
    schedule = []
    for i, session in enumerate(order):
        prompt = history[session] + rng.choice(word_ids, size=int(user_lens[i])).tolist()
        request = InferenceRequest(
            f"c{i}",
            tuple(prompt),
            generation=sampling_config(rng, int(out_lens[i]), bool(sampled[i])),
            stream=stream,
        )
        schedule.append((float(dues[i]), request))
        history[session] = prompt + rng.choice(word_ids, size=int(out_lens[i])).tolist()
    return schedule


def burst_schedule(rng, word_ids, stream, tag: str) -> list:
    """One offline batch: every request due at 0, prompts share no prefix
    (their first tokens are distinct)."""
    b = spec.BURST
    n = b["size"]
    firsts = rng.choice(word_ids, size=n, replace=False)
    prompt_lens = spread_evenly(rng, b["prompt_len"], n)
    out_lens = spread_evenly(rng, b["output_len"], n)
    scores = exactly(rng, b["score_frac"], n)
    sampled = exactly(rng, b["sampled_frac"], n)
    schedule = []
    for i in range(n):
        rest = rng.choice(word_ids, size=int(prompt_lens[i]) - 1).tolist()
        request = InferenceRequest(
            f"{tag}-{i}",
            (int(firsts[i]), *rest),
            kind=RequestKind.SCORE if scores[i] else RequestKind.GENERATE,
            generation=sampling_config(rng, int(out_lens[i]), bool(sampled[i])),
            stream=stream,
        )
        schedule.append((0.0, request))
    return schedule


@dataclass
class LoopStats:
    t0: float
    elapsed: float
    idle: float
    lags: List[float]
    refused: List[str]


#: Idle time a tick of the reference step needs before the next request
#: is due, so that it never delays a send.
TICK_ROOM_S = 0.05

#: The loop sleeps until this long before a request is due, then spins:
#: waking from a sleep can take a millisecond on a shared host, which
#: would count in the request's TTFT.
SPIN_S = 0.002


def drive(engine: ServeEngine, schedule: list, speed: HostSpeed) -> LoopStats:
    """Send each request at its due time (open loop) and step the engine
    until everything sent has drained, timing the reference step in idle
    time."""
    t0 = time.perf_counter()
    sent, idle, lags, refused = 0, 0.0, [], []
    while True:
        now = time.perf_counter() - t0
        while sent < len(schedule) and schedule[sent][0] <= now:
            due, request = schedule[sent]
            sent += 1
            lags.append(now - due)
            try:
                engine.submit(request)
            except (QueueFullError, OversizedRequestError):
                refused.append(request.request_id)
        if engine.has_work:
            engine.step()
        elif sent == len(schedule):
            break
        else:
            start = time.perf_counter()
            if speed.due() and t0 + schedule[sent][0] - start > TICK_ROOM_S:
                speed.tick()
            time.sleep(max(0.0, schedule[sent][0] - SPIN_S - (time.perf_counter() - t0)))
            while time.perf_counter() - t0 < schedule[sent][0]:
                pass
            idle += time.perf_counter() - start
    return LoopStats(t0, time.perf_counter() - t0, idle, lags, refused)


def outcomes_of(engine, schedule, log, t0) -> List[RequestOutcome]:
    out = []
    for due, request in schedule:
        state = engine.states.get(request.request_id)
        finished = state is not None and state.status is RequestStatus.FINISHED
        times = log.times.get(request.request_id, [])
        ttft = times[0] - (t0 + due) if times else None
        out.append(RequestOutcome(finished, ttft, list(np.diff(times))))
    return out


def serve_gate(model, engine, schedule, rng) -> int:
    """Replay a seeded sample of finished requests through the sequential
    reference path; returns how many disagree."""
    done = [
        engine.states[r.request_id]
        for _, r in schedule
        if r.request_id in engine.states
        and engine.states[r.request_id].status is RequestStatus.FINISHED
    ]
    wrong = 0
    for i in rng.choice(len(done), size=min(spec.GATE_SAMPLE, len(done)), replace=False):
        state = done[int(i)]
        request = state.request
        if request.kind is RequestKind.SCORE:
            ref = model.next_token_logits(np.asarray(state.prompt, dtype=np.int64))
            wrong += int(np.argmax(ref) != np.argmax(state.final_logits))
        else:
            ref = generate(model, request.prompt_ids, request.generation)
            wrong += int(ref != state.output_ids)
    return wrong


def serve_layer(engines) -> Dict[str, float]:
    """Per-layer figures the engines' own metrics and states give."""
    waits, prompt_tokens, rejected = [], 0, 0
    hit_tokens = prefill_tokens = rows_sum = rows_n = 0
    hits = misses = evictions = 0
    for engine in engines:
        snap = engine.metrics_snapshot()
        rejected += snap["rejected"]
        hit_tokens += snap["prefix_hit_tokens"]
        prefill_tokens += snap["prefill_tokens"]
        rows_sum += snap["batch_size"]["sum"]
        rows_n += snap["batch_size"]["count"]
        store = snap["prefix_cache"]
        hits, misses, evictions = hits + store["hits"], misses + store["misses"], evictions + store["evictions"]
        for state in engine.states.values():
            if state.admitted_at is not None:
                waits.append(state.admitted_at - state.submitted_at)
                prompt_tokens += len(state.prompt)
    return {
        "serve.admission.queue_wait_ms_p50": 1e3 * percentile(waits, 50),
        "serve.admission.queue_wait_ms_p90": 1e3 * percentile(waits, 90),
        "serve.admission.rejected": rejected,
        "serve.scheduler.batch_rows_mean": rows_sum / max(rows_n, 1),
        "serve.scheduler.prefill_forwarded_per_prompt_token": prefill_tokens / prompt_tokens,
        "model.kv_cache.hit_token_frac": hit_tokens / prompt_tokens,
        "model.kv_cache.hits": hits,
        "model.kv_cache.misses": misses,
        "model.kv_cache.evictions": evictions,
    }


def serve_result(model, engines, schedules, logs, loops, rng, workload, setup_s, tracer, speed) -> Result:
    """Fold one or more drained engines into the workload's result; rates
    are medians over the engines (bursts)."""
    outcomes, generate_outcomes, lat, gaps = [], [], [], []
    tok_rates, req_rates = [], []
    for engine, schedule, log, loop in zip(engines, schedules, logs, loops):
        gen_tokens = finished = 0
        for (due, request), o in zip(schedule, outcomes_of(engine, schedule, log, loop.t0)):
            outcomes.append(o)
            finished += o.finished
            if request.kind is not RequestKind.GENERATE:
                continue
            generate_outcomes.append(o)
            if o.finished:
                gen_tokens += len(engine.states[request.request_id].output_ids)
                lat.append(o.ttft_s)
                gaps.extend(o.gaps_s)
        tok_rates.append(gen_tokens / loop.elapsed)
        req_rates.append(finished / loop.elapsed)
    tracer.enabled = False
    wrong = sum(serve_gate(model, e, s, rng) for e, s in zip(engines, schedules))
    slots, report = latency_slots(lat, gaps, spec.TAIL_WANTED[workload])
    failed = sum(1 for o in outcomes if not o.finished) + wrong
    lags = [lag for loop in loops for lag in loop.lags]
    report.update(
        sent=len(outcomes),
        succeeded=len(outcomes) - failed,
        failed=failed,
        refused=sum(len(loop.refused) for loop in loops),
        wrong=wrong,
        host_scale=speed.scale(),
        slo_ok_frac=slo_ok_frac(
            generate_outcomes, spec.CHAT["ttft_limit_ms"] / 1e3, spec.CHAT["itl_limit_ms"] / 1e3
        ),
    )
    layer = serve_layer(engines)
    layer["loadgen.send_lag_ms_p99"] = 1e3 * percentile(lags, 99)
    layer["serve.engine.idle_frac"] = sum(loop.idle for loop in loops) / sum(
        loop.elapsed for loop in loops
    )
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "work_per_s": statistics.median(tok_rates),
        "work2_per_s": statistics.median(req_rates),
        **slots,
    }
    metrics = on_host_scale(metrics, speed, open_loop=workload == "chat-shared")
    return Result(metrics, len(outcomes), failed, wrong, report, layer)


def serve_setup():
    world = MicroWorld.build(WorldConfig())
    tokenizer = world.tokenizers["llama-2"]
    model = large_model(tokenizer.vocab_size, seed=0)
    special = set(tokenizer.vocab.special_ids)
    word_ids = np.asarray([i for i in range(tokenizer.vocab_size) if i not in special])
    return world, tokenizer, model, word_ids


def run_chat_shared(seed: int, seconds: float, tracer) -> Result:
    def setup():
        world, tokenizer, model, word_ids = serve_setup()
        text = " ".join(f.statement(0) for f in world.astro.facts)
        ids = tokenizer.encode(text)
        n = spec.CHAT["system_len"]
        systems = [ids[i * n : (i + 1) * n] for i in range(spec.CHAT["system_prompts"])]
        return model, word_ids, systems

    speed = HostSpeed()
    setup_s, (model, word_ids, systems) = timed_setup(setup, tracer, speed)
    rng = np.random.default_rng(seed)
    log = TokenLog()
    schedule = chat_schedule(rng, word_ids, systems, seconds, log)
    engine = ServeEngine(model, clock=WallClock())
    loop = drive(engine, schedule, speed)
    return serve_result(
        model, [engine], [schedule], [log], [loop], rng, "chat-shared", setup_s, tracer, speed
    )


def run_burst_unshared(seed: int, seconds: float, tracer) -> Result:
    speed = HostSpeed()
    setup_s, (_, _, model, word_ids) = timed_setup(serve_setup, tracer, speed)
    rng = np.random.default_rng(seed)
    engines, schedules, logs, loops = [], [], [], []
    started, n_first, n_gaps = time.perf_counter(), 0, 0
    while keep_measuring(started, seconds, "burst-unshared", n_first, n_gaps):
        log = TokenLog()
        schedule = burst_schedule(rng, word_ids, log, f"b{len(loops)}")
        engine = ServeEngine(model, clock=WallClock())
        speed.maybe_tick()
        loop = drive(engine, schedule, speed)
        n_first += len(log.times)
        n_gaps += sum(len(t) - 1 for t in log.times.values())
        engines.append(engine)
        schedules.append(schedule)
        logs.append(log)
        loops.append(loop)
    return serve_result(
        model, engines, schedules, logs, loops, rng, "burst-unshared", setup_s, tracer, speed
    )


# -- Table I evaluation ------------------------------------------------------
def run_table1_eval(seed: int, seconds: float, tracer) -> Result:
    t = spec.TABLE1

    def setup():
        # the same evaluators, with the same settings, that
        # AstroLLaMAPipeline.evaluate builds
        world = MicroWorld.build(WorldConfig(n_articles=t["n_articles"]))
        tokenizer = world.tokenizers["llama-2"]
        base = large_model(tokenizer.vocab_size, seed=1)
        instruct = large_model(tokenizer.vocab_size, seed=2)
        few_shot = world.benchmark.few_shot(t["few_shot"])
        prefix = [tokenizer.vocab.eos_id]
        generation = GenerationConfig(
            max_new_tokens=t["gen_max_new_tokens"],
            temperature=0.0,
            stop_token_ids=(tokenizer.vocab.eos_id,),
        )
        evaluators = {
            "token_base": TokenPredictionEvaluator(
                base, tokenizer, few_shot, prefix_ids=prefix, batch_size=t["token_chunk"]
            ),
            "token_instruct": TokenPredictionEvaluator(
                instruct, tokenizer, few_shot, prefix_ids=prefix, batch_size=t["token_chunk"]
            ),
            "full_instruct": FullInstructEvaluator(
                instruct, tokenizer, generation=generation, prefix_ids=prefix
            ),
        }
        return world, tokenizer, instruct, prefix, generation, evaluators

    speed = HostSpeed()
    setup_s, (world, tokenizer, instruct, prefix, generation, evaluators) = timed_setup(
        setup, tracer, speed
    )
    rng = np.random.default_rng(seed)
    questions = world.benchmark.test
    order = [questions[i] for i in rng.permutation(len(questions))]
    # full_instruct cycles through a pool spread evenly over prompt
    # lengths, so every seed's run costs the same per question
    tracer.enabled = False
    build_prompt = evaluators["full_instruct"].prompt_builder
    by_length = sorted(questions, key=lambda q: len(tokenizer.encode(build_prompt(q))))
    step = len(by_length) / t["instruct_pool"]
    pool = [by_length[int(i * step)] for i in range(t["instruct_pool"])]
    pool = [pool[i] for i in rng.permutation(len(pool))]
    tracer.enabled = True

    def run(method, chunk):
        runner = BatchedEvaluationRunner(SimpleNamespace(test=chunk))
        speed.maybe_tick()
        t0 = time.perf_counter()
        result = runner.run(evaluators[method], method, "bench")
        return time.perf_counter() - t0, result.predictions

    token_calls, instruct_qs, token_rates, instruct_rates = [], [], [], []
    token_preds: Dict[str, list] = {"token_base": [], "token_instruct": []}
    instruct_preds = []
    started, cursor, icursor = time.perf_counter(), 0, 0
    while keep_measuring(started, seconds, "table1-eval", len(instruct_qs), len(token_calls)):
        chunk = [order[(cursor + i) % len(order)] for i in range(t["token_chunk"])]
        cursor += len(chunk)
        round_s = 0.0
        for method in token_preds:
            dt, preds = run(method, chunk)
            token_calls.append(dt)
            round_s += dt
            token_preds[method].extend(zip(chunk, preds))
        token_rates.append(len(token_preds) * len(chunk) / round_s)
        round_s = 0.0
        for _ in range(t["instruct_per_round"]):
            q = pool[icursor % len(pool)]
            icursor += 1
            dt, preds = run("full_instruct", [q])
            instruct_qs.append(dt)
            round_s += dt
            instruct_preds.append((q, preds[0]))
        instruct_rates.append(t["instruct_per_round"] / round_s)

    tracer.enabled = False
    wrong = 0
    for method, pairs in token_preds.items():
        for i in rng.choice(len(pairs), size=spec.GATE_SAMPLE, replace=False):
            q, pred = pairs[int(i)]
            wrong += int(evaluators[method].predict(q) != pred)
    reference = FullInstructEvaluator(
        instruct, tokenizer, generation=generation, prefix_ids=prefix, reuse_prefix=False
    )
    for i in rng.choice(len(instruct_preds), size=2, replace=False):
        q, pred = instruct_preds[int(i)]
        wrong += int(reference.predict(q) != pred)

    attempted = sum(len(p) for p in token_preds.values()) + len(instruct_preds)
    slots, report = latency_slots(instruct_qs, token_calls, spec.TAIL_WANTED["table1-eval"])
    report.update(questions=attempted, wrong=wrong, host_scale=speed.scale())
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "work_per_s": statistics.median(token_rates),
        "work2_per_s": statistics.median(instruct_rates),
        **slots,
    }
    return Result(on_host_scale(metrics, speed), attempted, wrong, wrong, report)


# -- continual pretraining ---------------------------------------------------
def param_digest(model) -> str:
    h = hashlib.sha256()
    for name, p in sorted(model.named_parameters().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


def run_cpt_train(seed: int, seconds: float, tracer) -> Result:
    c = spec.CPT

    def setup():
        world = MicroWorld.build(WorldConfig())
        tokenizer = world.tokenizers["llama-2"]
        dataset = datasets.build_summary_dataset(world.archive)
        docs = [tokenizer.encode(d) for d in dataset.documents]
        model = large_model(tokenizer.vocab_size, seed=0)
        return tokenizer, docs, model

    speed = HostSpeed()
    setup_s, (tokenizer, docs, model) = timed_setup(setup, tracer, speed)
    params = model.named_parameters()
    initial = {name: p.copy() for name, p in params.items()}
    config = CPTConfig(
        learning_rate=c["learning_rate"],
        total_batch_size=c["microbatch"],
        max_token_length=c["seq_len"],
        epochs=1.0,
        bf16=False,
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    stream_len = c["steps_per_call"] * c["microbatch"] * (c["seq_len"] + 1)

    def corpus_slice(start):
        """Documents from ``start`` on, the last one cut short, so that
        packing (an EOS after each) fills exactly ``steps_per_call`` full
        batches: every call does the same work."""
        out, room = [], stream_len
        while room > 0:
            doc = docs[(start + len(out)) % len(docs)][: room - 1]
            out.append(doc)
            room -= len(doc) + 1
        return out

    def train(start):
        for name, p in params.items():
            p[...] = initial[name]
        window = corpus_slice(start)
        speed.maybe_tick()
        t0 = time.perf_counter()
        result = ContinualPretrainer(config).run(model, window, tokenizer.vocab.eos_id)
        return time.perf_counter() - t0, result

    # gate: the same slice from the same weights trains identically
    tracer.enabled = False
    first = int(rng.integers(len(docs)))
    _, a = train(first)
    digest_a = param_digest(model)
    _, b = train(first)
    wrong = int(
        a.history.losses != b.history.losses
        or digest_a != param_digest(model)
        or not np.all(np.isfinite(a.history.losses))
    )
    tracer.enabled = True

    calls, step_s, tok_rates, step_rates = [], [], [], []
    started = time.perf_counter()
    while keep_measuring(started, seconds, "cpt-train", len(calls), len(calls)):
        dt, result = train(int(rng.integers(len(docs))))
        calls.append(dt)
        step_s.append(dt / result.history.steps)
        tok_rates.append(result.history.tokens_seen / dt)
        step_rates.append(result.history.steps / dt)
        wrong += int(not np.all(np.isfinite(result.history.losses)))
    tracer.enabled = False

    slots, report = latency_slots(calls, step_s, spec.TAIL_WANTED["cpt-train"])
    report.update(calls=len(calls), wrong=wrong, digest=digest_a[:16], host_scale=speed.scale())
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "work_per_s": statistics.median(tok_rates),
        "work2_per_s": statistics.median(step_rates),
        **slots,
    }
    return Result(on_host_scale(metrics, speed), len(calls), wrong, wrong, report)


WORKLOADS = {
    "chat-shared": run_chat_shared,
    "burst-unshared": run_burst_unshared,
    "table1-eval": run_table1_eval,
    "cpt-train": run_cpt_train,
}
