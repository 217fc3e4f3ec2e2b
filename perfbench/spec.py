"""What the benchmark measures: workloads, their traffic, and metrics.

This module is the single source for ``BENCHMARK.json`` (``suite.py
--write`` renders it from here plus measured spreads) and for the names
the suite prints.

Every run must report the same end-to-end metric names, whatever its
workload, so the end-to-end metrics are workload-generic slots.
:data:`SLOT_MEANING` maps each slot to what it measures on each
workload, using the issue's metric name where one exists.  Times and
rates are on the host-speed scale of ``hostspeed.py``; the ``# report``
line gives the scale, so ``measured = time / scale = rate * scale``.
"""

from __future__ import annotations

# -- traffic ---------------------------------------------------------------
RUN_SECONDS = 25  # measured window of one run
MAX_SEQ_LEN = 256  # large-tier model context window
SETUP_REPEATS = 11  # set-up is repeated and its median reported

CHAT = dict(
    rate_per_s=5.0,  # Poisson arrival rate; the engine idles ~85% of the time, so the medians are single-request figures
    system_prompts=3,
    system_len=96,  # tokens per shared system prompt
    turns=3,  # per session; the longest prompt plus output fits 256 tokens
    user_len=(6, 12),  # tokens per new user turn (inclusive)
    output_len=(4, 16),  # max_new_tokens per request (inclusive)
    sampled_frac=0.5,  # share decoded at temperature 0.8 / top_k 40
    ttft_limit_ms=250.0,
    itl_limit_ms=100.0,
)
BURST = dict(
    size=64,  # requests due at once; the default admission queue holds 64
    prompt_len=(8, 24),
    output_len=(8, 32),
    score_frac=0.25,
    sampled_frac=0.5,
)
TABLE1 = dict(
    n_articles=200,  # ~994 test questions
    token_chunk=32,  # questions per token-method run call (one batch)
    instruct_per_round=4,  # full-instruct questions per round of two token calls
    instruct_pool=25,  # questions full_instruct cycles through, spread over prompt lengths
    gen_max_new_tokens=32,
    few_shot=2,
)
CPT = dict(
    steps_per_call=2,  # optimizer steps per ContinualPretrainer.run call
    microbatch=4,
    seq_len=128,
    learning_rate=9e-4,
)
GATE_SAMPLE = 8  # outputs replayed through the reference path per run


def _r(lo_hi) -> str:
    return f"{lo_hi[0]}-{lo_hi[1]}"


WORKLOADS = [
    (
        "chat-shared",
        f"open loop, Poisson {CHAT['rate_per_s']:g} req/s; {CHAT['turns']}-turn sessions: "
        f"{CHAT['system_len']}-tok shared system prompt + history + {_r(CHAT['user_len'])}-tok turn, "
        f"out {_r(CHAT['output_len'])} tok; ~75% of prompt tokens shared: north-star chat, TTFT/ITL",
    ),
    (
        "burst-unshared",
        f"offline burst of {BURST['size']} due at t=0; unshared {_r(BURST['prompt_len'])}-tok "
        f"prompts, out {_r(BURST['output_len'])} tok, 75/25 GENERATE/SCORE: capacity, every "
        f"request misses the prefix store",
    ),
    (
        "table1-eval",
        f"Table I pass: token_base, token_instruct ({TABLE1['token_chunk']}-q batches) and "
        f"full_instruct ({TABLE1['gen_max_new_tokens']}-tok generate, {TABLE1['instruct_pool']}-q pool) of 994 MCQs: "
        f"batched scoring, generate(), tokenizer, parsing",
    ),
    (
        "cpt-train",
        f"ContinualPretrainer.run on Summary docs, {CPT['steps_per_call']} steps/call of "
        f"{CPT['microbatch']}x{CPT['seq_len']} tok: full-sequence forward, backward, clip, "
        f"AdamW; the only repro.train workload",
    ),
]
WORKLOAD_NAMES = [name for name, _ in WORKLOADS]

# -- end-to-end metrics ----------------------------------------------------
# (name, unit, better); bounds come from measured spreads (suite.py --write)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("work2_per_s", "1/s", "higher"),
    ("gap_p50_ms", "ms", "lower"),
]

#: Percentile each latency tail reports.  The tails, and the ``lat``
#: median (chat-shared's TTFT), are on the ``# report`` line, not
#: end-to-end metrics: between ten-seed sets of runs of the same code on a
#: 2-vCPU shared host, their quartile spreads reached 20-57% (chat TTFT
#: p50 22% and 35%), past the 25% a regression bound may be.  A run keeps measuring past ``--seconds``
#: until it has the samples this needs (at most MAX_OVERRUN times as
#: long), so the percentile does not vary by run.
TAIL_WANTED = {
    "chat-shared": {"lat": 90.0, "gap": 99.0},  # lat: TTFT from due time; gap: ITL
    "burst-unshared": {"lat": 90.0, "gap": 99.0},  # lat: TTFT from burst start; gap: ITL
    "table1-eval": {"lat": 90.0, "gap": 75.0},  # lat: full_instruct question; gap: token-method call
    "cpt-train": {"lat": 75.0, "gap": 75.0},  # lat: ContinualPretrainer.run call; gap: optimizer step
}
MAX_OVERRUN = 4

SLOT_MEANING = {
    "chat-shared": {
        "work_per_s": "gen_tok_per_s delivered",
        "work2_per_s": "req_per_s completed",
        "gap_p50_ms": "itl_p50_ms",
    },
    "burst-unshared": {
        "work_per_s": "gen_tok_per_s",
        "work2_per_s": "req_per_s",
        "gap_p50_ms": "itl_p50_ms",
    },
    "table1-eval": {
        "work_per_s": "token_q_per_s",
        "work2_per_s": "instruct_q_per_s",
        "gap_p50_ms": "token-method ms per 32-q run call, p50",
    },
    "cpt-train": {
        "work_per_s": "train_tok_per_s",
        "work2_per_s": "optimizer steps per s",
        "gap_p50_ms": "ms per optimizer step, p50",
    },
}

# -- per-layer metrics (traced run) ----------------------------------------
# (name, unit, better, the end-to-end metric it should move @ workload)
PER_LAYER = [
    ("serve.engine.step_ms_p50", "ms", "lower", "itl_p50_ms@chat-shared, gen_tok_per_s@burst-unshared"),
    ("serve.engine.step_ms_p99", "ms", "lower", "itl_p99_ms@chat-shared"),
    ("serve.engine.steps", "count", "lower", "gen_tok_per_s@burst-unshared"),
    ("serve.engine.idle_frac", "ratio", "higher", "headroom@chat-shared"),
    ("serve.admission.queue_wait_ms_p50", "ms", "lower", "ttft_p50_ms@chat-shared"),
    ("serve.admission.queue_wait_ms_p90", "ms", "lower", "ttft_p90_ms@chat-shared"),
    ("serve.admission.rejected", "count", "lower", "failed_frac, slo_ok_frac@chat-shared"),
    ("serve.scheduler.batch_rows_mean", "rows", "higher", "gen_tok_per_s@burst-unshared vs itl_*@chat-shared"),
    ("serve.scheduler.prefill_forwarded_per_prompt_token", "ratio", "lower", "ttft_p50_ms@chat-shared, req_per_s@burst-unshared"),
    ("model.kv_cache.hit_token_frac", "ratio", "higher", "ttft_*@chat-shared; ~0@burst-unshared"),
    ("model.kv_cache.hits", "count", "higher", "ttft_*@chat-shared"),
    ("model.kv_cache.misses", "count", "lower", "ttft_*@chat-shared"),
    ("model.kv_cache.evictions", "count", "lower", "ttft_*@chat-shared"),
    ("model.kv_cache.bytes_copied_per_token", "B", "lower", "itl_p99_ms@chat-shared"),
    ("model.transformer.prefill_ms", "ms", "lower", "ttft_*@chat-shared"),
    ("model.transformer.prefill_calls", "count", "lower", "ttft_*@chat-shared"),
    ("model.transformer.decode_forward_ms_p50", "ms", "lower", "itl_*@chat-shared, gen_tok_per_s@burst-unshared"),
    ("model.transformer.decode_rows_per_call", "rows", "higher", "gen_tok_per_s@burst-unshared"),
    ("model.transformer.score_batch_ms", "ms", "lower", "token_q_per_s@table1-eval"),
    ("model.transformer.train_fwd_ms", "ms", "lower", "train_tok_per_s@cpt-train"),
    ("model.transformer.train_bwd_ms", "ms", "lower", "train_tok_per_s@cpt-train"),
    ("model.sampling.generate_ms", "ms", "lower", "instruct_q_per_s@table1-eval"),
    ("tokenizer.encode_ms", "ms", "lower", "token_q_per_s, instruct_q_per_s@table1-eval"),
    ("tokenizer.encode_calls", "count", "lower", "token_q_per_s@table1-eval"),
    ("tokenizer.decode_ms", "ms", "lower", "instruct_q_per_s@table1-eval"),
    ("tokenizer.decode_calls", "count", "lower", "instruct_q_per_s@table1-eval"),
    ("tokenizer.setup_encode_ms", "ms", "lower", "setup_s@all"),
    ("eval.token_pred.predict_many_ms", "ms", "lower", "token_q_per_s@table1-eval"),
    ("eval.parsing.parse_ms", "ms", "lower", "instruct_q_per_s@table1-eval"),
    ("eval.parsing.interpreter_frac", "ratio", "lower", "instruct_q_per_s@table1-eval"),
    ("eval.parsing.fail_frac", "ratio", "lower", "instruct_q_per_s@table1-eval"),
    ("train.dataloader.wait_ms", "ms", "lower", "train_tok_per_s@cpt-train"),
    ("train.optimizer.step_ms", "ms", "lower", "train_tok_per_s@cpt-train"),
    ("train.optimizer.clip_ms", "ms", "lower", "train_tok_per_s@cpt-train"),
    ("setup.world_build_ms", "ms", "lower", "setup_s@all"),
    ("setup.dataset_build_ms", "ms", "lower", "setup_s@cpt-train"),
    ("setup.model_init_ms", "ms", "lower", "setup_s@all"),
    ("loadgen.send_lag_ms_p99", "ms", "lower", "validity check, not a target"),
]

#: Layers whose self time (span time minus child span time) the traced
#: run reports, as ``<layer>.self_s`` over the measured window.
SELF_TIME_LAYERS = [
    "serve.engine",
    "serve.admission",
    "serve.scheduler",
    "model.kv_cache",
    "model.transformer",
    "model.sampling",
    "tokenizer",
    "eval.runner",
    "eval.token_pred",
    "eval.full_instruct",
    "eval.parsing",
    "train.cpt",
    "train.trainer",
    "train.dataloader",
    "train.optimizer",
]


def per_layer_names() -> list:
    return [name for name, *_ in PER_LAYER] + [
        f"{layer}.self_s" for layer in SELF_TIME_LAYERS
    ]
