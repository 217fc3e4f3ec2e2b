"""Serving-engine wall-time overhead: the engine against a naive loop.

The numpy model forwards each decode row on its own, so continuous
batching cannot amortize matmuls here.  What this bench guards is that
the serving machinery (queue, scheduler, metrics, event log, prefix
store) costs at most ``WALL_OVERHEAD_CEILING`` over a naive
per-request ``generate()`` loop.  No perfbench gate measures that ratio,
so it stays here as a ``slow``-marked wall-clock check, run locally;
perfbench's serve workloads are the speed evidence.  The scheduling win
itself, >= 3x fewer decode steps than sequential serving with identical
outputs, is tier-1: ``tests/test_serve_sim.py::TestContinuousVsSequential``.
"""

import time

import pytest

from repro.model import ModelConfig, TransformerLM
from repro.model.sampling import generate
from repro.serve import (
    RequestKind,
    SchedulerConfig,
    ServeConfig,
    make_workload,
    simulate,
)

N_REQUESTS = 32
BATCH_WIDTH = 8
# the engine may cost at most this factor over the naive loop
WALL_OVERHEAD_CEILING = 1.15

#: arrival burst: everything is queued from the start
WORKLOAD = dict(
    seed=17,
    scaffold_len=12,
    mean_gap=0.0,
    generate_fraction=0.75,
    prompt_len_range=(4, 10),
    max_new_range=(8, 24),
    temperature=0.8,
)

CONTINUOUS = ServeConfig(
    queue_capacity=N_REQUESTS,
    scheduler=SchedulerConfig(token_budget=4096, max_running=BATCH_WIDTH),
)


class TestServeThroughput:
    @pytest.mark.slow
    def test_wall_time_overhead(self):
        """Serving machinery costs ~nothing over a naive loop."""
        model = TransformerLM(
            ModelConfig(
                vocab_size=256, d_model=64, n_layers=3, n_heads=4,
                max_seq_len=128,
            ),
            seed=0,
        )
        specs = make_workload(N_REQUESTS, vocab_size=256, **WORKLOAD)

        t0 = time.perf_counter()
        naive_outputs = {}
        for spec in specs:
            request = spec.to_request()
            naive_outputs[spec.request_id] = (
                generate(model, list(request.prompt_ids), request.generation)
                if spec.kind is RequestKind.GENERATE
                else []
            )
        naive_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        served = simulate(model, specs, config=CONTINUOUS)
        served_s = time.perf_counter() - t0

        generate_ids = [
            s.request_id for s in specs if s.kind is RequestKind.GENERATE
        ]
        assert all(
            served.outputs[rid] == naive_outputs[rid] for rid in generate_ids
        )
        overhead = served_s / naive_s
        print(
            f"\n[serve-throughput] wall naive={naive_s:.2f}s "
            f"served={served_s:.2f}s overhead={overhead:.2f}x "
            f"(ceiling {WALL_OVERHEAD_CEILING}x)"
        )
        assert overhead <= WALL_OVERHEAD_CEILING
