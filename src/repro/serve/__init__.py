"""Continuous-batching inference serving for the benchmark stack.

The ROADMAP's north star is a service, not a script: heavy mixed
traffic of long full-instruct generations and single-step next-token
scorings — exactly the paper's three evaluation methodologies — served
from one model with bounded memory and explicit overload behavior.
This package is that serving layer:

* :mod:`~repro.serve.request` — request/state dataclasses covering both
  workload shapes, with per-request decoding configs and seeds;
* :mod:`~repro.serve.admission` — bounded FIFO queue with admission
  deadlines and ``QueueFullError`` backpressure;
* :mod:`~repro.serve.scheduler` — iteration-level continuous batching
  under a token budget, routed through the ``PrefixCacheStore`` so
  shared scaffolds are never re-prefilled; it decodes through the same
  ``repro.model.sampling`` calls as ``generate()``, so GENERATE tokens
  and step logits are bit-equal to ``generate()`` (store miss, exact or
  partial cover) and SCORE logits to ``prefill().last_logits``;
* :mod:`~repro.serve.engine` — the ``submit()/step()/drain()`` loop with
  per-token streaming callbacks; each step advances the clock by the
  fixed step-cost model :func:`~repro.serve.engine.step_duration`;
* :mod:`~repro.serve.clock` / :mod:`~repro.serve.sim` — the injected
  time source and the deterministic simulator (lint rule R7 keeps wall
  clocks out of everything but ``clock.py``);
* :mod:`~repro.serve.metrics` — counters/histograms snapshotable as
  plain dicts.

See ``docs/serving.md`` for the architecture tour.
"""

from repro.serve.admission import (
    AdmissionQueue,
    InvalidRequestError,
    OversizedRequestError,
    QueueFullError,
)
from repro.serve.clock import Clock, VirtualClock, WallClock
from repro.serve.engine import ServeConfig, ServeEngine, step_duration
from repro.serve.metrics import Counter, Histogram, ServeMetrics
from repro.serve.request import (
    InferenceRequest,
    RequestKind,
    RequestState,
    RequestStatus,
    TERMINAL_STATUSES,
)
from repro.serve.scheduler import (
    ContinuousBatchingScheduler,
    SchedulerConfig,
    StepDirectives,
    StepReport,
)
from repro.serve.sim import (
    SimRequestSpec,
    SimulationResult,
    make_workload,
    simulate,
)

__all__ = [
    "AdmissionQueue",
    "QueueFullError",
    "OversizedRequestError",
    "InvalidRequestError",
    "Clock",
    "VirtualClock",
    "WallClock",
    "ServeConfig",
    "ServeEngine",
    "step_duration",
    "Counter",
    "Histogram",
    "ServeMetrics",
    "InferenceRequest",
    "RequestKind",
    "RequestState",
    "RequestStatus",
    "TERMINAL_STATUSES",
    "ContinuousBatchingScheduler",
    "SchedulerConfig",
    "StepDirectives",
    "StepReport",
    "SimRequestSpec",
    "SimulationResult",
    "make_workload",
    "simulate",
]
