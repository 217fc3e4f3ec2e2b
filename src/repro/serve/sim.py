"""Deterministic scheduler simulation: workloads, driving loop, replay.

The simulator is how the serving stack is tested and benchmarked
without wall time: a seeded workload of mixed GENERATE/SCORE requests
arrives on a :class:`~repro.serve.clock.VirtualClock`, the engine steps
whenever it has work, and the clock jumps across idle gaps.  Everything
downstream of ``(workload args, seed)`` is deterministic — the event
log, the metrics snapshot, every request's output tokens — so a replay
must match **bit-identically**, which is exactly what
``tests/test_serve_sim.py`` asserts (and what makes scheduler fairness
and fault-injection behavior regression-testable at all).

Backpressure is simulated honestly: a submit refused with
:class:`~repro.serve.admission.QueueFullError` is retried at
``now + retry_after`` (the engine's own hint), up to ``max_retries``,
after which the request is dropped — mirroring a well-behaved client.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.model.sampling import GenerationConfig
from repro.serve.admission import QueueFullError
from repro.serve.clock import VirtualClock
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.request import InferenceRequest, RequestKind
from repro.utils.rng import new_rng

__all__ = ["SimRequestSpec", "SimulationResult", "make_workload", "simulate"]


@dataclass(frozen=True)
class SimRequestSpec:
    """One scripted arrival: what shows up, when, asking for what."""

    request_id: str
    arrival: float
    prompt_ids: Tuple[int, ...]
    kind: RequestKind = RequestKind.GENERATE
    max_new_tokens: int = 16
    temperature: float = 0.0
    top_k: int = 0
    top_p: float = 1.0
    seed: int = 0
    deadline_offset: Optional[float] = None  # deadline = arrival + offset

    def to_request(self) -> InferenceRequest:
        deadline = (
            self.arrival + self.deadline_offset
            if self.deadline_offset is not None
            else None
        )
        return InferenceRequest(
            request_id=self.request_id,
            prompt_ids=self.prompt_ids,
            kind=self.kind,
            generation=GenerationConfig(
                max_new_tokens=self.max_new_tokens,
                temperature=self.temperature,
                top_k=self.top_k,
                top_p=self.top_p,
                seed=self.seed,
            ),
            deadline=deadline,
        )


@dataclass
class SimulationResult:
    """Everything a replay must reproduce bit-identically."""

    events: List[tuple] = field(default_factory=list)
    metrics: Dict[str, object] = field(default_factory=dict)
    summaries: List[dict] = field(default_factory=list)
    outputs: Dict[str, List[int]] = field(default_factory=dict)
    dropped: List[str] = field(default_factory=list)
    end_time: float = 0.0

    def replay_key_view(self) -> tuple:
        """One comparable value covering the whole deterministic surface."""
        return (
            tuple(self.events),
            _freeze(self.metrics),
            tuple(_freeze(s) for s in self.summaries),
            tuple(sorted((k, tuple(v)) for k, v in self.outputs.items())),
            tuple(self.dropped),
            self.end_time,
        )


def _freeze(value: object) -> object:
    """Recursively hashable view of a snapshot dict."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def make_workload(
    n_requests: int,
    seed: int,
    vocab_size: int,
    scaffold_len: int = 12,
    mean_gap: float = 0.5,
    generate_fraction: float = 0.5,
    prompt_len_range: Tuple[int, int] = (4, 10),
    max_new_range: Tuple[int, int] = (4, 16),
    temperature: float = 0.0,
    deadline_offset: Optional[float] = None,
) -> List[SimRequestSpec]:
    """A seeded mixed workload sharing one scaffold prefix.

    Every prompt starts with the same ``scaffold_len`` tokens (the MCQ
    two-shot scaffold analogue) followed by a per-request random tail,
    so the prefix cache has something real to do.  Arrival gaps are
    exponential with mean ``mean_gap``; all draws come from one
    namespaced generator, so the workload *is* its ``(args, seed)`` key.
    """
    if vocab_size < 4:
        raise ValueError("vocab_size must be >= 4")
    rng = new_rng(seed, "serve-sim")
    scaffold = [int(t) for t in rng.integers(1, vocab_size, size=scaffold_len)]
    specs: List[SimRequestSpec] = []
    t = 0.0
    for i in range(n_requests):
        t += float(rng.exponential(mean_gap))
        tail_len = int(rng.integers(prompt_len_range[0], prompt_len_range[1] + 1))
        tail = [int(x) for x in rng.integers(1, vocab_size, size=tail_len)]
        is_generate = bool(rng.random() < generate_fraction)
        specs.append(
            SimRequestSpec(
                request_id=f"req-{i:04d}",
                arrival=t,
                prompt_ids=tuple(scaffold + tail),
                kind=RequestKind.GENERATE if is_generate else RequestKind.SCORE,
                max_new_tokens=int(
                    rng.integers(max_new_range[0], max_new_range[1] + 1)
                ),
                temperature=temperature,
                seed=int(rng.integers(0, 2**31)),
                deadline_offset=deadline_offset,
            )
        )
    return specs


def simulate(
    model,
    specs: Sequence[SimRequestSpec],
    config: Optional[ServeConfig] = None,
    fault_hook=None,
    max_retries: int = 10,
    max_steps: int = 1_000_000,
) -> SimulationResult:
    """Drive ``specs`` through a fresh engine on a virtual clock.

    ``fault_hook`` is any object with ``on_step(step) -> StepDirectives``
    (e.g. :class:`repro.faults.serve.ServeFaultInjector`), keeping the
    simulator decoupled from the fault subsystem.
    """
    clock = VirtualClock()
    engine = ServeEngine(model, config=config, clock=clock, fault_hook=fault_hook)
    #: (due_time, arrival_order, retries_left, spec) — order is stable
    pending: List[Tuple[float, int, int, SimRequestSpec]] = sorted(
        (spec.arrival, i, max_retries, spec) for i, spec in enumerate(specs)
    )
    result = SimulationResult()
    steps = 0
    while pending or engine.has_work:
        if steps >= max_steps:
            raise RuntimeError(f"simulation did not converge in {max_steps} steps")
        # deliver every arrival that is due
        while pending and pending[0][0] <= clock.now():
            due, order, retries, spec = pending.pop(0)
            try:
                engine.submit(spec.to_request())
            except QueueFullError as err:
                if retries > 0:
                    retry_at = clock.now() + err.retry_after
                    bisect.insort(pending, (retry_at, order, retries - 1, spec))
                else:
                    result.dropped.append(spec.request_id)
        if engine.has_work:
            engine.step()
            steps += 1
        elif pending:
            clock.advance_to(pending[0][0])
        else:
            break
    result.events = list(engine.events)
    result.metrics = engine.metrics_snapshot()
    states = sorted(engine.states.values(), key=lambda s: s.seq)
    result.summaries = [s.result_summary() for s in states]
    result.outputs = {s.request_id: list(s.output_ids) for s in states}
    result.end_time = clock.now()
    return result
