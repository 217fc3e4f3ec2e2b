"""The user-facing serving engine: ``submit() / step() / drain()``.

:class:`ServeEngine` composes the bounded admission queue, the
continuous-batching scheduler, the prefix-cache store, metrics, and an
injected clock into one loop:

    engine = ServeEngine(model)
    state = engine.submit(InferenceRequest("r1", prompt_ids))
    while engine.has_work:
        engine.step()
    print(state.output_ids, engine.metrics.snapshot())

With the default :class:`~repro.serve.clock.VirtualClock`, each step
advances time by a deterministic modeled duration (:func:`step_duration`,
scaled by any fault-injected latency factor), so latency metrics and
deadline behavior are bit-reproducible; pass
:class:`~repro.serve.clock.WallClock` for live serving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.model.kv_cache import PrefixCacheStore
from repro.model.sampling import clamp_prompt
from repro.serve.admission import (
    AdmissionQueue,
    InvalidRequestError,
    OversizedRequestError,
    QueueFullError,
)
from repro.serve.clock import Clock, VirtualClock
from repro.serve.metrics import ServeMetrics
from repro.serve.request import (
    InferenceRequest,
    RequestKind,
    RequestState,
)
from repro.serve.scheduler import ContinuousBatchingScheduler, SchedulerConfig

__all__ = [
    "STEP_BASE",
    "STEP_PER_PREFILL_TOKEN",
    "STEP_PER_DECODE_ROW",
    "step_duration",
    "ServeConfig",
    "ServeEngine",
]

#: virtual step cost: per-iteration launch overhead, plus linear terms
#: per prefilled prompt token and per decode row (clock seconds)
STEP_BASE = 1.0
STEP_PER_PREFILL_TOKEN = 0.01
STEP_PER_DECODE_ROW = 0.05


def step_duration(prefill_tokens: int, decode_rows: int) -> float:
    """Deterministic virtual duration of one engine step.

    Purely a simulation device: it never affects the *order* of
    scheduling decisions, only the virtual timestamps (and thus
    deadlines and latency histograms).
    """
    return (
        STEP_BASE
        + STEP_PER_PREFILL_TOKEN * prefill_tokens
        + STEP_PER_DECODE_ROW * decode_rows
    )


@dataclass(frozen=True)
class ServeConfig:
    """Engine-level configuration (queue + scheduler)."""

    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    queue_capacity: int = 64


class ServeEngine:
    """Continuous-batching inference engine over one model.

    ``submit`` applies admission control *immediately*: an invalid or
    oversized request raises :class:`InvalidRequestError` or
    :class:`OversizedRequestError`, a full queue raises
    :class:`QueueFullError` carrying a deterministic ``retry_after``
    hint — overload is refused, never buffered unboundedly.  ``step``
    runs one scheduler iteration; ``drain`` steps until idle.
    """

    def __init__(
        self,
        model,
        config: Optional[ServeConfig] = None,
        clock: Optional[Clock] = None,
        prefix_store: Optional[PrefixCacheStore] = None,
        fault_hook=None,
    ) -> None:
        self.model = model
        self.config = config or ServeConfig()
        self.clock = clock if clock is not None else VirtualClock()
        self.metrics = ServeMetrics()
        self.queue = AdmissionQueue(capacity=self.config.queue_capacity)
        self.scheduler = ContinuousBatchingScheduler(
            model,
            self.queue,
            config=self.config.scheduler,
            prefix_store=prefix_store,
            metrics=self.metrics,
        )
        self.metrics.watch_store(self.scheduler.prefix_store)
        self.fault_hook = fault_hook
        self.states: Dict[str, RequestState] = {}
        self._seq = 0
        self._step_index = 0

    # ------------------------------------------------------------------
    @property
    def events(self) -> List[tuple]:
        """The scheduler's append-only event log (replay-comparable)."""
        return self.scheduler.events

    @property
    def has_work(self) -> bool:
        return bool(self.queue) or bool(self.scheduler.running)

    # ------------------------------------------------------------------
    def _reject(self, request: InferenceRequest, reason: str) -> None:
        self.metrics.inc("rejected")
        self.scheduler.events.append(
            ("reject", self._step_index, request.request_id, reason)
        )

    def submit(self, request: InferenceRequest) -> RequestState:
        """Admission-control a new request into the wait queue.

        Raises :class:`InvalidRequestError` on an out-of-vocabulary token
        id, :class:`OversizedRequestError` if the request can never fit
        the scheduler's token budget, :class:`QueueFullError` (with
        ``retry_after``) under overload, ``ValueError`` on a duplicate
        request id.
        """
        if request.request_id in self.states:
            raise ValueError(f"duplicate request_id {request.request_id!r}")
        vocab_size = self.model.config.vocab_size
        if not all(0 <= t < vocab_size for t in request.prompt_ids):
            self._reject(request, "invalid")
            raise InvalidRequestError(
                f"request {request.request_id!r} has a token id outside "
                f"[0, {vocab_size})"
            )
        scored = request.kind is RequestKind.SCORE
        max_new = 0 if scored else request.generation.max_new_tokens
        prompt, budget = clamp_prompt(
            request.prompt_ids, max_new, self.model.config.max_seq_len
        )
        state = RequestState(
            request=request,
            submitted_at=self.clock.now(),
            prompt=prompt,
            budget=budget,
            seq=self._seq,
        )
        needed = state.tokens_reserved()
        if needed > self.config.scheduler.token_budget:
            self._reject(request, "oversized")
            raise OversizedRequestError(
                request.request_id, needed, self.config.scheduler.token_budget
            )
        try:
            self.queue.push(state)
        except QueueFullError:
            self._reject(request, "queue-full")
            raise
        self._seq += 1
        self.states[request.request_id] = state
        self.metrics.inc("submitted")
        self.scheduler.events.append(
            ("submit", self._step_index, request.request_id)
        )
        return state

    # ------------------------------------------------------------------
    def step(self) -> List[tuple]:
        """One scheduler iteration; returns the events it produced."""
        step = self._step_index
        directives = None
        if self.fault_hook is not None:
            directives = self.fault_hook.on_step(step)
        before = len(self.scheduler.events)
        self.metrics.queue_depth.observe(len(self.queue))
        report = self.scheduler.step(step, self.clock, directives)
        # batch width = requests that touched the model this step
        self.metrics.batch_size.observe(report.decode_rows + report.admitted)
        self.metrics.inc("prefill_tokens", report.prefill_tokens)
        self.metrics.inc("prefix_hit_tokens", report.prefix_hit_tokens)
        if report.did_work:
            self.metrics.inc("engine_steps")
        if report.decode_rows > 0:
            self.metrics.inc("decode_steps")
        factor = directives.latency_factor if directives else 1.0
        self.clock.advance(
            step_duration(report.prefill_tokens, report.decode_rows) * factor
        )
        self._step_index += 1
        return self.scheduler.events[before:]

    def drain(self, max_steps: int = 100_000) -> List[RequestState]:
        """Step until no queued or running work remains.

        Returns every tracked request's state in submission order.  A
        ``RuntimeError`` after ``max_steps`` flags a liveness bug rather
        than hanging the caller.
        """
        steps = 0
        while self.has_work:
            if steps >= max_steps:
                raise RuntimeError(
                    f"engine failed to drain within {max_steps} steps "
                    f"({len(self.queue)} queued, "
                    f"{len(self.scheduler.running)} running)"
                )
            self.step()
            steps += 1
        return sorted(self.states.values(), key=lambda s: s.seq)

    def metrics_snapshot(self) -> Dict[str, object]:
        return self.metrics.snapshot()
