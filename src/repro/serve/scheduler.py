"""Iteration-level continuous-batching scheduler.

Classic batch serving admits a fixed set of requests, runs them to
completion, then admits the next set — long generations hold short ones
hostage.  Continuous batching (Orca-style) re-forms the in-flight batch
*every decode step*: finished requests leave immediately, waiting
requests are admitted the moment their tokens fit, and a prefill rides
alongside ongoing decodes.

Invariants this scheduler maintains:

* **token budget** — the sum of every running request's *reserved*
  length (truncated prompt + decode budget) never exceeds
  ``token_budget``, so admission can never strand a request mid-decode;
* **head-of-line order** — admission pops the queue strictly in policy
  order; the head blocks until it fits, so equal-priority requests are
  FIFO and nothing is starved (every admitted request finishes within
  its decode budget, freeing tokens for the head);
* **prefix reuse** — admission opens each prompt through one
  :class:`~repro.model.kv_cache.PrefixCacheStore` with
  :func:`repro.model.sampling.open_prompt`: prompts sharing the MCQ
  scaffold fork a cached prefix instead of re-prefilling it, and every
  miss's prefill is kept for later prompts;
* **determinism** — no wall-clock reads (all time arrives as ``now``
  arguments), no unseeded randomness; each request opens and decodes its
  prompt through the same calls as :func:`repro.model.sampling.generate`,
  from its own seeded generator, so its tokens and step logits are
  independent of batch composition and bit-equal to sequential generation.

Fault injection enters through :class:`StepDirectives` (produced by
``repro.faults.serve.ServeFaultInjector`` from a ``FaultPlan``): a
preempted request is evicted back to the queue and deterministically
restarted, so a faulted run still produces identical final outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.model.kv_cache import PrefixCacheStore
from repro.model.sampling import DecodeStream, open_prompt
from repro.serve.admission import AdmissionQueue
from repro.serve.metrics import ServeMetrics
from repro.serve.request import RequestKind, RequestState, RequestStatus

__all__ = ["SchedulerConfig", "StepDirectives", "StepReport", "ContinuousBatchingScheduler"]


@dataclass(frozen=True)
class StepDirectives:
    """Per-step fault-injection directives (see ``repro.faults.serve``).

    ``preempt_ranks`` indexes into the running batch (admission order);
    out-of-range ranks are ignored, so a plan written for a busier run
    replays harmlessly on a quieter one.  ``latency_factor`` scales the
    step's modeled duration (degraded-link analogue) without touching
    any arithmetic.
    """

    latency_factor: float = 1.0
    preempt_ranks: Tuple[int, ...] = ()


@dataclass(frozen=True)
class SchedulerConfig:
    """Continuous-batching knobs.

    ``token_budget`` bounds the sum of reserved sequence lengths across
    the in-flight batch (the KV-memory analogue); ``max_running`` bounds
    batch width.
    """

    token_budget: int = 2048
    max_running: int = 8

    def __post_init__(self) -> None:
        if self.token_budget < 1:
            raise ValueError("token_budget must be >= 1")
        if self.max_running < 1:
            raise ValueError("max_running must be >= 1")


@dataclass
class StepReport:
    """What one scheduler step did (the engine's cost-model input)."""

    prefill_tokens: int = 0
    prefix_hit_tokens: int = 0
    decode_rows: int = 0
    finished: int = 0
    admitted: int = 0
    preempted: int = 0
    expired: int = 0

    @property
    def did_work(self) -> bool:
        return (
            self.prefill_tokens > 0
            or self.decode_rows > 0
            or self.finished > 0
            or self.expired > 0
            or self.preempted > 0
        )


class ContinuousBatchingScheduler:
    """Admits, decodes, evicts — one iteration per :meth:`step` call.

    The scheduler owns the running batch; the engine owns the clock, the
    metrics, and the admission queue's backpressure contract.
    """

    def __init__(
        self,
        model,
        queue: AdmissionQueue,
        config: Optional[SchedulerConfig] = None,
        prefix_store: Optional[PrefixCacheStore] = None,
        metrics: Optional[ServeMetrics] = None,
    ) -> None:
        self.model = model
        self.queue = queue
        self.config = config or SchedulerConfig()
        self.prefix_store = (
            prefix_store if prefix_store is not None else PrefixCacheStore()
        )
        self.metrics = metrics or ServeMetrics()
        self.running: List[RequestState] = []
        self.events: List[tuple] = []

    # ------------------------------------------------------------------
    def reserved_tokens(self) -> int:
        return sum(state.tokens_reserved() for state in self.running)

    def _log(self, *event: object) -> None:
        self.events.append(tuple(event))

    # -- admission ------------------------------------------------------
    def _fits(self, state: RequestState) -> bool:
        return (
            len(self.running) < self.config.max_running
            and self.reserved_tokens() + state.tokens_reserved()
            <= self.config.token_budget
        )

    def _start(self, state: RequestState, step: int, now: float) -> int:
        """Open ``state``'s prompt (via the prefix store) and run it.

        Returns the number of prompt tokens actually forwarded.  The
        prompt is opened by :func:`repro.model.sampling.open_prompt`, the
        call :func:`~repro.model.sampling.generate` makes.
        """
        opened = open_prompt(self.model, state.prompt, self.prefix_store)
        state.prefix_hit_tokens = opened.hit
        if state.request.kind is RequestKind.SCORE:
            state.final_logits = opened.logits
        else:
            state.decode = DecodeStream(
                self.model, opened, len(state.prompt),
                state.request.generation, state.budget,
            )

        state.status = RequestStatus.RUNNING
        state.admitted_at = now
        self.running.append(state)
        self._log("admit", step, state.request_id, state.prefix_hit_tokens)
        self.metrics.inc("admitted")
        return opened.forwarded

    # -- lifecycle ------------------------------------------------------
    def _finish(
        self, state: RequestState, step: int, now: float, reason: str
    ) -> None:
        state.status = RequestStatus.FINISHED
        state.finish_reason = reason
        state.finished_at = now
        state.decode = None
        if state in self.running:
            self.running.remove(state)
        self._log("finish", step, state.request_id, reason, len(state.output_ids))
        self.metrics.inc("finished")
        self.metrics.observe_finish(
            state.submitted_at, state.first_token_at, now
        )

    def preempt(self, state: RequestState, step: int) -> None:
        """Evict a running request back to the queue.

        Decoding restarts from scratch on re-admission (fresh seeded rng,
        fresh prefill), so the eventual output is identical to an
        uninterrupted run — preemption costs work, never correctness.
        Already-streamed tokens will be re-streamed (at-least-once).
        """
        self.running.remove(state)
        state.decode = None
        state.output_ids = []
        state.first_token_at = None
        state.preemptions += 1
        self.queue.requeue(state)
        self._log("preempt", step, state.request_id)
        self.metrics.inc("preempted")

    # -- one iteration --------------------------------------------------
    def step(
        self,
        step: int,
        now: float,
        directives: Optional[StepDirectives] = None,
    ) -> StepReport:
        """One continuous-batching iteration.

        Order matters and is fixed: fault preemptions, deadline expiry,
        admission (until the head no longer fits), then one decode token
        for every running GENERATE request.  SCOREs complete within their
        admission step.
        """
        report = StepReport()
        directives = directives or StepDirectives()

        # 1. scheduled preemptions (highest rank first so earlier indexes
        #    stay valid while removing)
        for rank in sorted(set(directives.preempt_ranks), reverse=True):
            if 0 <= rank < len(self.running):
                self.preempt(self.running[rank], step)
                report.preempted += 1

        # 2. expire queued requests whose admission deadline passed
        for state in self.queue.expire_overdue(now):
            self._log("expire", step, state.request_id)
            self.metrics.inc("expired")
            report.expired += 1

        # 3. admit while the head of the queue fits
        while True:
            head = self.queue.peek()
            if head is None or not self._fits(head):
                break
            state = self.queue.pop()
            report.prefill_tokens += self._start(state, step, now)
            report.prefix_hit_tokens += state.prefix_hit_tokens
            report.admitted += 1
            if state.request.kind is RequestKind.SCORE:
                self._finish(state, step, now, "scored")
                report.finished += 1
            elif state.budget == 0:
                self._finish(state, step, now, "length")
                report.finished += 1

        # 4. one decode token per running request (admission order)
        for state in list(self.running):
            tok, reason = state.decode.select()
            state.output_ids.append(tok)
            if state.first_token_at is None:
                state.first_token_at = now
            report.decode_rows += 1
            self.metrics.inc("decoded_tokens")
            if state.request.stream is not None:
                state.request.stream(state.request_id, tok, reason is not None)
            if reason is not None:
                self._finish(state, step, now, reason)
                report.finished += 1
            else:
                state.decode.advance(tok)

        return report
