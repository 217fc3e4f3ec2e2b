"""Bounded admission queue with backpressure.

A production benchmark service must refuse load it cannot carry:
an unbounded queue converts overload into unbounded latency and
memory growth.  :class:`AdmissionQueue` is the engine's front door —
bounded capacity, explicit :class:`QueueFullError` rejection with a
deterministic retry-after hint, priority or FIFO ordering, and
deadline expiry for requests that waited too long to be admitted.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.serve.request import RequestState, RequestStatus

__all__ = [
    "AdmissionQueue",
    "QueueFullError",
    "OversizedRequestError",
    "InvalidRequestError",
    "QUEUE_POLICIES",
]

QUEUE_POLICIES = ("fifo", "priority")


class QueueFullError(RuntimeError):
    """Raised by :meth:`AdmissionQueue.push` when the queue is at capacity.

    ``retry_after`` is a deterministic backoff hint (seconds, on the
    engine's clock) derived from the queue depth and the configured
    per-request service-time estimate — callers should resubmit no
    sooner than that.
    """

    def __init__(self, capacity: int, retry_after: float) -> None:
        self.capacity = capacity
        self.retry_after = retry_after
        super().__init__(
            f"admission queue full ({capacity} waiting); "
            f"retry after {retry_after:g}s"
        )


class OversizedRequestError(ValueError):
    """The request can never be admitted (exceeds the token budget)."""

    def __init__(self, request_id: str, needed: int, budget: int) -> None:
        self.request_id = request_id
        self.needed = needed
        self.budget = budget
        super().__init__(
            f"request {request_id!r} needs {needed} tokens but the "
            f"scheduler budget is {budget}"
        )


class InvalidRequestError(ValueError):
    """The request can never run (a prompt token id is out of vocabulary)."""


class AdmissionQueue:
    """Bounded wait queue ordered by ``(priority, arrival)`` or FIFO.

    ``policy="fifo"`` ignores priorities entirely; ``policy="priority"``
    orders by ``(priority, seq)`` so equal priorities stay FIFO.  Both are
    deterministic: ``seq`` is the engine's submission counter, never a
    timestamp, so two runs of the same schedule order identically.
    """

    def __init__(
        self,
        capacity: int = 64,
        policy: str = "fifo",
        service_time_hint: float = 1.0,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if policy not in QUEUE_POLICIES:
            raise ValueError(
                f"unknown queue policy {policy!r}; expected one of "
                f"{QUEUE_POLICIES}"
            )
        if service_time_hint <= 0:
            raise ValueError("service_time_hint must be > 0")
        self.capacity = capacity
        self.policy = policy
        self.service_time_hint = float(service_time_hint)
        self._heap: List[Tuple[Tuple[int, int], RequestState]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def _key(self, state: RequestState) -> Tuple[int, int]:
        if self.policy == "priority":
            return (state.request.priority, state.seq)
        return (0, state.seq)

    def retry_after(self) -> float:
        """Deterministic backoff hint for a rejected submit."""
        return (len(self._heap) + 1) * self.service_time_hint

    def push(self, state: RequestState) -> None:
        """Enqueue, or raise :class:`QueueFullError` at capacity."""
        if len(self._heap) >= self.capacity:
            raise QueueFullError(self.capacity, self.retry_after())
        heapq.heappush(self._heap, (self._key(state), state))

    def expire_overdue(self, now: float) -> List[RequestState]:
        """Remove and mark every queued request whose deadline passed."""
        expired = [
            state
            for _, state in self._heap
            if state.request.deadline is not None
            and now > state.request.deadline
        ]
        if expired:
            keep = [
                item
                for item in self._heap
                if item[1] not in expired  # identity: states are unhashable-safe
            ]
            heapq.heapify(keep)
            self._heap = keep
            for state in expired:
                state.status = RequestStatus.EXPIRED
                state.finish_reason = "deadline"
                state.finished_at = now
        expired.sort(key=lambda s: s.seq)
        return expired

    def peek(self) -> Optional[RequestState]:
        return self._heap[0][1] if self._heap else None

    def pop(self) -> RequestState:
        return heapq.heappop(self._heap)[1]

    def remove(self, state: RequestState) -> bool:
        """Withdraw one queued state (cancellation); False if absent."""
        kept = [item for item in self._heap if item[1] is not state]
        if len(kept) == len(self._heap):
            return False
        heapq.heapify(kept)
        self._heap = kept
        return True

    def requeue(self, state: RequestState) -> None:
        """Put a preempted request back; its original ``seq`` restores its
        position among equals, so preemption never reorders peers."""
        state.status = RequestStatus.QUEUED
        heapq.heappush(self._heap, (self._key(state), state))
