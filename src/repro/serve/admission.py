"""Bounded admission queue with backpressure.

A production benchmark service must refuse load it cannot carry:
an unbounded queue converts overload into unbounded latency and
memory growth.  :class:`AdmissionQueue` is the engine's front door —
bounded capacity, explicit :class:`QueueFullError` rejection with a
deterministic retry-after hint, FIFO ordering, and
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
    "SERVICE_TIME_HINT",
]

#: per-request service-time estimate (seconds on the engine's clock)
#: behind the ``retry_after`` backoff hint
SERVICE_TIME_HINT = 1.0


class QueueFullError(RuntimeError):
    """Raised by :meth:`AdmissionQueue.push` when the queue is at capacity.

    ``retry_after`` is a deterministic backoff hint (seconds, on the
    engine's clock) derived from the queue depth and the per-request
    service-time estimate :data:`SERVICE_TIME_HINT` — callers should
    resubmit no sooner than that.
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
    """Bounded wait queue in FIFO order.

    Requests leave in ``seq`` order, the engine's submission counter,
    never a timestamp, so two runs of the same schedule order identically.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._heap: List[Tuple[int, RequestState]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def retry_after(self) -> float:
        """Deterministic backoff hint for a rejected submit."""
        return (len(self._heap) + 1) * SERVICE_TIME_HINT

    def push(self, state: RequestState) -> None:
        """Enqueue, or raise :class:`QueueFullError` at capacity."""
        if len(self._heap) >= self.capacity:
            raise QueueFullError(self.capacity, self.retry_after())
        heapq.heappush(self._heap, (state.seq, state))

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
        position, so preemption never reorders peers."""
        state.status = RequestStatus.QUEUED
        heapq.heappush(self._heap, (state.seq, state))
