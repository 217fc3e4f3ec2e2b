"""Time source abstraction for the serving stack.

The scheduler never reads the wall clock (lint rule R7
``wall-clock-hygiene`` enforces this: ``time.*`` calls inside
``repro/serve/`` are legal only in this module).  All time flows through
an injected :class:`Clock`, so the entire engine — admission deadlines,
time-to-first-token, latency histograms — is bit-reproducible under the
:class:`VirtualClock` used by the simulator and the test suites, and a
``(schedule, seed)`` pair replays to an identical event log.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable

__all__ = ["Clock", "VirtualClock", "WallClock"]


@runtime_checkable
class Clock(Protocol):
    """What the engine needs from a time source."""

    def now(self) -> float:
        """Current time in seconds (monotonic, arbitrary epoch)."""
        ...

    def advance(self, seconds: float) -> None:
        """Account for ``seconds`` of simulated work (no-op on wall time)."""
        ...


class VirtualClock:
    """A manually advanced clock: deterministic, replayable time.

    The engine calls :meth:`advance` with each step's modeled duration;
    the simulator additionally advances it across idle gaps between
    request arrivals.  Nothing moves unless something advances it.
    """

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot advance time backwards ({seconds})")
        self._now += float(seconds)

    def advance_to(self, timestamp: float) -> None:
        """Jump forward to ``timestamp`` (never backwards)."""
        if timestamp > self._now:
            self._now = float(timestamp)


class WallClock:
    """Real monotonic time, for live (non-simulated) serving.

    :meth:`advance` is a no-op — real time passes on its own.  This class
    is the single sanctioned wall-clock reader in ``repro.serve``.
    """

    def now(self) -> float:
        return time.monotonic()

    def advance(self, seconds: float) -> None:
        del seconds
