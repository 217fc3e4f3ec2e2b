"""The benchmark's own arithmetic: percentiles, the tail rule, SLO
accounting and run-to-run spread.  Pure Python, so the tests need
neither numpy nor the program under test."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)

#: A tail percentile needs at least this many samples above it.
SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Linearly interpolated ``p``-th percentile (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo, hi = math.floor(k), math.ceil(k)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail_percentile(n: int, wanted: float) -> float:
    """Highest percentile at or below ``wanted`` that leaves at least
    :data:`SAMPLES_BEYOND` of ``n`` samples above it.

    Falls back to the median when even that is not supported, so a
    small sample reports its median as its tail rather than a maximum
    that one outlier decides.
    """
    for p in TAIL_LADDER:
        if p <= wanted and n * (100.0 - p) / 100.0 >= SAMPLES_BEYOND:
            return p
    return 50.0


def samples_needed(p: float) -> int:
    """Smallest sample that supports reporting the ``p``-th percentile."""
    if not 0.0 <= p < 100.0:
        raise ValueError(f"percentile {p} outside [0, 100)")
    return math.ceil(SAMPLES_BEYOND / (1.0 - p / 100.0) - 1e-9)


def tail(values: Sequence[float], wanted: float) -> tuple:
    """``(value, percentile_used)`` of the supported tail of ``values``."""
    p = tail_percentile(len(values), wanted)
    return percentile(values, p), p


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


@dataclass
class RequestOutcome:
    """What the load generator saw of one request it tried to send.

    ``finished`` is False for a request that was refused at submit,
    expired in the queue or never completed; such a request misses every
    latency limit.
    """

    finished: bool
    ttft_s: Optional[float] = None
    gaps_s: List[float] = field(default_factory=list)


def meets_slo(outcome: RequestOutcome, ttft_limit_s: float, itl_limit_s: float) -> bool:
    """A request meets the SLO when it finished, its first token came
    within ``ttft_limit_s`` of its due time, and no gap between its
    streamed tokens exceeded ``itl_limit_s``."""
    return (
        outcome.finished
        and outcome.ttft_s is not None
        and outcome.ttft_s <= ttft_limit_s
        and all(g <= itl_limit_s for g in outcome.gaps_s)
    )


def slo_ok_frac(
    outcomes: Sequence[RequestOutcome], ttft_limit_s: float, itl_limit_s: float
) -> float:
    """Share of *sent* requests meeting both limits (refusals count as misses)."""
    if not outcomes:
        raise ValueError("no requests were sent")
    met = sum(1 for o in outcomes if meets_slo(o, ttft_limit_s, itl_limit_s))
    return met / len(outcomes)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles`` with ``n=4``)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
