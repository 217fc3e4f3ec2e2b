"""Counters and histograms for the serving engine.

Everything snapshots to plain, JSON-serializable dicts with sorted keys,
so a metrics snapshot participates in the simulator's bit-identical
replay contract: same ``(schedule, seed)`` → same snapshot.  No metric
ever reads a clock itself — durations are observed by the engine from
its injected :class:`~repro.serve.clock.Clock`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.model.kv_cache import PrefixCacheStore

__all__ = ["Counter", "Histogram", "ServeMetrics"]

#: default latency bucket boundaries (seconds on the engine clock)
DEFAULT_BUCKETS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 500.0)


class Counter:
    """A monotonically increasing integer counter."""

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only increase")
        self.value += n


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus-style).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches the
    rest.  ``sum`` accumulates exactly the observed values, so two runs
    observing the same sequence snapshot identically.
    """

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be strictly increasing")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last = +Inf
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.total += 1
        self.sum += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def snapshot(self) -> Dict[str, object]:
        labels = [f"le_{b:g}" for b in self.bounds] + ["le_inf"]
        return {
            "count": self.total,
            "sum": self.sum,
            "buckets": dict(zip(labels, self.counts)),
        }


class ServeMetrics:
    """The engine's whole observable surface, snapshotable as one dict.

    Counter semantics:

    * ``submitted`` / ``admitted`` / ``finished`` — lifecycle edges;
    * ``rejected`` / ``expired`` — admission-control refusals (overload)
      and deadline expiries while queued;
    * ``preempted`` — requests bumped from the in-flight batch back to
      the queue (fault injection or scheduler policy);
    * ``engine_steps`` / ``decode_steps`` — scheduler iterations, and the
      subset that advanced at least one decoding request (the virtual-
      clock throughput measure the serving benchmark asserts on);
    * ``prefill_tokens`` / ``decoded_tokens`` — work actually forwarded;
    * ``prefix_hit_tokens`` — prompt tokens served from the prefix cache
      instead of re-prefilled.
    """

    COUNTERS = (
        "submitted",
        "admitted",
        "finished",
        "rejected",
        "expired",
        "preempted",
        "engine_steps",
        "decode_steps",
        "prefill_tokens",
        "decoded_tokens",
        "prefix_hit_tokens",
    )

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {
            name: Counter() for name in self.COUNTERS
        }
        self.queue_depth = Histogram(buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128))
        self.batch_size = Histogram(buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128))
        self.time_to_first_token = Histogram()
        self.e2e_latency = Histogram()
        self._store: Optional[PrefixCacheStore] = None

    def inc(self, name: str, n: int = 1) -> None:
        self.counters[name].inc(n)

    def watch_store(self, store: PrefixCacheStore) -> None:
        """Fold ``store.stats()`` into every snapshot under ``"prefix_cache"``."""
        self._store = store

    def snapshot(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            name: counter.value for name, counter in sorted(self.counters.items())
        }
        out["queue_depth"] = self.queue_depth.snapshot()
        out["batch_size"] = self.batch_size.snapshot()
        out["time_to_first_token"] = self.time_to_first_token.snapshot()
        out["e2e_latency"] = self.e2e_latency.snapshot()
        if self._store is not None:
            out["prefix_cache"] = self._store.stats()
        return out

    def observe_finish(self, submitted_at: Optional[float], first_token_at: Optional[float], finished_at: float) -> None:
        """Record the latency pair for one finished request."""
        if submitted_at is not None:
            self.e2e_latency.observe(finished_at - submitted_at)
            if first_token_at is not None:
                self.time_to_first_token.observe(first_token_at - submitted_at)
