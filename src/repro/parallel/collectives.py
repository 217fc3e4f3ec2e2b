"""MPI-style collectives over simulated ranks.

Each collective takes *per-rank arrays* (a list indexed by group rank) and
returns per-rank results, computed exactly — the simulation is in the
*timing*, not the arithmetic.  Timing follows the standard alpha-beta model
for ring algorithms:

* all-reduce: ``2 (p-1)/p * n/B + 2 (p-1) * alpha`` (reduce-scatter +
  all-gather rings);
* point-to-point: ``alpha + n/B``.

``n`` is the message size in bytes, ``B`` the per-link bandwidth and
``alpha`` the per-message latency.  Cross-node bandwidth can differ from
intra-node (NVLink vs InfiniBand); the communicator picks the slower link
present in its group, as a synchronous ring would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.parallel.mesh import DeviceMesh

ReduceOp = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: Pre-op hook signature: ``hook(op_name, nbytes) -> time_multiplier``.
#: The hook runs *before* any arithmetic or ledger recording, so it may
#: raise (fault injection) without leaving a half-recorded operation; the
#: returned multiplier scales the simulated time of the op (degraded
#: links).  ``None`` (the default) keeps the happy path branch-free.
CollectiveHook = Callable[[str, int], float]

_OPS = {
    "sum": np.add,
    "max": np.maximum,
    "min": np.minimum,
}


@dataclass
class RingCostModel:
    """Alpha-beta timing parameters.

    Defaults approximate an A100 cluster: 300 GB/s effective NVLink
    intra-node, 25 GB/s per-GPU InfiniBand cross-node, 10 us latency.
    """

    intra_node_bandwidth: float = 300e9  # bytes / second
    cross_node_bandwidth: float = 25e9
    latency: float = 10e-6  # seconds per message

    def link_bandwidth(self, cross_node: bool) -> float:
        return self.cross_node_bandwidth if cross_node else self.intra_node_bandwidth

    def all_reduce_time(self, nbytes: int, p: int, cross_node: bool) -> float:
        if p <= 1:
            return 0.0
        B = self.link_bandwidth(cross_node)
        return 2 * (p - 1) / p * nbytes / B + 2 * (p - 1) * self.latency

    def point_to_point_time(self, nbytes: int, cross_node: bool) -> float:
        return self.latency + nbytes / self.link_bandwidth(cross_node)


@dataclass
class CollectiveStats:
    """Accumulated traffic/timing ledger for one communicator."""

    calls: int = 0
    bytes_moved: int = 0
    simulated_seconds: float = 0.0
    per_op_calls: dict = field(default_factory=dict)

    def record(self, op: str, nbytes: int, seconds: float) -> None:
        self.calls += 1
        self.bytes_moved += nbytes
        self.simulated_seconds += seconds
        self.per_op_calls[op] = self.per_op_calls.get(op, 0) + 1


class Communicator:
    """A collective group over a subset of mesh ranks."""

    def __init__(
        self,
        mesh: DeviceMesh,
        ranks: Optional[Sequence[int]] = None,
        cost_model: Optional[RingCostModel] = None,
    ) -> None:
        self.mesh = mesh
        self.ranks = list(ranks) if ranks is not None else list(range(mesh.world_size))
        if len(set(self.ranks)) != len(self.ranks):
            raise ValueError("duplicate ranks in group")
        for r in self.ranks:
            mesh.device(r)  # validates
        self.cost_model = cost_model or RingCostModel()
        self.stats = CollectiveStats()
        self.hook: Optional[CollectiveHook] = None
        nodes = {mesh.device(r).node for r in self.ranks}
        self._cross_node = len(nodes) > 1

    @property
    def size(self) -> int:
        return len(self.ranks)

    def install_hook(self, hook: Optional[CollectiveHook]) -> Optional[CollectiveHook]:
        """Install (or clear) the pre-op hook; returns the previous one."""
        previous = self.hook
        self.hook = hook
        return previous

    def _consult_hook(self, op: str, nbytes: int) -> float:
        """Time multiplier from the hook; called before any computation."""
        if self.hook is None:
            return 1.0
        return float(self.hook(op, nbytes))

    # ------------------------------------------------------------------
    def _check(self, buffers: Sequence[np.ndarray]) -> None:
        if len(buffers) != self.size:
            raise ValueError(
                f"expected one buffer per rank ({self.size}), got {len(buffers)}"
            )
        shape = buffers[0].shape
        for b in buffers[1:]:
            if b.shape != shape:
                raise ValueError("all rank buffers must share a shape")

    # ------------------------------------------------------------------
    def all_reduce(
        self, buffers: Sequence[np.ndarray], op: str = "sum"
    ) -> List[np.ndarray]:
        """Reduce across ranks; every rank receives the full result.

        ``op`` is ``sum`` | ``mean`` | ``max`` | ``min``.
        """
        self._check(buffers)
        mult = self._consult_hook("all_reduce", int(buffers[0].nbytes))
        if op == "mean":
            reduced = np.sum(buffers, axis=0) / self.size
        elif op in _OPS:
            reduced = buffers[0].copy()
            for b in buffers[1:]:
                reduced = _OPS[op](reduced, b)
        else:
            raise ValueError(f"unknown reduce op {op!r}")
        nbytes = int(buffers[0].nbytes)
        t = self.cost_model.all_reduce_time(nbytes, self.size, self._cross_node)
        self.stats.record("all_reduce", nbytes * self.size, t * mult)
        return [reduced.copy() for _ in range(self.size)]

    def point_to_point(
        self, buffer: np.ndarray, src: int, dst: int
    ) -> np.ndarray:
        """Send ``buffer`` from group rank ``src`` to ``dst``; returns the
        received copy.

        The pipeline executor moves stage-boundary activations through this
        primitive so that link faults and degraded bandwidth have a single
        injection point; the cost model charges one latency + ``n/B``
        message.
        """
        for r in (src, dst):
            if not 0 <= r < self.size:
                raise IndexError(f"rank {r} out of group range 0..{self.size - 1}")
        nbytes = int(buffer.nbytes)
        mult = self._consult_hook("point_to_point", nbytes)
        cross = self.mesh.is_cross_node(self.ranks[src], self.ranks[dst])
        t = self.cost_model.point_to_point_time(nbytes, cross)
        self.stats.record("point_to_point", nbytes, t * mult)
        return buffer.copy()
