"""Device mesh: the rank topology of a simulated GPU cluster."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class Device:
    """One simulated accelerator."""

    rank: int  # global rank
    node: int
    local_rank: int  # index within the node

    @property
    def name(self) -> str:
        return f"node{self.node}/gpu{self.local_rank}"


class DeviceMesh:
    """A ``nodes x gpus_per_node`` grid of simulated devices.

    Provides the standard 2-D factorization used for hybrid parallelism:
    ``dp_groups(dp) x pp_groups(pp)`` where ``dp * pp == world_size``.
    Group layout follows the usual convention: pipeline stages are strided
    (consecutive ranks share a data-parallel group), which maps pipeline
    traffic onto the fast intra-node links.
    """

    def __init__(self, nodes: int, gpus_per_node: int) -> None:
        if nodes < 1 or gpus_per_node < 1:
            raise ValueError("nodes and gpus_per_node must be >= 1")
        self.nodes = nodes
        self.gpus_per_node = gpus_per_node
        self.devices: List[Device] = [
            Device(rank=n * gpus_per_node + g, node=n, local_rank=g)
            for n in range(nodes)
            for g in range(gpus_per_node)
        ]

    @property
    def world_size(self) -> int:
        return len(self.devices)

    def device(self, rank: int) -> Device:
        if not 0 <= rank < self.world_size:
            raise IndexError(f"rank {rank} out of range 0..{self.world_size - 1}")
        return self.devices[rank]


    def is_cross_node(self, rank_a: int, rank_b: int) -> bool:
        return self.device(rank_a).node != self.device(rank_b).node

    def __repr__(self) -> str:
        return f"DeviceMesh(nodes={self.nodes}, gpus_per_node={self.gpus_per_node})"
