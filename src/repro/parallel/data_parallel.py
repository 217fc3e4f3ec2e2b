"""Data-parallel (DDP) training over simulated ranks.

Each rank holds a full model replica; every global batch is split into
per-rank shards, each replica computes gradients on its shard, gradients
are averaged with an all-reduce, and each replica applies the identical
optimizer step.  The implementation preserves DDP's defining invariant —
**replicas never diverge** — which the test suite asserts bit-exactly.

Replicas execute one after another in one process (each replica's own
forward and backward split its shard's rows across the host's cores, as
every training forward does); the communicator's cost model supplies the
timing a real cluster would see, from which the scaling benchmarks compute
parallel efficiency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.model.config import ModelConfig
from repro.model.transformer import TransformerLM
from repro.parallel.collectives import Communicator, RingCostModel
from repro.parallel.mesh import DeviceMesh
from repro.parallel.zero_optimizer import flatten_params, unflatten_into
from repro.train.optimizer import AdamW, clip_grad_norm, grad_sq_sum
from repro.train.schedule import CosineSchedule

# Simulated per-rank compute throughput used for the timing model
# (seconds per token of forward+backward).
SECONDS_PER_TOKEN = 1e-6


@dataclass
class DDPConfig:
    learning_rate: float = 1e-3
    total_steps: int = 10
    warmup_ratio: float = 0.03
    clip_norm: float = 1.0
    weight_decay: float = 0.0


@dataclass
class DDPResult:
    losses: List[float] = field(default_factory=list)
    steps: int = 0
    simulated_compute_seconds: float = 0.0
    simulated_comm_seconds: float = 0.0

    @property
    def simulated_total_seconds(self) -> float:
        return self.simulated_compute_seconds + self.simulated_comm_seconds

    def parallel_efficiency(self, serial_seconds: float, world_size: int) -> float:
        """Speedup / world_size against a serial baseline time."""
        if self.simulated_total_seconds <= 0:
            return 1.0
        speedup = serial_seconds / self.simulated_total_seconds
        return speedup / world_size


class DataParallelTrainer:
    """Synchronous DDP across all ranks of a mesh."""

    def __init__(
        self,
        mesh: DeviceMesh,
        model_config: ModelConfig,
        config: Optional[DDPConfig] = None,
        cost_model: Optional[RingCostModel] = None,
        seed: int = 0,
    ) -> None:
        self.mesh = mesh
        self.config = config or DDPConfig()
        self.comm = Communicator(mesh, cost_model=cost_model)
        # All replicas start from the same initialization — equivalent to
        # rank-0 init + broadcast, which is how real DDP bootstraps.
        self.replicas = [
            TransformerLM(model_config, seed=seed) for _ in range(mesh.world_size)
        ]
        init = self.replicas[0].state_copy()
        for replica in self.replicas[1:]:
            replica.load_state(init)
        self.optimizers = [
            AdamW(
                r.named_parameters(),
                r.named_gradients(),
                weight_decay=self.config.weight_decay,
            )
            for r in self.replicas
        ]
        self.schedule = CosineSchedule(
            self.config.learning_rate,
            self.config.total_steps,
            self.config.warmup_ratio,
        )

    # ------------------------------------------------------------------
    def shard_batch(
        self, inputs: np.ndarray, targets: np.ndarray
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Split a global batch into one contiguous shard per rank."""
        world = self.mesh.world_size
        if inputs.shape[0] % world != 0:
            raise ValueError(
                f"global batch {inputs.shape[0]} not divisible by world size {world}"
            )
        return list(zip(np.split(inputs, world), np.split(targets, world)))

    def compute_gradients(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """Forward/backward on every shard + gradient all-reduce.

        Leaves the mean gradient in every replica (unclipped) and returns
        the mean loss.  Safe to re-run: it starts from ``zero_grad`` and
        performs no optimizer update, which is what lets the recovery
        layer discard an anomalous (fault-injected) gradient and recompute
        the step exactly.
        """
        shards = self.shard_batch(inputs, targets)
        losses = []
        flat_grads: List[np.ndarray] = []
        for replica, (x, t) in zip(self.replicas, shards):
            replica.zero_grad()
            losses.append(replica.loss_and_backward(x, t))
            flat, layout = flatten_params(replica.named_gradients())
            flat_grads.append(flat)
        reduced = self.comm.all_reduce(flat_grads, op="mean")
        for replica, flat in zip(self.replicas, reduced):
            unflatten_into(flat, layout, replica.named_gradients())
        return float(np.mean(losses))

    def grad_norm(self) -> float:
        """Global L2 norm of the (reduced, identical) rank-0 gradients."""
        return math.sqrt(grad_sq_sum(self.replicas[0].named_gradients()))

    def apply_gradients(self) -> float:
        """Clip and apply the identical optimizer step on every replica;
        returns the learning rate used."""
        cfg = self.config
        step_idx = self.optimizers[0].step_count
        lr = self.schedule.lr(step_idx)
        for replica, optimizer in zip(self.replicas, self.optimizers):
            clip_grad_norm(replica.named_gradients(), cfg.clip_norm)
            optimizer.step(lr)
        return lr

    def train_step(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """One synchronous DDP step on a global batch; returns mean loss."""
        loss = self.compute_gradients(inputs, targets)
        self.apply_gradients()
        return loss

    def train(
        self, batches: Iterable[Tuple[np.ndarray, np.ndarray]]
    ) -> DDPResult:
        """Run up to ``total_steps`` global-batch steps."""
        cfg = self.config
        result = DDPResult()
        comm_before = self.comm.stats.simulated_seconds
        for step, (inputs, targets) in enumerate(batches):
            if step >= cfg.total_steps:
                break
            loss = self.train_step(inputs, targets)
            result.losses.append(loss)
            result.steps += 1
            # per-rank compute: a rank processes batch/world tokens; ranks
            # run concurrently so wall time is one shard's time.
            shard_tokens = inputs.size / self.mesh.world_size
            result.simulated_compute_seconds += shard_tokens * SECONDS_PER_TOKEN
        result.simulated_comm_seconds = (
            self.comm.stats.simulated_seconds - comm_before
        )
        return result

    # ------------------------------------------------------------------
    def replicas_in_sync(self) -> bool:
        """DDP invariant: all replicas hold bit-identical parameters."""
        ref = self.replicas[0].named_parameters()
        for replica in self.replicas[1:]:
            other = replica.named_parameters()
            for key, arr in ref.items():
                if not np.array_equal(arr, other[key]):
                    return False
        return True

    @property
    def model(self) -> TransformerLM:
        """The rank-0 replica (canonical model after training)."""
        return self.replicas[0]
