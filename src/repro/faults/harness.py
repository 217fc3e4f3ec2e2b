"""Faultable training loops: DP, TP and pipeline adapters for recovery.

Each adapter wraps one of the simulated distributed training paths behind
the :class:`~repro.faults.recovery.FaultableLoop` protocol so a single
:class:`~repro.faults.recovery.RecoveryManager` can drive any of them
through a fault plan.  The adapters hold no training arithmetic of their
own: they call the trainers' phases in :mod:`repro.parallel` (compute /
norm / apply), hand the trainers' communicators and gradients to the
injector's hooks, and expose their training state as one flat dict of
live arrays (``state()``) plus the optimizer step counter
(``step_count``).  The recovery manager saves, restores and fingerprints
every loop through that one accessor, so a snapshot holds exactly what
the bit-equality checks compare.

Shared contract (what makes faulted runs bit-identically recoverable):

* ``build()`` reconstructs the exact initial state from the loop's seed;
* the batch for optimizer step ``i`` is a pure function of ``(seed, i)``;
* ``compute_step`` starts from zeroed gradients and mutates only
  gradients, so it can be re-run after a transient fault or a discarded
  spike;
* collectives precede any parameter/optimizer mutation inside each phase,
  so a phase interrupted by a collective fault left no partial update.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.model.config import ModelConfig
from repro.model.layers import assign_state
from repro.model.transformer import TransformerLM
from repro.parallel.collectives import Communicator
from repro.parallel.data_parallel import DataParallelTrainer, DDPConfig
from repro.parallel.mesh import DeviceMesh
from repro.parallel.pipeline_parallel import PipelinedModel
from repro.parallel.tensor_parallel import TensorParallelMLPTrainer
from repro.train.optimizer import AdamW, clip_grad_norm, grad_sq_sum
from repro.utils.rng import new_rng


def _tiny_model_config(vocab_size: int = 64) -> ModelConfig:
    """Smallest config the differential matrix trains in a few seconds."""
    return ModelConfig(
        vocab_size=vocab_size,
        d_model=16,
        n_layers=2,
        n_heads=2,
        max_seq_len=32,
    )


def _state_views(model: TransformerLM, optimizer: AdamW) -> Dict[str, np.ndarray]:
    """Parameters and AdamW moments by name, as the live arrays."""
    return {**model.named_parameters(), **optimizer.moments()}


def fingerprint(loop) -> Dict[str, np.ndarray]:
    """A copy of ``loop.state()`` plus its step counter, for bit comparisons."""
    out = {k: v.copy() for k, v in loop.state().items()}
    out["step_count"] = np.array([loop.step_count])
    return out


def _token_batch(
    seed: int, step: int, batch: int, seq: int, vocab: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic next-token batch for optimizer step ``step``."""
    rng = new_rng(seed, "fault_batch", step)
    tokens = rng.integers(0, vocab, size=(batch, seq + 1))
    return tokens[:, :-1].copy(), tokens[:, 1:].copy()


class DataParallelFaultLoop:
    """DDP across ``world`` ranks behind the faultable-loop protocol."""

    name = "dp"

    def __init__(
        self,
        world: int = 2,
        seed: int = 0,
        batch_size: int = 4,
        seq_len: int = 6,
        config: Optional[DDPConfig] = None,
    ) -> None:
        if batch_size % world != 0:
            raise ValueError("batch_size must be divisible by world")
        self.world = world
        self.seed = seed
        self.batch_size = batch_size
        self.seq_len = seq_len
        self.model_config = _tiny_model_config()
        self.config = config or DDPConfig(total_steps=64)
        self.ddp: Optional[DataParallelTrainer] = None

    def build(self) -> None:
        mesh = DeviceMesh(1, self.world)
        self.ddp = DataParallelTrainer(
            mesh, self.model_config, self.config, seed=self.seed
        )

    def communicators(self) -> Sequence[Communicator]:
        return [self.ddp.comm]

    def gradient_shards(self) -> Sequence[dict]:
        return [r.named_gradients() for r in self.ddp.replicas]

    def compute_step(self, step: int) -> float:
        x, t = _token_batch(
            self.seed, step, self.batch_size, self.seq_len,
            self.model_config.vocab_size,
        )
        return self.ddp.compute_gradients(x, t)

    def grad_norm(self) -> float:
        return self.ddp.grad_norm()

    def apply_step(self, step: int) -> None:
        self.ddp.apply_gradients()

    def state(self) -> Dict[str, np.ndarray]:
        """Rank 0's parameters and moments: every replica holds the same."""
        return _state_views(self.ddp.model, self.ddp.optimizers[0])

    @property
    def step_count(self) -> int:
        return self.ddp.optimizers[0].step_count

    @step_count.setter
    def step_count(self, value: int) -> None:
        # Set last in a restore, after rank 0's state was written: mirror it
        # onto every other replica, exactly as real DDP re-broadcasts.
        lead = self.state()
        for replica, opt in zip(self.ddp.replicas[1:], self.ddp.optimizers[1:]):
            assign_state(_state_views(replica, opt), lead)
        for opt in self.ddp.optimizers:
            opt.step_count = int(value)


class TensorParallelFaultLoop:
    """Megatron-sharded MLP trainer behind the faultable-loop protocol."""

    name = "tp"

    def __init__(
        self,
        tp: int = 2,
        seed: int = 0,
        batch_size: int = 4,
        d_in: int = 6,
        d_hidden: int = 8,
        d_out: int = 4,
        lr: float = 1e-2,
    ) -> None:
        self.tp = tp
        self.seed = seed
        self.batch_size = batch_size
        self.dims = (d_in, d_hidden, d_out)
        self.lr = lr
        self.trainer: Optional[TensorParallelMLPTrainer] = None

    def build(self) -> None:
        mesh = DeviceMesh(1, self.tp)
        comm = Communicator(mesh)
        d_in, d_hidden, d_out = self.dims
        self.trainer = TensorParallelMLPTrainer(
            d_in, d_hidden, d_out, comm, seed=self.seed
        )

    def communicators(self) -> Sequence[Communicator]:
        return [self.trainer.comm]

    def gradient_shards(self) -> Sequence[dict]:
        return self.trainer.shard_grads

    def _batch(self, step: int) -> Tuple[np.ndarray, np.ndarray]:
        d_in, _, d_out = self.dims
        rng = new_rng(self.seed, "fault_batch", step)
        x = rng.standard_normal((self.batch_size, d_in))
        target = rng.standard_normal((self.batch_size, d_out))
        return x, target

    def compute_step(self, step: int) -> float:
        x, target = self._batch(step)
        return self.trainer.compute_gradients(x, target)

    def grad_norm(self) -> float:
        return self.trainer.grad_norm()

    def apply_step(self, step: int) -> None:
        self.trainer.apply_gradients(self.lr)

    def state(self) -> Dict[str, np.ndarray]:
        """Every rank's parameter and moment shards, keyed by rank."""
        out: Dict[str, np.ndarray] = {}
        for r, (params, opt) in enumerate(
            zip(self.trainer.shard_params, self.trainer.optimizers)
        ):
            out.update((f"rank{r}::param::{k}", a) for k, a in params.items())
            out.update((f"rank{r}::{k}", a) for k, a in opt.moments().items())
        return out

    @property
    def step_count(self) -> int:
        return self.trainer.step_count

    @step_count.setter
    def step_count(self, value: int) -> None:
        for opt in self.trainer.optimizers:
            opt.step_count = int(value)


class PipelineFaultLoop:
    """Two-stage (or deeper) :class:`PipelinedModel` behind the protocol.

    ``compute_step`` is :meth:`PipelinedModel.train_step` from zeroed
    gradients.  Its stage-boundary activations and gradients move through
    the pipeline's own communicator, which is where the injector's
    transient/degraded-link faults live for the pipeline mesh.
    """

    name = "pp"

    def __init__(
        self,
        n_stages: int = 2,
        seed: int = 0,
        batch_size: int = 4,
        seq_len: int = 6,
        n_microbatches: int = 2,
        lr: float = 1e-3,
        clip_norm: float = 1.0,
    ) -> None:
        self.n_stages = n_stages
        self.seed = seed
        self.batch_size = batch_size
        self.seq_len = seq_len
        self.n_microbatches = n_microbatches
        self.lr = lr
        self.clip_norm = clip_norm
        self.model_config = _tiny_model_config()
        self.model: Optional[TransformerLM] = None
        self.pipe: Optional[PipelinedModel] = None
        self.optimizer: Optional[AdamW] = None

    def build(self) -> None:
        self.model = TransformerLM(self.model_config, seed=self.seed)
        self.pipe = PipelinedModel(self.model, self.n_stages)
        self.optimizer = AdamW(
            self.model.named_parameters(), self.model.named_gradients()
        )

    def communicators(self) -> Sequence[Communicator]:
        return [self.pipe.comm]

    def gradient_shards(self) -> Sequence[dict]:
        return [self.model.named_gradients()]

    def compute_step(self, step: int) -> float:
        x, t = _token_batch(
            self.seed, step, self.batch_size, self.seq_len,
            self.model_config.vocab_size,
        )
        self.model.zero_grad()
        return float(self.pipe.train_step(x, t, self.n_microbatches))

    def grad_norm(self) -> float:
        return math.sqrt(grad_sq_sum(self.model.named_gradients()))

    def apply_step(self, step: int) -> None:
        clip_grad_norm(self.model.named_gradients(), self.clip_norm)
        self.optimizer.step(self.lr)

    def state(self) -> Dict[str, np.ndarray]:
        return _state_views(self.model, self.optimizer)

    @property
    def step_count(self) -> int:
        return self.optimizer.step_count

    @step_count.setter
    def step_count(self, value: int) -> None:
        self.optimizer.step_count = int(value)


def run_clean(loop, total_steps: int) -> Tuple[List[float], Dict[str, np.ndarray]]:
    """Uninterrupted reference run: no injector, no checkpoints.

    Returns ``(losses, fingerprint)`` — the ground truth every
    faulted-then-recovered run must match bit-for-bit.
    """
    loop.build()
    losses: List[float] = []
    for step in range(total_steps):
        losses.append(float(loop.compute_step(step)))
        loop.grad_norm()
        loop.apply_step(step)
    return losses, fingerprint(loop)


ALL_LOOPS = (DataParallelFaultLoop, TensorParallelFaultLoop, PipelineFaultLoop)
