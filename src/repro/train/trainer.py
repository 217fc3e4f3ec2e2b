"""The one run config and the optimizer step loop shared by CPT and SFT.

CPT and SFT follow one recipe (paper Section III): AdamW with fixed betas
(0.9, 0.95) and eps 1e-8, linear warmup into cosine decay to 0, gradient
accumulation (total batch = ``microbatch_size * grad_accum``), global-norm
clipping, bf16 parameter rounding after each step, and one epoch.
:class:`RunConfig` holds that recipe and its epoch-to-step budget once; the
CPT and SFT configs differ from it only in their defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from repro.model.layers import Module
from repro.model.precision import bf16_round_
from repro.train.optimizer import AdamW, clip_grad_norm
from repro.train.schedule import CosineSchedule

Batch = Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]
# (inputs, targets, loss_mask-or-None)


@dataclass
class TrainingConfig:
    """Hyperparameters of one training run.

    ``grad_accum`` microbatches are accumulated before each optimizer step,
    reproducing "total batch size" semantics: the paper's 70B run uses total
    batch 160 assembled from per-device microbatches.
    """

    learning_rate: float = 1e-3
    total_steps: int = 100
    warmup_ratio: float = 0.03
    grad_accum: int = 1
    clip_norm: float = 1.0
    weight_decay: float = 0.0
    bf16: bool = False

    def __post_init__(self) -> None:
        if self.total_steps <= 0:
            raise ValueError("total_steps must be positive")
        if self.grad_accum < 1:
            raise ValueError("grad_accum must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class TrainingHistory:
    """Per-step log of one run."""

    losses: List[float] = field(default_factory=list)
    lrs: List[float] = field(default_factory=list)
    grad_norms: List[float] = field(default_factory=list)
    tokens_seen: int = 0
    steps: int = 0

    def smoothed_final_loss(self, window: int = 10) -> float:
        if not self.losses:
            raise ValueError("no steps recorded")
        tail = self.losses[-window:]
        return float(np.mean(tail))


class Trainer:
    """Runs a model over a batch stream for ``total_steps`` optimizer steps.

    ``batch_stream`` must be an iterable of ``(inputs, targets, mask)``
    *microbatches*; the trainer consumes ``grad_accum`` of them per optimizer
    step and loops the stream if it is exhausted (via the ``reset`` callable).
    """

    def __init__(self, model: Module, config: TrainingConfig) -> None:
        self.model = model
        self.config = config
        self.schedule = CosineSchedule(
            config.learning_rate, config.total_steps, config.warmup_ratio
        )
        # the model's parameter set is fixed, so its name -> array dicts
        # are built once, not walked out of the module tree every step
        self._params = model.named_parameters()
        self._grads = model.named_gradients()
        self.optimizer = AdamW(
            self._params, self._grads, weight_decay=config.weight_decay
        )

    def train(
        self,
        make_batches: Callable[[], Iterable[Batch]],
    ) -> TrainingHistory:
        """Run the full step budget; returns the training history.

        ``make_batches`` is called to (re)start an epoch whenever the
        previous iterator is exhausted, so one call trains for however many
        epochs the step budget implies.
        """
        history = TrainingHistory()
        cfg = self.config
        iterator = iter(make_batches())
        for step in range(cfg.total_steps):
            for g in self._grads.values():
                g.fill(0.0)
            accum_loss = 0.0
            tokens = 0
            for _ in range(cfg.grad_accum):
                try:
                    inputs, targets, mask = next(iterator)
                except StopIteration:
                    iterator = iter(make_batches())
                    inputs, targets, mask = next(iterator)
                logits = self.model.forward(inputs)
                loss, dlogits = self.model.cross_entropy(logits, targets, mask)
                del logits  # only the loss reads them; free before backward
                # mean over microbatches: scale each contribution
                if cfg.grad_accum > 1:
                    dlogits /= cfg.grad_accum
                self.model.backward(dlogits)
                accum_loss += loss / cfg.grad_accum
                if mask is None:
                    tokens += int(np.asarray(targets).size)
                else:
                    tokens += int(np.asarray(mask).sum())
            norm = clip_grad_norm(self._grads, cfg.clip_norm)
            lr = self.schedule.lr(step)
            self.optimizer.step(lr)
            if cfg.bf16:
                for p in self._params.values():
                    bf16_round_(p)
            history.losses.append(accum_loss)
            history.lrs.append(lr)
            history.grad_norms.append(norm)
            history.tokens_seen += tokens
            history.steps += 1
        return history


@dataclass
class RunConfig:
    """One CPT or SFT run.

    The fields without a default are the ones the paper sets per stage;
    :class:`~repro.train.cpt.CPTConfig` and
    :class:`~repro.train.sft.SFTConfig` give them their defaults.
    ``microbatch_size`` 0 means the whole total batch in one microbatch (no
    accumulation).  ``epochs`` converts to a step budget from the number of
    microbatches one epoch holds; the paper trains one epoch.
    """

    learning_rate: float
    total_batch_size: int
    max_token_length: int
    warmup_ratio: float = 0.03
    epochs: float = 1.0
    weight_decay: float = 0.0
    clip_norm: float = 1.0
    bf16: bool = True
    microbatch_size: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.total_batch_size < 1:
            raise ValueError("total_batch_size must be >= 1")
        if self.microbatch_size < 0:
            raise ValueError("microbatch_size must be >= 0")
        if self.microbatch_size == 0:
            self.microbatch_size = self.total_batch_size
        if self.total_batch_size % self.microbatch_size != 0:
            raise ValueError(
                "total_batch_size must be a multiple of microbatch_size"
            )

    @property
    def grad_accum(self) -> int:
        return self.total_batch_size // self.microbatch_size

    def trainer(self, model: Module, microbatches: int) -> Trainer:
        """The :class:`Trainer` for ``epochs`` passes over an epoch of
        ``microbatches`` microbatches: at least one step per epoch, and at
        least one step in all."""
        steps_per_epoch = max(microbatches // self.grad_accum, 1)
        return Trainer(
            model,
            TrainingConfig(
                learning_rate=self.learning_rate,
                total_steps=max(round(steps_per_epoch * self.epochs), 1),
                warmup_ratio=self.warmup_ratio,
                grad_accum=self.grad_accum,
                clip_norm=self.clip_norm,
                weight_decay=self.weight_decay,
                bf16=self.bf16,
            ),
        )
