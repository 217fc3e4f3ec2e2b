"""The optimizer step loop shared by CPT and SFT.

Implements the knobs the paper reports using: AdamW, linear warmup + cosine
decay, gradient accumulation (total batch = ``batch_size * grad_accum``),
global-norm clipping, and bf16 parameter rounding after each step.
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
    min_lr: float = 0.0
    grad_accum: int = 1
    clip_norm: float = 1.0
    weight_decay: float = 0.0
    betas: Tuple[float, float] = (0.9, 0.95)
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
            config.learning_rate,
            config.total_steps,
            config.warmup_ratio,
            config.min_lr,
        )
        # the model's parameter set is fixed, so its name -> array dicts
        # are built once, not walked out of the module tree every step
        self._params = model.named_parameters()
        self._grads = model.named_gradients()
        self.optimizer = AdamW(
            self._params,
            self._grads,
            betas=config.betas,
            weight_decay=config.weight_decay,
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
