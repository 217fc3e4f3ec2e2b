"""The learning-rate schedule.

The paper uses linear warmup (ratio 0.03) into cosine decay (SGDR-style,
Loshchilov & Hutter 2016) for both CPT and SFT, and so does every trainer
here.  The decay ends at a learning rate of 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CosineSchedule:
    """Linear warmup to ``peak_lr`` then cosine decay to 0."""

    peak_lr: float
    total_steps: int
    warmup_ratio: float = 0.03

    def __post_init__(self) -> None:
        if self.total_steps <= 0:
            raise ValueError("total_steps must be positive")
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ValueError("warmup_ratio must be in [0, 1)")

    @property
    def warmup_steps(self) -> int:
        return int(round(self.total_steps * self.warmup_ratio))

    def lr(self, step: int) -> float:
        """Learning rate at 0-indexed optimizer step ``step``."""
        w = self.warmup_steps
        if w > 0 and step < w:
            return self.peak_lr * (step + 1) / w
        span = max(self.total_steps - w, 1)
        progress = min(max(step - w, 0) / span, 1.0)
        cos = 0.5 * (1.0 + math.cos(math.pi * progress))
        return self.peak_lr * cos
