"""Low-Rank Adaptation (LoRA).

The original AstroLLaMA (Nguyen et al. 2023, the "Abstract" model) was
trained with PEFT/LoRA rather than full fine-tuning; we reproduce that
recipe so the model-zoo entry for ``astrollama-2-7b-abstract`` genuinely
trains adapters over a frozen base.

``LoRALinear`` wraps a :class:`~repro.model.layers.Linear` and computes
``y = x W + x A B * (alpha / r)``; only ``A`` and ``B`` receive gradients.
``merge_lora`` folds the adapters back into the base weights for inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.model.layers import Linear, Module
from repro.model.transformer import TransformerLM


@dataclass(frozen=True)
class LoRAConfig:
    """Adapter hyperparameters (defaults follow the common r=8 recipe)."""

    rank: int = 8
    alpha: float = 16.0
    # Which projection names inside attention get adapters; q/v is the
    # classic LoRA paper choice used by AstroLLaMA.
    target_projections: Sequence[str] = ("wq", "wv")

    def __post_init__(self) -> None:
        if self.rank <= 0:
            raise ValueError("LoRA rank must be positive")

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank


class LoRALinear(Module):
    """A frozen Linear plus trainable low-rank residual."""

    def __init__(
        self, base: Linear, config: LoRAConfig, rng: np.random.Generator
    ) -> None:
        super().__init__()
        self.base = base
        self.config = config
        d_in, d_out = base.d_in, base.d_out
        self.d_in, self.d_out = d_in, d_out
        # Kaiming-ish init for A, zeros for B so the adapter starts as identity.
        self.register(
            "lora_A",
            (rng.normal(0.0, 1.0, size=(d_in, config.rank)) / np.sqrt(d_in)).astype(
                np.float32
            ),
        )
        self.register("lora_B", np.zeros((config.rank, d_out), dtype=np.float32))
        # Keep a reference to the frozen base weight (not registered as a
        # parameter here, so optimizers driven by named_parameters() of the
        # adapted model only ever see A and B).
        self.frozen_weight = base.params["weight"]

    def __call__(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The pure call, written into ``out`` when given."""
        return self._project(x, x @ self.params["lora_A"], out=out)

    def forward(self, x: np.ndarray) -> np.ndarray:
        xa = x @ self.params["lora_A"]
        self._cache = (x, xa)
        return self._project(x, xa)

    def _project(
        self, x: np.ndarray, xa: np.ndarray, *, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        y = np.matmul(x, self.frozen_weight, out=out)
        y += xa @ self.params["lora_B"] * self.config.scaling
        return y

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x, xa = self._cache
        s = self.config.scaling
        x2 = x.reshape(-1, self.d_in)
        xa2 = xa.reshape(-1, self.config.rank)
        d2 = dout.reshape(-1, self.d_out)
        d_xa = d2 @ self.params["lora_B"].T * s
        self.grads["lora_B"] += xa2.T @ d2 * s
        self.grads["lora_A"] += x2.T @ d_xa.reshape(-1, self.config.rank)
        dx = dout @ self.frozen_weight.T
        dx = dx + d_xa.reshape(x.shape[:-1] + (self.config.rank,)) @ self.params[
            "lora_A"
        ].T
        self._cache = None
        return dx

    def merged_weight(self) -> np.ndarray:
        return (
            self.frozen_weight
            + self.params["lora_A"] @ self.params["lora_B"] * self.config.scaling
        )


def apply_lora(
    model: TransformerLM, config: LoRAConfig, seed: int = 0
) -> List[LoRALinear]:
    """Swap targeted attention projections for LoRA-wrapped versions.

    After this call, ``model.named_parameters()`` exposes **only** adapter
    parameters for the wrapped projections (the frozen weights disappear
    from the registry), so any optimizer built on the model trains adapters
    alone — exactly the PEFT behaviour.
    """
    rng = np.random.default_rng(seed)
    adapters: List[LoRALinear] = []
    for i, block in enumerate(model.blocks):
        attn = block.attn
        new_children = []
        for name, child in attn._children:
            if name in config.target_projections and isinstance(child, Linear):
                wrapped = LoRALinear(child, config, rng)
                setattr(attn, name, wrapped)
                new_children.append((name, wrapped))
                adapters.append(wrapped)
            else:
                new_children.append((name, child))
        attn._children = new_children
    if not adapters:
        raise ValueError(
            f"no projections matched {config.target_projections!r}"
        )
    return adapters


def merge_lora(model: TransformerLM) -> int:
    """Fold all LoRA adapters into their base weights; returns merge count.

    The wrapped projections are restored to plain :class:`Linear` modules
    whose weights include the adapter residual.
    """
    merged = 0
    for block in model.blocks:
        attn = block.attn
        new_children = []
        for name, child in attn._children:
            if isinstance(child, LoRALinear):
                base = child.base
                base.params["weight"][...] = child.merged_weight()
                setattr(attn, name, base)
                new_children.append((name, base))
                merged += 1
            else:
                new_children.append((name, child))
        attn._children = new_children
    return merged
