"""The LLaMA feed-forward block: SwiGLU, no biases."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.model.layers import Linear, Module


def silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def silu_grad(x: np.ndarray) -> np.ndarray:
    s = 1.0 / (1.0 + np.exp(-x))
    return s * (1.0 + x * (1.0 - s))


class SwiGLU(Module):
    """LLaMA MLP: ``w2( silu(w1 x) * w3 x )``, no biases."""

    def __init__(
        self,
        d_model: int,
        d_ff: int,
        rng: np.random.Generator,
        init_std: float = 0.02,
        out_init_std: Optional[float] = None,
    ) -> None:
        super().__init__()
        self.w1 = self.add_child("w1", Linear(d_model, d_ff, rng, init_std=init_std))
        self.w3 = self.add_child("w3", Linear(d_model, d_ff, rng, init_std=init_std))
        self.w2 = self.add_child(
            "w2", Linear(d_ff, d_model, rng, init_std=out_init_std or init_std)
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        a = self.w1.forward(x)
        b = self.w3.forward(x)
        gated = silu(a) * b
        self._cache = (a, b)
        return self.w2.forward(gated)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        a, b = self._cache
        d_gated = self.w2.backward(dout)
        d_a = d_gated * b * silu_grad(a)
        d_b = d_gated * silu(a)
        dx = self.w1.backward(d_a) + self.w3.backward(d_b)
        self._cache = None
        return dx
