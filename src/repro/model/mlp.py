"""The LLaMA feed-forward block: SwiGLU, no biases."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.model.layers import Linear, Module


def sigmoid(x: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-x))`` as ``(1 + tanh(x / 2)) / 2``: tanh saturates
    where ``exp(-x)`` overflows (x < -88 in float32), in ``x``'s dtype."""
    s = x * 0.5
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5
    return s


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
        s = sigmoid(a)
        silu_a = a * s
        self._cache = (b, s, silu_a)
        return self.w2.forward(silu_a * b)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        b, s, silu_a = self._cache
        d_gated = self.w2.backward(dout)
        # silu'(a) = s * (1 + a * (1 - s)) = s + silu(a) * (1 - s)
        d_a = d_gated * b * (s + silu_a * (1.0 - s))
        d_b = d_gated * silu_a
        dx = self.w1.backward(d_a) + self.w3.backward(d_b)
        self._cache = None
        return dx
