"""The LLaMA feed-forward block: SwiGLU, no biases."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.model.layers import Linear, Module
from repro.model.workspace import workspace


def sigmoid(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``1 / (1 + exp(-x))`` as ``(1 + tanh(x / 2)) / 2``: tanh saturates
    where ``exp(-x)`` overflows (x < -88 in float32), in ``x``'s dtype;
    written into ``out`` when given."""
    s = np.multiply(x, 0.5, out=out)
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

    def __call__(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The pure call.  With ``out`` (prefill and batched scoring) the
        result is written there and the hidden state lives in the
        thread's workspace; without it (decode, whose hidden state is a
        few KB) the hidden state is fresh."""
        if out is None:
            return self.w2(self._gated(x))
        with workspace().scope() as ws:
            hidden = x.shape[:-1] + (self.w1.d_out,)
            gated = self._gated(
                x, out=ws.take(hidden, x.dtype), scratch=ws.take(hidden, x.dtype)
            )
            return self.w2(gated, out=out)

    def _gated(
        self,
        x: np.ndarray,
        *,
        out: Optional[np.ndarray] = None,
        scratch: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``silu(w1 x) * w3 x``, in ``out``, with ``scratch`` as scratch
        (fresh arrays where None)."""
        a = self.w1(x, out=out)
        s = sigmoid(a, out=scratch)
        a *= s  # silu(a)
        a *= self.w3(x, out=s)
        return a

    def forward(self, x: np.ndarray) -> np.ndarray:
        a = self.w1.forward(x)
        b = self.w3.forward(x)
        s = sigmoid(a)
        silu_a = np.multiply(a, s, out=a)
        self._cache = (b, s, silu_a)
        return self.w2.forward(silu_a * b)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        b, s, silu_a = self._cache
        d_gated = self.w2.backward(dout)
        # silu'(a) = s * (1 + a * (1 - s)) = s + silu(a) * (1 - s)
        d_silu = 1.0 - s
        d_silu *= silu_a
        d_silu += s
        d_b = d_gated * silu_a
        d_a = d_gated
        d_a *= b
        d_a *= d_silu
        dx = self.w1.backward(d_a)
        dx += self.w3.backward(d_b)
        self._cache = None
        return dx
