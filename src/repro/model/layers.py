"""Differentiable primitive layers (manual forward/backward).

Every layer follows the same contract:

* ``forward(x)`` returns the output and stashes whatever the backward pass
  needs on ``self._cache``;
* ``backward(dout)`` consumes the cache, **accumulates** parameter gradients
  into ``self.grads`` and returns the gradient w.r.t. the input;
* ``named_parameters()`` / ``named_gradients()`` expose flat name->array
  dicts (arrays are referenced, not copied, so optimizers update in place).

Gradients accumulate across backward calls until :meth:`Module.zero_grad`;
this is what makes gradient accumulation in the trainer trivial.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np


class Module:
    """Minimal module base: parameter/gradient registry plus child recursion."""

    def __init__(self) -> None:
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}
        self._children: List[Tuple[str, "Module"]] = []
        self._cache: Optional[tuple] = None

    # -- registry ----------------------------------------------------------
    def register(self, name: str, value: np.ndarray) -> np.ndarray:
        self.params[name] = value
        self.grads[name] = np.zeros_like(value)
        return value

    def add_child(self, name: str, child: "Module") -> "Module":
        self._children.append((name, child))
        return child

    def modules(self) -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(qualified_name, module)`` for self and all descendants."""
        yield "", self
        for name, child in self._children:
            for sub_name, sub in child.modules():
                qual = f"{name}.{sub_name}" if sub_name else name
                yield qual, sub

    def named_parameters(self) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for prefix, module in self.modules():
            for name, arr in module.params.items():
                key = f"{prefix}.{name}" if prefix else name
                out[key] = arr
        return out

    def named_gradients(self) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for prefix, module in self.modules():
            for name, arr in module.grads.items():
                key = f"{prefix}.{name}" if prefix else name
                out[key] = arr
        return out

    def zero_grad(self) -> None:
        for _, module in self.modules():
            for g in module.grads.values():
                g.fill(0.0)

    def num_parameters(self) -> int:
        return sum(int(p.size) for p in self.named_parameters().values())

    def load_state(self, state: Dict[str, np.ndarray]) -> None:
        """Copy values from ``state`` into this module's parameters in place."""
        own = self.named_parameters()
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise KeyError(
                f"state mismatch: missing={sorted(missing)} extra={sorted(extra)}"
            )
        for key, arr in own.items():
            src = state[key]
            if src.shape != arr.shape:
                raise ValueError(
                    f"shape mismatch for {key}: {src.shape} vs {arr.shape}"
                )
            arr[...] = src

    def state_copy(self) -> Dict[str, np.ndarray]:
        """Deep copy of all parameters (for checkpoints / EMA / diffing)."""
        return {k: v.copy() for k, v in self.named_parameters().items()}


class Linear(Module):
    """Bias-free linear map ``y = x @ W`` over the last axis.

    ``x`` may have any number of leading batch axes; gradients are reduced
    over all of them.
    """

    def __init__(
        self,
        d_in: int,
        d_out: int,
        rng: np.random.Generator,
        init_std: float = 0.02,
    ) -> None:
        super().__init__()
        self.d_in, self.d_out = d_in, d_out
        self.register(
            "weight", rng.normal(0.0, init_std, size=(d_in, d_out)).astype(np.float32)
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = (x,)
        return x @ self.params["weight"]

    def backward(self, dout: np.ndarray) -> np.ndarray:
        (x,) = self._cache
        x2 = x.reshape(-1, self.d_in)
        d2 = dout.reshape(-1, self.d_out)
        self.grads["weight"] += x2.T @ d2
        return dout @ self.params["weight"].T


class Embedding(Module):
    """Token embedding lookup ``y = W[ids]``."""

    def __init__(
        self,
        vocab_size: int,
        d_model: int,
        rng: np.random.Generator,
        init_std: float = 0.02,
    ) -> None:
        super().__init__()
        self.vocab_size, self.d_model = vocab_size, d_model
        self.register(
            "weight",
            rng.normal(0.0, init_std, size=(vocab_size, d_model)).astype(np.float32),
        )

    def forward(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        if ids.max(initial=0) >= self.vocab_size or ids.min(initial=0) < 0:
            raise IndexError("token id out of range")
        self._cache = (ids,)
        return self.params["weight"][ids]

    def backward(self, dout: np.ndarray) -> None:
        (ids,) = self._cache
        np.add.at(
            self.grads["weight"], ids.reshape(-1), dout.reshape(-1, self.d_model)
        )
        return None  # ids are not differentiable


class RMSNorm(Module):
    """LLaMA-style RMS normalization: ``y = g * x / rms(x)``."""

    def __init__(self, d_model: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.register("gain", np.ones(d_model, dtype=np.float32))

    def forward(self, x: np.ndarray) -> np.ndarray:
        inv_rms = 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + self.eps)
        self._cache = (x, inv_rms)
        return x * inv_rms * self.params["gain"]

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x, inv_rms = self._cache
        g = self.params["gain"]
        d = x.shape[-1]
        self.grads["gain"] += np.sum(dout * x * inv_rms, axis=tuple(range(x.ndim - 1)))
        dg = dout * g
        # d/dx [x_i * r] with r = (mean(x^2)+eps)^(-1/2):
        #   dx = r * dg - x * r^3 / d * sum(dg * x)
        inner = np.sum(dg * x, axis=-1, keepdims=True)
        return inv_rms * dg - x * (inv_rms**3) * inner / d


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
