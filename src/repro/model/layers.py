"""Differentiable primitive layers (manual forward/backward).

Every layer has two ways to run:

* ``layer(x)``, the pure call, returns the output and writes nothing on
  the layer: inference (prefill, batched scoring, decode) runs only pure
  calls, so it leaves no activations behind and cannot disturb a training
  step in flight;
* ``forward(x)``, the training call, stashes whatever the backward pass
  needs on ``self._cache`` and runs the same float operations as the pure
  call, so both give the same bits;
* ``backward(dout)`` consumes the stash, **accumulates** parameter
  gradients into ``self.grads`` and returns the gradient w.r.t. the input;
* ``named_parameters()`` / ``named_gradients()`` expose flat name->array
  dicts (arrays are referenced, not copied, so optimizers update in place).

Gradient buffers materialize, as zeros, on first access to ``grads``: the
first ``backward``, ``named_gradients()``, ``zero_grad()`` or an optimizer
bound to them.  A model that only ever runs inference never allocates
them.  Gradients accumulate across backward calls until
:meth:`Module.zero_grad`; this is what makes gradient accumulation in the
trainer trivial.

The training step writes in place only into arrays it has just allocated
itself (a GEMM result, a fresh difference), and each in-place rewrite runs
the same float operations, element for element and in the same order, as
the expression it replaces, so the results are bit-identical.  It never
writes into an array a layer keeps in ``_cache`` for backward, an array a
KV cache stores, or an argument it was passed.

Inference writes in place too, under the same rule, and also into
workspace buffers it took itself (:mod:`repro.model.workspace`): the pure
calls of ``Linear``, ``Embedding``, ``RMSNorm`` and ``SwiGLU`` accept
``out=``, and prefill and batched scoring run every temporary, and the
packed residual stream, in views of the thread's workspace, so a warm
call faults no page in.  Whatever an entry point returns, stores in a
cache or hands a caller is a fresh array.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np


def assign_state(
    live: Mapping[str, np.ndarray], state: Mapping[str, np.ndarray]
) -> None:
    """Copy ``state`` into the ``live`` arrays in place, strictly.

    ``state`` must hold exactly ``live``'s names, each with its live
    array's shape and dtype: nothing broadcasts, nothing is cast, no key
    is ignored.  Every check runs before the first write, so a mismatch
    raises (``KeyError`` for names, ``ValueError`` for shapes and dtypes)
    with nothing loaded.  Module loads and checkpoint restores both go
    through here.
    """
    missing = set(live) - set(state)
    extra = set(state) - set(live)
    if missing or extra:
        raise KeyError(
            f"state mismatch: missing={sorted(missing)} extra={sorted(extra)}"
        )
    for key, arr in live.items():
        src = state[key]
        if src.shape != arr.shape or src.dtype != arr.dtype:
            raise ValueError(
                f"{key}: {src.dtype}{src.shape} does not match the live "
                f"{arr.dtype}{arr.shape}"
            )
    for key, arr in live.items():
        arr[...] = state[key]


class Module:
    """Minimal module base: parameter/gradient registry plus child recursion."""

    def __init__(self) -> None:
        self.params: Dict[str, np.ndarray] = {}
        self._grads: Dict[str, np.ndarray] = {}
        self._children: List[Tuple[str, "Module"]] = []
        self._cache: Optional[tuple] = None

    # -- registry ----------------------------------------------------------
    def register(self, name: str, value: np.ndarray) -> np.ndarray:
        self.params[name] = value
        return value

    @property
    def grads(self) -> Dict[str, np.ndarray]:
        """Gradient buffers by parameter name, zeros until a backward
        accumulates into them; made on first access, then kept."""
        for name, value in self.params.items():
            if name not in self._grads:
                self._grads[name] = np.zeros_like(value)
        return self._grads

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
        """Copy ``state`` into this module's parameters in place
        (strict: see :func:`assign_state`)."""
        assign_state(self.named_parameters(), state)

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

    def __call__(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``x @ W``, written into ``out`` when given."""
        return _matmul_rows(x, self.params["weight"], out=out)

    def forward(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        self._cache = (x,)
        return self(x, out=out)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        (x,) = self._cache
        x2 = x.reshape(-1, self.d_in)
        d2 = dout.reshape(-1, self.d_out)
        self.grads["weight"] += x2.T @ d2
        return _matmul_rows(dout, self.params["weight"].T)


# OpenBLAS (0.3.31, AVX-512) multiplies a matrix product with
# M * N * K <= 100**3 in a small-matrix kernel, whose bits differ from the
# blocked kernel's
_SMALL_GEMM = 100**3


def _matmul_rows(
    x: np.ndarray, w: np.ndarray, *, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``x @ w`` as one GEMM over all rows of a contiguous ``x``, written
    into ``out`` (C-contiguous) when given.

    NumPy runs a stacked ``@`` as one GEMM per leading index.  When every
    one of those GEMMs is past BLAS's small-matrix kernel, one GEMM over
    all rows gives each row the same bits, in one call.  Smaller stacks,
    and one-row matrices (decode), keep their own calls.
    """
    if x.ndim > 2 and x.flags.c_contiguous:
        rows, k = x.shape[-2:]
        if rows > 1 and rows * k * w.shape[1] > _SMALL_GEMM:
            flat = None if out is None else out.reshape(-1, w.shape[1])
            y = np.matmul(x.reshape(-1, k), w, out=flat)
            return y.reshape(x.shape[:-1] + w.shape[1:])
    return x @ w if out is None else np.matmul(x, w, out=out)


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

    def __call__(self, ids: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The rows of ``W`` at ``ids``, written into ``out`` when given."""
        ids = np.asarray(ids)
        if ids.max(initial=0) >= self.vocab_size or ids.min(initial=0) < 0:
            raise IndexError("token id out of range")
        # in range, checked above; "clip" spares the copy "raise" makes
        return np.take(self.params["weight"], ids, axis=0, out=out, mode="clip")

    def forward(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        out = self(ids)
        self._cache = (ids,)
        return out

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

    def __call__(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``g * x / rms(x)``, written into ``out`` when given."""
        return self._normalize(x, out=out)[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        y, inv_rms = self._normalize(x)
        self._cache = (x, inv_rms)
        return y

    def _normalize(
        self, x: np.ndarray, *, out: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(y, 1 / rms(x))``, ``y`` written into ``out`` when given (which
        holds ``x * x`` first)."""
        # 1 / sqrt(mean(x^2) + eps) without np.mean's Python wrapper: the
        # same sum, then a division by the row length.  np.mean divides in
        # float64 and rounds to float32; one float32 division gives the same
        # value, since float64 has more than 2 * 24 + 2 bits.
        inv_rms = np.add.reduce(np.multiply(x, x, out=out), axis=-1, keepdims=True)
        inv_rms /= x.shape[-1]
        inv_rms += self.eps
        np.sqrt(inv_rms, out=inv_rms)
        np.divide(1.0, inv_rms, out=inv_rms)
        y = np.multiply(x, inv_rms, out=out)
        y *= self.params["gain"]
        return y, inv_rms

    def backward(self, dout: np.ndarray) -> np.ndarray:
        x, inv_rms = self._cache
        g = self.params["gain"]
        d = x.shape[-1]
        buf = dout * x
        buf *= inv_rms
        self.grads["gain"] += np.sum(buf, axis=tuple(range(x.ndim - 1)))
        dg = np.multiply(dout, g, out=buf)
        # d/dx [x_i * r] with r = (mean(x^2)+eps)^(-1/2):
        #   dx = r * dg - x * r^3 / d * sum(dg * x)
        t = dg * x
        inner = np.sum(t, axis=-1, keepdims=True)
        np.multiply(x, inv_rms**3, out=t)
        t *= inner
        t /= d
        dg *= inv_rms
        dg -= t
        return dg


def softmax(
    x: np.ndarray, axis: int = -1, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Numerically stable softmax; ``out=x`` overwrites ``x`` with it."""
    e = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e
