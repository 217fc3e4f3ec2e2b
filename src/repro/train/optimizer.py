"""AdamW and global-norm clipping, in the one copy every training path uses.

AdamW's betas and eps are fixed at (0.9, 0.95) and 1e-8 (:data:`BETAS`,
:data:`EPS`).  :class:`AdamW` runs :func:`adamw_update` once per
parameter.  Parameters are updated in place (the model exposes
references, not copies), so an optimizer bound to a model at
construction keeps working as training proceeds.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

ParamDict = Dict[str, np.ndarray]

BETAS = (0.9, 0.95)
EPS = 1e-8


def grad_sq_sum(grads: ParamDict) -> float:
    """Sum of squared gradients, each parameter summed in float64 and the
    per-parameter sums added in dict order."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g.astype(np.float64) ** 2))
    return total


def clip_to_norm(grads: ParamDict, norm: float, max_norm: float) -> None:
    """Scale ``grads`` in place so that a global ``norm`` becomes at most
    ``max_norm`` (``max_norm <= 0`` disables clipping)."""
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for g in grads.values():
            g *= scale


def clip_grad_norm(grads: ParamDict, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm (useful for logging / divergence detection).
    """
    norm = math.sqrt(grad_sq_sum(grads))
    clip_to_norm(grads, norm, max_norm)
    return norm


def decays(shape: Tuple[int, ...]) -> bool:
    """Whether a parameter of this (unflattened) shape takes weight decay:
    matrices do, 1-D RMSNorm gains do not (as in LMFlow and friends)."""
    return len(shape) > 1


def adamw_update(
    p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
    lr: float, t: int, weight_decay: float,
) -> None:
    """AdamW step ``t`` (1-based) on equal-shape arrays, in place on ``p``,
    ``m`` and ``v``.  The caller passes ``weight_decay`` 0 for a parameter
    :func:`decays` exempts.
    """
    beta1, beta2 = BETAS
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    # two temporaries, each reused for every term that fits it
    a = g * (1 - beta1)
    m *= beta1
    m += a
    np.multiply(g, g, out=a)
    a *= 1 - beta2
    v *= beta2
    v += a
    np.divide(v, bc2, out=a)  # v_hat
    np.sqrt(a, out=a)
    a += EPS
    update = m / bc1  # m_hat
    update *= lr
    update /= a  # lr * m_hat / (sqrt(v_hat) + eps)
    if weight_decay > 0:
        np.multiply(p, lr * weight_decay, out=a)
        p -= a
    p -= update


class AdamW:
    """Adam with decoupled weight decay (Loshchilov & Hutter) over a
    (params, grads) pair of name-aligned dicts."""

    def __init__(
        self,
        params: ParamDict,
        grads: ParamDict,
        weight_decay: float = 0.0,
    ) -> None:
        if set(params) != set(grads):
            raise KeyError("params and grads must have identical keys")
        self.params = params
        self.grads = grads
        self.step_count = 0
        self.weight_decay = weight_decay
        self.m: ParamDict = {k: np.zeros_like(v) for k, v in params.items()}
        self.v: ParamDict = {k: np.zeros_like(v) for k, v in params.items()}

    def moments(self) -> ParamDict:
        """Both moment buffers, keyed ``m::name`` then ``v::name`` (live
        arrays: writing into them restores optimizer state)."""
        out = {f"m::{k}": a for k, a in self.m.items()}
        out.update((f"v::{k}", a) for k, a in self.v.items())
        return out

    def step(self, lr: float) -> None:
        self.step_count += 1
        for key, p in self.params.items():
            adamw_update(
                p, self.grads[key], self.m[key], self.v[key], lr,
                self.step_count, self.weight_decay if decays(p.shape) else 0.0,
            )
