"""The AdamW optimizer over named parameter/gradient dicts.

Parameters are updated in place (the model exposes references, not copies),
so an optimizer bound to a model at construction keeps working as training
proceeds.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

ParamDict = Dict[str, np.ndarray]


def clip_grad_norm(grads: ParamDict, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm (useful for logging / divergence detection).
    """
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for g in grads.values():
            g *= scale
    return norm


class AdamW:
    """Adam with decoupled weight decay (Loshchilov & Hutter).

    Updates a (params, grads) pair of name-aligned dicts.  Weight decay is
    skipped for 1-D parameters (the RMSNorm gains), the standard practice
    that LMFlow and friends follow.
    """

    def __init__(
        self,
        params: ParamDict,
        grads: ParamDict,
        betas: tuple = (0.9, 0.95),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        if set(params) != set(grads):
            raise KeyError("params and grads must have identical keys")
        self.params = params
        self.grads = grads
        self.step_count = 0
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.m: ParamDict = {k: np.zeros_like(v) for k, v in params.items()}
        self.v: ParamDict = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, lr: float) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for key, p in self.params.items():
            g = self.grads[key]
            m, v = self.m[key], self.v[key]
            # two temporaries, each reused for every term that fits it
            a = g * (1 - self.beta1)
            m *= self.beta1
            m += a
            np.multiply(g, g, out=a)
            a *= 1 - self.beta2
            v *= self.beta2
            v += a
            np.divide(v, bc2, out=a)  # v_hat
            np.sqrt(a, out=a)
            a += self.eps
            update = m / bc1  # m_hat
            update *= lr
            update /= a  # lr * m_hat / (sqrt(v_hat) + eps)
            if self.weight_decay > 0 and p.ndim > 1:
                np.multiply(p, lr * self.weight_decay, out=a)
                p -= a
            p -= update
