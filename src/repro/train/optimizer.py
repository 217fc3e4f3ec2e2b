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
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            if self.weight_decay > 0 and p.ndim > 1:
                p -= lr * self.weight_decay * p
            p -= lr * m_hat / (np.sqrt(v_hat) + self.eps)
