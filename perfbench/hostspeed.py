"""Put times measured on a shared host on a steady scale.

A shared host's speed drifts: over seconds to minutes it can run the
same work 20-40% slower or faster, with CPU time growing as fast as wall
time, so the drift is not visible as stolen time.  Runs of the same code
minutes apart then differ by more than any regression bound could allow.

:class:`HostSpeed` times a fixed reference step, a small numpy
transformer decode of the large tier's shape (d_model 128, 4 layers,
4 heads, a growing K/V cache), every :data:`EVERY_S` between units of
the program's work.  A run's times are multiplied, and its rates
divided, by ``NOMINAL_S / median reference time``: they read as if the
reference step had taken ``NOMINAL_S``.  On a 2-vCPU host, the time of
one identical serve burst repeated for minutes correlated 0.5-0.86 with
this step timed around it, but at most 0.34 with a plain matmul or
interpreter loop: the step has the program's mix of small matmuls,
cache concatenation and softmax.  It lives here, not in the program, so
no change to the program moves it.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List

import numpy as np

#: About the reference step's time on a 2-vCPU Xeon (2.0 GHz) host, one
#: BLAS thread.  Scaled figures read as if the step took this long.
NOMINAL_S = 3e-3

#: How often the reference step is timed while a workload runs.
EVERY_S = 0.5

#: Timed reference steps per tick (after one untimed step that refills
#: the caches the program's work evicted).
CALLS = 3

_D, _LAYERS, _HEADS, _FF, _VOCAB, _CTX, _STEPS = 128, 4, 4, 512, 1024, 96, 2
_rng = np.random.default_rng(0)
_LAYER_WEIGHTS = [
    tuple(
        _rng.standard_normal(shape) * 0.05
        for shape in ((_D, 3 * _D), (_D, _D), (_D, _FF), (_FF, _D))
    )
    for _ in range(_LAYERS)
]
_EMBED = _rng.standard_normal((_VOCAB, _D)) * 0.05
_UNEMBED = _rng.standard_normal((_D, _VOCAB)) * 0.05


def _norm(x: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + 1e-5)


def reference_step() -> int:
    """Greedy-decode :data:`_STEPS` tokens after a :data:`_CTX`-token cache."""
    hd = _D // _HEADS
    caches = [(np.zeros((_HEADS, _CTX, hd)), np.zeros((_HEADS, _CTX, hd))) for _ in range(_LAYERS)]
    token = 1
    for _ in range(_STEPS):
        x = _EMBED[token][None, :]
        for i, (w_qkv, w_out, w_up, w_down) in enumerate(_LAYER_WEIGHTS):
            q, k, v = np.split(_norm(x) @ w_qkv, 3, axis=-1)
            keys = np.concatenate([caches[i][0], k.reshape(_HEADS, 1, hd)], axis=1)
            values = np.concatenate([caches[i][1], v.reshape(_HEADS, 1, hd)], axis=1)
            caches[i] = (keys, values)
            scores = q.reshape(_HEADS, 1, hd) @ keys.transpose(0, 2, 1) / np.sqrt(hd)
            scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
            scores /= scores.sum(axis=-1, keepdims=True)
            x = x + (scores @ values).reshape(1, _D) @ w_out
            h = _norm(x) @ w_up
            h = 0.5 * h * (1.0 + np.tanh(0.79788456 * (h + 0.044715 * h**3)))
            x = x + h @ w_down
        token = int(np.argmax(_norm(x) @ _UNEMBED))
    return token


class HostSpeed:
    """Reference-step times taken through a run, and the scale they give."""

    def __init__(
        self,
        step: Callable[[], object] = reference_step,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.step = step
        self.clock = clock
        self.took: List[float] = []
        self.last = float("-inf")  # when the last tick ended

    def tick(self) -> None:
        self.step()
        for _ in range(CALLS):
            t0 = self.clock()
            self.step()
            self.took.append(self.clock() - t0)
        self.last = self.clock()

    def due(self) -> bool:
        return self.clock() - self.last >= EVERY_S

    def maybe_tick(self) -> None:
        if self.due():
            self.tick()

    def scale(self) -> float:
        """``NOMINAL_S`` over the median reference time: below 1 when the
        host ran slower than nominal."""
        if not self.took:
            raise ValueError("the reference step was never timed")
        return NOMINAL_S / statistics.median(self.took)
