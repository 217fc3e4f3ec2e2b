"""Tensor (intra-layer) parallelism: a Megatron-style sharded MLP.

The 70B model cannot fit one GPU; serving it (the paper's 64-GPU-hour
inference bill) shards every weight matrix across a tensor-parallel group.
The two canonical shardings split a ``(d_in, d_out)`` weight along its
*output* axis (:func:`shard_columns`: each rank computes a slice of the
outputs) or its *input* axis (:func:`shard_rows`: each rank computes a
partial product over its input slice, combined by all-reduce).  The
classic transformer placement, a column-sharded up-projection feeding a
row-sharded down-projection, needs exactly one all-reduce per MLP, and
:class:`TensorParallelMLPTrainer` trains it end to end over simulated
ranks.

Like the rest of :mod:`repro.parallel`, arithmetic is real and timing is
simulated via the communicator's cost model.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.parallel.collectives import Communicator
from repro.train.optimizer import AdamW, clip_to_norm, grad_sq_sum
from repro.utils.rng import new_rng


def shard_columns(weight: np.ndarray, parts: int) -> List[np.ndarray]:
    """Split a (d_in, d_out) weight into ``parts`` output-column shards."""
    if weight.shape[1] % parts != 0:
        raise ValueError(
            f"output dim {weight.shape[1]} not divisible by {parts}"
        )
    return [s.copy() for s in np.split(weight, parts, axis=1)]


def shard_rows(weight: np.ndarray, parts: int) -> List[np.ndarray]:
    """Split a (d_in, d_out) weight into ``parts`` input-row shards."""
    if weight.shape[0] % parts != 0:
        raise ValueError(f"input dim {weight.shape[0]} not divisible by {parts}")
    return [s.copy() for s in np.split(weight, parts, axis=0)]


class TensorParallelMLPTrainer:
    """Trains the canonical TP MLP (``relu(x W_up) W_down``) end to end.

    The forward shards ``W_up`` by columns and ``W_down`` by rows (the
    intermediate stays sharded end to end), with an exact analytic
    backward: every rank holds one column shard of ``W_up`` and the
    matching row shard of ``W_down`` plus its own AdamW moment shards.
    Two collectives sit in the numeric path — the all-reduce of output
    partials in the forward, and the all-reduce of per-rank squared
    gradient sums that produces the *global* clip norm — which is exactly
    where the fault injector hooks transient collective failures.

    Gradients (MSE loss, mean over elements)::

        h_r = x @ Wup_r          a_r = relu(h_r)
        y   = sum_r a_r @ Wdown_r                (all-reduce)
        dWdown_r = a_r^T @ dy                    (local)
        dh_r = (dy @ Wdown_r^T) * [h_r > 0]      (local)
        dWup_r = x^T @ dh_r                      (local)
    """

    def __init__(
        self,
        d_in: int,
        d_hidden: int,
        d_out: int,
        comm: Communicator,
        seed: int = 0,
    ) -> None:
        if d_hidden % comm.size != 0:
            raise ValueError(
                f"d_hidden {d_hidden} not divisible by tp={comm.size}"
            )
        self.comm = comm
        rng = new_rng(seed, "tp_mlp")
        w_up = rng.standard_normal((d_in, d_hidden)) * (1.0 / np.sqrt(d_in))
        w_down = rng.standard_normal((d_hidden, d_out)) * (1.0 / np.sqrt(d_hidden))
        up_shards = shard_columns(w_up, comm.size)
        down_shards = shard_rows(w_down, comm.size)
        self.shard_params: List[Dict[str, np.ndarray]] = [
            {"w_up": u, "w_down": d} for u, d in zip(up_shards, down_shards)
        ]
        self.shard_grads: List[Dict[str, np.ndarray]] = [
            {k: np.zeros_like(v) for k, v in p.items()} for p in self.shard_params
        ]
        self.optimizers: List[AdamW] = [
            AdamW(p, g) for p, g in zip(self.shard_params, self.shard_grads)
        ]
        self._pre: List[np.ndarray] = []
        self._act: List[np.ndarray] = []
        self._x: Optional[np.ndarray] = None

    @property
    def step_count(self) -> int:
        return self.optimizers[0].step_count

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Replicated output; one all-reduce of the rank partial products."""
        self._x = x
        self._pre = [x @ p["w_up"] for p in self.shard_params]
        self._act = [np.maximum(h, 0.0) for h in self._pre]
        partials = [a @ p["w_down"] for a, p in zip(self._act, self.shard_params)]
        return self.comm.all_reduce(partials, "sum")[0]

    def compute_gradients(self, x: np.ndarray, target: np.ndarray) -> float:
        """MSE loss + exact sharded backward; grads left in the shards."""
        y = self.forward(x)
        diff = y - target
        loss = float(np.mean(diff**2))
        dy = 2.0 * diff / diff.size
        for pre, act, params, grads in zip(
            self._pre, self._act, self.shard_params, self.shard_grads
        ):
            grads["w_down"][...] = act.reshape(-1, act.shape[-1]).T @ dy.reshape(
                -1, dy.shape[-1]
            )
            dh = (dy @ params["w_down"].T) * (pre > 0)
            grads["w_up"][...] = x.reshape(-1, x.shape[-1]).T @ dh.reshape(
                -1, dh.shape[-1]
            )
        return loss

    def grad_norm(self) -> float:
        """Global L2 norm over every shard (one scalar all-reduce)."""
        sq_sums = [np.array([grad_sq_sum(grads)]) for grads in self.shard_grads]
        total = self.comm.all_reduce(sq_sums, "sum")[0]
        return math.sqrt(total[0])

    def apply_gradients(self, lr: float) -> float:
        """Global-norm clip to 1 then the per-shard AdamW step (no weight
        decay); returns the pre-clip norm."""
        norm = self.grad_norm()
        for grads, optimizer in zip(self.shard_grads, self.optimizers):
            clip_to_norm(grads, norm, 1.0)
            optimizer.step(lr)
        return norm

