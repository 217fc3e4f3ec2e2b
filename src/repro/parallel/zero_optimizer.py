"""ZeRO stage-1 optimizer-state sharding (DeepSpeed-style).

Full-parameter AdamW keeps ~16 bytes of state per parameter — the reason a
70B model cannot train on one node and the reason frameworks like the
paper's LMFlow delegate to ZeRO.  Stage 1 shards the *optimizer state*
(moments + master update) across data-parallel ranks:

1. every rank holds full parameters and computes full gradients;
2. gradients are **reduce-scattered**: rank ``r`` receives the averaged
   gradient for its parameter shard only;
3. each rank applies AdamW to its shard (1/R of the moment memory);
4. updated shards are **all-gathered** back into full parameters.

Step 3 is the dense optimizer's own :func:`~repro.train.optimizer.adamw_update`
applied to each parameter's slice of the shard, with the same
:func:`~repro.train.optimizer.decays` rule judged on the parameter's
unflattened shape, so the result is bit-identical to plain data-parallel
AdamW on the mean gradients (the tests assert ``array_equal``) with the
optimizer memory divided by the rank count — which
:func:`zero1_memory_per_rank` quantifies against the cluster model's
node-memory threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.parallel.collectives import Communicator
from repro.train.optimizer import adamw_update, decays

ParamDict = Dict[str, np.ndarray]


def flatten_params(params: ParamDict) -> Tuple[np.ndarray, List[Tuple[str, int, tuple]]]:
    """Concatenate parameters into one vector, in their dtype, + a layout
    for unflattening."""
    layout: List[Tuple[str, int, tuple]] = []
    chunks: List[np.ndarray] = []
    offset = 0
    for key in sorted(params):
        arr = params[key]
        layout.append((key, offset, arr.shape))
        chunks.append(arr.reshape(-1))
        offset += arr.size
    flat = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.float32)
    return flat, layout


def unflatten_into(flat: np.ndarray, layout: Sequence[Tuple[str, int, tuple]], params: ParamDict) -> None:
    """Write a flat vector back into the parameter arrays, in place."""
    for key, offset, shape in layout:
        size = int(np.prod(shape))
        params[key][...] = flat[offset : offset + size].reshape(shape)


@dataclass
class Zero1AdamW:
    """Sharded AdamW over a communicator's ranks.

    Shards are equal-size contiguous slices of the flattened parameter
    vector (padded to a multiple of the world size).  The object owns the
    per-rank moment buffers; parameters live with the caller.
    """

    comm: Communicator
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        self.step_count = 0
        self._m_shards: Optional[List[np.ndarray]] = None
        self._v_shards: Optional[List[np.ndarray]] = None
        self._padded = 0

    # ------------------------------------------------------------------
    def _ensure_state(self, flat: np.ndarray) -> None:
        """Moment shards for ``flat``'s size, in its dtype."""
        world = self.comm.size
        self._padded = ((flat.size + world - 1) // world) * world
        shard = self._padded // world
        if self._m_shards is None:
            self._m_shards = [np.zeros(shard, dtype=flat.dtype) for _ in range(world)]
            self._v_shards = [np.zeros(shard, dtype=flat.dtype) for _ in range(world)]

    def _pad(self, flat: np.ndarray) -> np.ndarray:
        if flat.size == self._padded:
            return flat
        out = np.zeros(self._padded, dtype=flat.dtype)
        out[: flat.size] = flat
        return out

    # ------------------------------------------------------------------
    def step(
        self,
        params: ParamDict,
        per_rank_grads: Sequence[ParamDict],
        lr: float,
    ) -> None:
        """One sharded step.

        ``per_rank_grads`` holds each simulated rank's local gradients
        (same keys/shapes as ``params``); they are averaged via
        reduce-scatter, shards updated locally, and parameters rebuilt via
        all-gather — every rank ends with identical full parameters.
        """
        if len(per_rank_grads) != self.comm.size:
            raise ValueError("need one gradient dict per rank")
        flat_param, layout = flatten_params(params)
        self._ensure_state(flat_param)
        padded_grads = []
        for grads in per_rank_grads:
            flat_grad, grad_layout = flatten_params(grads)
            if [k for k, _, _ in grad_layout] != [k for k, _, _ in layout]:
                raise KeyError("gradient keys do not match parameters")
            padded_grads.append(self._pad(flat_grad))
        grad_shards = self.comm.reduce_scatter(padded_grads, op="mean")

        self.step_count += 1
        # flat_param is a fresh copy, so each rank updates its shard in place
        param_shards = np.split(self._pad(flat_param), self.comm.size)
        for r, (p, g) in enumerate(zip(param_shards, grad_shards)):
            m, v = self._m_shards[r], self._v_shards[r]
            # each parameter's part of this shard; padding is never updated
            for _, offset, shape in layout:
                a = max(offset - r * p.size, 0)
                b = min(offset + int(np.prod(shape)) - r * p.size, p.size)
                if a < b:
                    adamw_update(
                        p[a:b], g[a:b], m[a:b], v[a:b], lr, self.step_count,
                        self.weight_decay if decays(shape) else 0.0,
                    )
        gathered = self.comm.all_gather(param_shards)[0]
        unflatten_into(gathered[: flat_param.size], layout, params)

    # ------------------------------------------------------------------
    def state_bytes_per_rank(self) -> int:
        """Moment memory each rank holds (the ZeRO-1 saving)."""
        if self._m_shards is None:
            return 0
        return int(self._m_shards[0].nbytes + self._v_shards[0].nbytes)


def zero1_memory_per_rank(
    n_params: float, world: int, bytes_weights: float = 2.0, bytes_moments: float = 8.0
) -> float:
    """Training-state bytes per rank under ZeRO-1.

    Weights (and gradients) stay replicated; the two fp32 Adam moments
    shard.  Compare against the dense 16 bytes/param that the cluster
    model's single-node threshold uses.
    """
    if world < 1:
        raise ValueError("world must be >= 1")
    replicated = n_params * (bytes_weights * 2)  # weights + grads
    sharded = n_params * bytes_moments / world
    return replicated + sharded
