"""Pipeline parallelism: schedules with bubble accounting + an exact executor.

Two layers:

1. **Schedule simulation** — :func:`gpipe_schedule` and
   :func:`one_f_one_b_schedule` build per-stage timelines of forward/backward
   ops for ``m`` microbatches over ``s`` stages, verify dependency
   correctness, and compute makespan/bubble fraction under unit op costs
   (backward = 2x forward, the usual accounting).  This regenerates the
   classic results: GPipe bubble ``(s-1)/(m+s-1)``; 1F1B has the same bubble
   but bounded activation memory (``s`` in-flight microbatches instead of
   ``m``).

2. **Exact executor** — :class:`PipelinedModel` partitions a trained
   :class:`~repro.model.transformer.TransformerLM` into stage submodules and
   runs microbatched forward/backward, moving every stage boundary through
   its communicator, whose accumulated gradients are bit-identical to
   monolithic training (asserted by tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.model.transformer import TransformerLM
from repro.parallel.collectives import Communicator
from repro.parallel.mesh import DeviceMesh


@dataclass(frozen=True)
class PipelineOp:
    """One scheduled cell: stage executes fwd/bwd of one microbatch."""

    stage: int
    microbatch: int
    kind: str  # "F" or "B"


@dataclass
class PipelineSchedule:
    """A per-stage ordered op list plus derived timing quantities."""

    n_stages: int
    n_microbatches: int
    per_stage_ops: List[List[PipelineOp]]
    name: str

    def validate(self) -> None:
        """Check precedence: F(s,i) needs F(s-1,i); B(s,i) needs B(s+1,i)
        and F(s,i); each stage runs each op exactly once."""
        seen: Dict[Tuple[int, int, str], int] = {}
        # assign global time slots: simulate greedy execution
        times = self._op_completion_slots()
        for (stage, mb, kind), t in times.items():
            seen[(stage, mb, kind)] = t
        for s in range(self.n_stages):
            for i in range(self.n_microbatches):
                if (s, i, "F") not in seen or (s, i, "B") not in seen:
                    raise AssertionError(f"missing op at stage {s} microbatch {i}")
                if s > 0 and seen[(s, i, "F")] <= seen[(s - 1, i, "F")]:
                    raise AssertionError(
                        f"F({s},{i}) ran before its upstream F({s - 1},{i})"
                    )
                if s < self.n_stages - 1 and seen[(s, i, "B")] <= seen[(s + 1, i, "B")]:
                    raise AssertionError(
                        f"B({s},{i}) ran before its downstream B({s + 1},{i})"
                    )
                if seen[(s, i, "B")] <= seen[(s, i, "F")]:
                    raise AssertionError(f"B({s},{i}) ran before F({s},{i})")

    def _op_completion_slots(
        self, fwd_cost: float = 1.0, bwd_cost: float = 2.0
    ) -> Dict[Tuple[int, int, str], float]:
        """Event-driven simulation: each stage executes its op list in order,
        waiting for cross-stage dependencies; returns completion times."""
        done: Dict[Tuple[int, int, str], float] = {}
        stage_time = [0.0] * self.n_stages
        cursors = [0] * self.n_stages
        total_ops = sum(len(ops) for ops in self.per_stage_ops)
        executed = 0
        while executed < total_ops:
            progressed = False
            for s in range(self.n_stages):
                while cursors[s] < len(self.per_stage_ops[s]):
                    op = self.per_stage_ops[s][cursors[s]]
                    dep: Optional[Tuple[int, int, str]] = None
                    if op.kind == "F" and s > 0:
                        dep = (s - 1, op.microbatch, "F")
                    elif op.kind == "B":
                        if s < self.n_stages - 1:
                            dep = (s + 1, op.microbatch, "B")
                    ready_at = stage_time[s]
                    if dep is not None:
                        if dep not in done:
                            break  # blocked; try other stages
                        ready_at = max(ready_at, done[dep])
                    if op.kind == "B" and (s, op.microbatch, "F") in done:
                        ready_at = max(ready_at, done[(s, op.microbatch, "F")])
                    cost = fwd_cost if op.kind == "F" else bwd_cost
                    finish = ready_at + cost
                    done[(s, op.microbatch, op.kind)] = finish
                    stage_time[s] = finish
                    cursors[s] += 1
                    executed += 1
                    progressed = True
            if not progressed:
                raise AssertionError("schedule deadlocked (circular dependency)")
        return done

    def makespan(self, fwd_cost: float = 1.0, bwd_cost: float = 2.0) -> float:
        """Completion time of the last op under the unit-cost model."""
        done = self._op_completion_slots(fwd_cost, bwd_cost)
        return max(done.values())

    def bubble_fraction(self, fwd_cost: float = 1.0, bwd_cost: float = 2.0) -> float:
        """Idle fraction: 1 - (ideal busy time) / (stages * makespan)."""
        busy_per_stage = self.n_microbatches * (fwd_cost + bwd_cost)
        span = self.makespan(fwd_cost, bwd_cost)
        return 1.0 - busy_per_stage / span

    def peak_in_flight(self) -> int:
        """Max number of microbatches any stage holds activations for.

        A stage accumulates an activation at each F and releases it at the
        matching B; the peak of that counter is the activation-memory
        watermark that distinguishes 1F1B from GPipe.
        """
        peak = 0
        for ops in self.per_stage_ops:
            held = 0
            for op in ops:
                held += 1 if op.kind == "F" else -1
                peak = max(peak, held)
        return peak


def gpipe_schedule(n_stages: int, n_microbatches: int) -> PipelineSchedule:
    """GPipe: all forwards, then all backwards."""
    if n_stages < 1 or n_microbatches < 1:
        raise ValueError("stages and microbatches must be >= 1")
    per_stage: List[List[PipelineOp]] = []
    for s in range(n_stages):
        ops = [PipelineOp(s, i, "F") for i in range(n_microbatches)]
        ops += [PipelineOp(s, i, "B") for i in range(n_microbatches)]
        per_stage.append(ops)
    return PipelineSchedule(n_stages, n_microbatches, per_stage, "gpipe")


def one_f_one_b_schedule(n_stages: int, n_microbatches: int) -> PipelineSchedule:
    """1F1B (PipeDream-flush): warmup forwards, steady 1F1B, cooldown."""
    if n_stages < 1 or n_microbatches < 1:
        raise ValueError("stages and microbatches must be >= 1")
    per_stage: List[List[PipelineOp]] = []
    for s in range(n_stages):
        warmup = min(n_stages - s - 1, n_microbatches)
        ops: List[PipelineOp] = [PipelineOp(s, i, "F") for i in range(warmup)]
        next_f, next_b = warmup, 0
        while next_b < n_microbatches:
            if next_f < n_microbatches:
                ops.append(PipelineOp(s, next_f, "F"))
                next_f += 1
            ops.append(PipelineOp(s, next_b, "B"))
            next_b += 1
        per_stage.append(ops)
    return PipelineSchedule(n_stages, n_microbatches, per_stage, "1f1b")


class PipelinedModel:
    """Partition a ``TransformerLM`` into stages and train microbatched.

    Stage 0 owns the embedding plus its block span; the last stage owns the
    model's training head (final norm and LM head).  ``train_step``
    accumulates gradients across microbatches exactly as the monolithic
    model would (each microbatch's forward is immediately followed by its
    backward so single-slot layer caches remain valid; the *schedule*
    objects above model the concurrent timeline a real pipeline would
    achieve).  Stage boundaries cross ``self.comm`` (one rank per stage) by
    ``point_to_point``, which returns a bit-exact copy: its ledger counts
    the traffic, and it is where link faults are injected.
    """

    def __init__(self, model: TransformerLM, n_stages: int) -> None:
        if n_stages < 1 or n_stages > len(model.blocks):
            raise ValueError(
                f"n_stages must be in 1..{len(model.blocks)} (one block min per stage)"
            )
        self.model = model
        self.n_stages = n_stages
        self.comm = Communicator(DeviceMesh(1, n_stages))
        n_blocks = len(model.blocks)
        base, extra = divmod(n_blocks, n_stages)
        self.stage_spans: List[Tuple[int, int]] = []
        start = 0
        for s in range(n_stages):
            size = base + (1 if s < extra else 0)
            self.stage_spans.append((start, start + size))
            start += size

    def stage_parameter_counts(self) -> List[int]:
        """Parameters per stage (embedding on stage 0, head on last)."""
        counts = []
        for s, (lo, hi) in enumerate(self.stage_spans):
            n = sum(self.model.blocks[b].num_parameters() for b in range(lo, hi))
            if s == 0:
                n += self.model.embed.num_parameters()
            if s == self.n_stages - 1:
                n += self.model.final_norm.num_parameters()
                if self.model.lm_head is not None:
                    n += self.model.lm_head.num_parameters()
            counts.append(n)
        return counts

    def _forward_stage(self, s: int, x: np.ndarray) -> np.ndarray:
        lo, hi = self.stage_spans[s]
        if s == 0:
            x = self.model.embed.forward(x)
        for b in range(lo, hi):
            x = self.model.blocks[b].forward(x)
        if s == self.n_stages - 1:
            x = self.model.head_forward(x)
        return x

    def _backward_stage(self, s: int, dout: np.ndarray) -> Optional[np.ndarray]:
        lo, hi = self.stage_spans[s]
        dx = dout
        if s == self.n_stages - 1:
            dx = self.model.head_backward(dx)
        for b in reversed(range(lo, hi)):
            dx = self.model.blocks[b].backward(dx)
        if s == 0:
            self.model.embed.backward(dx)
            return None
        return dx

    def train_step(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        n_microbatches: int,
    ) -> float:
        """Gradient-accumulating microbatched step; returns mean loss.

        Gradients are left in the model (caller applies the optimizer), and
        are scaled as the mean over microbatches, matching the trainer's
        gradient-accumulation convention.
        """
        if inputs.shape[0] % n_microbatches != 0:
            raise ValueError("batch not divisible by n_microbatches")
        micro_in = np.split(inputs, n_microbatches)
        micro_t = np.split(targets, n_microbatches)
        total_loss = 0.0
        for x, t in zip(micro_in, micro_t):
            act = x
            for s in range(self.n_stages):
                if s > 0:
                    act = self.comm.point_to_point(act, s - 1, s)
                act = self._forward_stage(s, act)
            loss, dlogits = self.model.cross_entropy(act, t)
            total_loss += loss / n_microbatches
            grad = dlogits / n_microbatches
            for s in reversed(range(self.n_stages)):
                grad = self._backward_stage(s, grad)
                if s > 0:
                    grad = self.comm.point_to_point(grad, s, s - 1)
        return total_loss
