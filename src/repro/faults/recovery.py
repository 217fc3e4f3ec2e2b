"""Recovery layer: retry, restart, fall back — and prove nothing changed.

:class:`RecoveryManager` drives any :class:`FaultableLoop` (the DP/TP/PP
adapters in :mod:`repro.faults.harness`) for a step budget while a
:class:`~repro.faults.injector.FaultInjector` interprets a fault plan
against it.  Recovery actions:

* **transient collective failure** → retry with exponential backoff
  (simulated, deterministically jittered delays — nothing sleeps);
* **preemption** → simulated job restart: rebuild the loop from its seed
  and restore the newest *intact* snapshot;
* **corrupt checkpoint file** → checksum validation rejects the snapshot
  and recovery falls back to the previous one;
* **gradient/loss spike** → the anomalous update is discarded and the
  step recomputed (injected faults fire once, so the recompute is clean);
* **degraded link** → no action needed (timing-only), but the window is
  recorded in the log and the timing ledger.

Every action lands in a :class:`RecoveryLog` whose JSON form is part of
the replay contract: the same ``(plan, seed)`` must produce the same log.

The safety property the differential tests assert: each loop phase issues
its collectives *before* mutating any trainable state, and each
``compute_step`` starts from ``zero_grad`` — so retrying a phase, or
recomputing a whole step, is bit-identical to a run that never faulted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Protocol, Sequence

import numpy as np

from repro.faults.errors import (
    FaultRecoveryExhausted,
    PreemptionError,
    TransientCollectiveError,
)
from repro.faults.injector import FaultInjector
from repro.model.layers import assign_state
from repro.train.checkpointing import (
    checkpoint_dir_for_step,
    latest_valid_checkpoint,
    load_snapshot,
    save_snapshot,
    set_post_save_hook,
)
from repro.utils.rng import derive_seed

_MASK64 = (1 << 64) - 1


class FaultableLoop(Protocol):
    """What the manager needs from a distributed training loop.

    The contract that makes recovery exact: ``compute_step`` starts from
    zeroed gradients and mutates nothing but gradients; every phase issues
    its collectives before touching parameters or optimizer state;
    ``build`` recreates the exact initial state from the loop's seed; the
    batch for step ``i`` is a pure function of ``(seed, i)``.

    ``state()`` is the whole training state as live arrays by name, and
    ``step_count`` the optimizer's update count.  The manager saves,
    restores and fingerprints through these two alone; a restore writes
    ``state()`` first and sets ``step_count`` last.
    """

    step_count: int

    def build(self) -> None: ...

    def communicators(self) -> Sequence[object]: ...

    def gradient_shards(self) -> Sequence[dict]: ...

    def compute_step(self, step: int) -> float: ...

    def grad_norm(self) -> float: ...

    def apply_step(self, step: int) -> None: ...

    def state(self) -> Dict[str, np.ndarray]: ...


@dataclass
class RetryPolicy:
    """Exponential backoff with deterministic jitter (simulated seconds)."""

    max_attempts: int = 4
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.1

    def delay(self, seed: int, step: int, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based) at ``step``."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        unit = derive_seed(seed, "backoff", step, attempt) / float(_MASK64)
        return raw * (1.0 + self.jitter * unit)


@dataclass(frozen=True)
class RecoveryEvent:
    """One structured entry in the recovery log."""

    step: int
    action: str
    detail: Dict[str, object]
    simulated_delay: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "step": self.step,
            "action": self.action,
            "detail": dict(self.detail),
            "simulated_delay": self.simulated_delay,
        }


class RecoveryLog:
    """Append-only structured log; JSON form is the replay contract."""

    def __init__(self) -> None:
        self.events: List[RecoveryEvent] = []

    def add(
        self,
        step: int,
        action: str,
        detail: Optional[Dict[str, object]] = None,
        simulated_delay: float = 0.0,
    ) -> RecoveryEvent:
        event = RecoveryEvent(int(step), action, dict(detail or {}), simulated_delay)
        self.events.append(event)
        return event

    def __len__(self) -> int:
        return len(self.events)

    def actions(self) -> List[str]:
        return [e.action for e in self.events]

    def count(self, action: str) -> int:
        return sum(1 for e in self.events if e.action == action)

    def total_simulated_delay(self) -> float:
        return float(sum(e.simulated_delay for e in self.events))

    def to_json(self) -> str:
        return json.dumps([e.to_dict() for e in self.events], sort_keys=True)


@dataclass
class RecoveryResult:
    """Outcome of one managed run."""

    steps: int
    losses: List[float] = field(default_factory=list)
    restarts: int = 0
    log: RecoveryLog = field(default_factory=RecoveryLog)


class RecoveryManager:
    """Runs a loop to completion through the faults of one plan."""

    def __init__(
        self,
        injector: FaultInjector,
        checkpoint_root: Path,
        checkpoint_every: int = 2,
        retry: Optional[RetryPolicy] = None,
        spike_threshold: float = 1e3,
        max_restarts: int = 4,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.injector = injector
        self.checkpoint_root = Path(checkpoint_root)
        self.checkpoint_every = checkpoint_every
        self.retry = retry or RetryPolicy()
        self.spike_threshold = spike_threshold
        self.max_restarts = max_restarts

    # ------------------------------------------------------------------
    def _with_retry(self, log: RecoveryLog, step: int, fn: Callable[[], object]):
        """Call ``fn``, absorbing transient collective faults with backoff."""
        attempt = 1
        while True:
            try:
                return fn()
            except TransientCollectiveError as exc:
                if attempt >= self.retry.max_attempts:
                    raise FaultRecoveryExhausted(
                        f"collective {exc.op}() still failing after "
                        f"{attempt} attempts at step {step}"
                    ) from exc
                delay = self.retry.delay(self.injector.seed, step, attempt)
                log.add(
                    step,
                    "collective-retry",
                    {"op": exc.op, "attempt": attempt},
                    simulated_delay=delay,
                )
                attempt += 1

    def _save(self, log: RecoveryLog, loop: FaultableLoop, step: int) -> None:
        path = checkpoint_dir_for_step(self.checkpoint_root, step)
        save_snapshot(path, loop.state(), step, loop.step_count)
        log.add(step, "checkpoint-saved", {"snapshot": path.name})

    def _restart(self, log: RecoveryLog, loop: FaultableLoop) -> int:
        """Simulated job relaunch: rebuild, restore newest intact snapshot."""
        loop.build()
        self.injector.install(*loop.communicators())
        found = latest_valid_checkpoint(self.checkpoint_root)
        if found is None:
            log.add(0, "restart-from-scratch", {})
            return 0
        step, path, skipped = found
        for bad_step, bad_path in skipped:
            log.add(
                bad_step,
                "checkpoint-fallback",
                {"snapshot": bad_path.name, "reason": "checksum-mismatch"},
            )
        arrays, meta = load_snapshot(path)
        assign_state(loop.state(), arrays)
        loop.step_count = int(meta["optimizer_step_count"])
        resume = int(meta["step"])
        log.add(resume, "resume", {"snapshot": path.name})
        return resume

    # ------------------------------------------------------------------
    def run(self, loop: FaultableLoop, total_steps: int) -> RecoveryResult:
        """Drive ``loop`` for ``total_steps`` optimizer steps, recovering
        from every fault the plan throws; raises
        :class:`FaultRecoveryExhausted` when the policy budget is spent."""
        result = RecoveryResult(steps=total_steps)
        log = result.log
        self.injector.reset()
        loop.build()
        self.injector.install(*loop.communicators())
        previous_hook = set_post_save_hook(self.injector.on_checkpoint_saved)
        degradations_logged: set = set()
        try:
            self._save(log, loop, 0)
            step = 0
            while step < total_steps:
                try:
                    self.injector.begin_step(step)
                    degraded = self.injector.degradation_at(step)
                    if degraded is not None:
                        key = (degraded.step, degraded.duration)
                        if key not in degradations_logged:
                            degradations_logged.add(key)
                            log.add(
                                step,
                                "degraded-link",
                                {
                                    "factor": degraded.factor,
                                    "duration": degraded.duration,
                                },
                            )
                    self.injector.on_step_start(step)
                    loss = self._with_retry(log, step, lambda: loop.compute_step(step))
                    self.injector.on_gradients(step, loop.gradient_shards())
                    norm = self._with_retry(log, step, loop.grad_norm)
                    if norm > self.spike_threshold:
                        log.add(step, "spike-discard", {"grad_norm": float(norm)})
                        loss = self._with_retry(
                            log, step, lambda: loop.compute_step(step)
                        )
                        self.injector.on_gradients(step, loop.gradient_shards())
                        norm = self._with_retry(log, step, loop.grad_norm)
                        if norm > self.spike_threshold:
                            raise FaultRecoveryExhausted(
                                f"gradient norm {norm:.3g} still anomalous after "
                                f"recompute at step {step}"
                            )
                    self._with_retry(log, step, lambda: loop.apply_step(step))
                    result.losses.append(float(loss))
                    step += 1
                    if step % self.checkpoint_every == 0:
                        self._save(log, loop, step)
                except PreemptionError as exc:
                    result.restarts += 1
                    if result.restarts > self.max_restarts:
                        raise FaultRecoveryExhausted(
                            f"restart budget ({self.max_restarts}) spent"
                        ) from exc
                    log.add(step, "preemption", {"rank": exc.rank})
                    step = self._restart(log, loop)
                    del result.losses[step:]
        finally:
            set_post_save_hook(previous_hook)
        return result
