"""The fault injector: interprets a :class:`FaultPlan` at live hook points.

The injector is the *registry* through which every fault fires — lint rule
R6 (``fault-injection-registry``) forbids ad-hoc raises of fault types in
``parallel/``/``train/``, so the distributed stack stays fault-agnostic:

* ``Communicator.hook`` (:meth:`FaultInjector.collective_hook`) — raises
  :class:`TransientCollectiveError` for scheduled transient failures and
  returns the degraded-link time multiplier;
* the step calls that :class:`~repro.faults.recovery.RecoveryManager`
  makes around each step of the loop it drives — :meth:`on_step_start`
  raises :class:`PreemptionError` at scheduled step boundaries,
  :meth:`on_gradients` applies scheduled loss-spike gradient scalings;
* the checkpoint post-save hook (:meth:`on_checkpoint_saved`) — corrupts
  a freshly written snapshot file per the plan.

All state is derived from ``(plan, plan.seed)``; :meth:`reset` rewinds the
injector so the identical fault sequence replays, which the differential
suite asserts.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from repro.faults.errors import PreemptionError, TransientCollectiveError
from repro.faults.plan import (
    CHECKPOINT_CORRUPTION,
    COLLECTIVE_TRANSIENT,
    DEGRADED_LINK,
    LOSS_SPIKE,
    PREEMPTION,
    FaultEvent,
    FaultPlan,
)
from repro.utils.rng import derive_seed


def corrupt_file(path: Path, mode: str, seed: int) -> None:
    """Deterministically damage one file: flip a byte or truncate the tail.

    The byte offset / truncation point derives from ``seed`` and the file
    name, so a replayed plan corrupts the same bytes.
    """
    data = path.read_bytes()
    if not data:
        return
    offset = derive_seed(seed, "corrupt", path.name) % len(data)
    if mode == "truncate":
        path.write_bytes(data[: max(offset, 1) - 1])
        return
    flipped = bytes([data[offset] ^ 0xFF])
    path.write_bytes(data[:offset] + flipped + data[offset + 1 :])


class FaultInjector:
    """Seeded, replayable interpreter of one :class:`FaultPlan`.

    The driving loop calls :meth:`begin_step` at each step boundary so the
    collective hook (which only sees op names and byte counts) knows the
    current step.  Events fire at most once — a fault consumed before a
    preemption does not re-fire when the recovered run replays the same
    step indices, matching how real transient faults behave.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.seed = plan.seed
        self.reset()

    def reset(self) -> None:
        """Rewind all fired-state so the plan replays identically."""
        self.current_step = -1
        self._fired: set = set()
        # event-id -> remaining failing attempts for transient collectives
        self._transient_budget: Dict[int, int] = {
            i: e.attempts
            for i, e in enumerate(self.plan.events)
            if e.kind == COLLECTIVE_TRANSIENT
        }
        self.injected: List[Dict[str, object]] = []

    # ------------------------------------------------------------------
    def _record(self, event: FaultEvent, **detail: object) -> None:
        entry: Dict[str, object] = {"kind": event.kind, "step": event.step}
        entry.update(detail)
        self.injected.append(entry)

    def begin_step(self, step: int) -> None:
        """Tell the injector which optimizer step is executing."""
        self.current_step = int(step)

    # -- step calls -----------------------------------------------------
    def on_step_start(self, step: int) -> None:
        """Raise a scheduled preemption exactly once."""
        self.begin_step(step)
        for i, event in enumerate(self.plan.events):
            if (
                event.kind == PREEMPTION
                and event.step == step
                and i not in self._fired
            ):
                self._fired.add(i)
                self._record(event, rank=event.rank)
                raise PreemptionError(step, event.rank)

    def on_gradients(self, step: int, grads: dict) -> None:
        """Apply scheduled loss-spike scalings to accumulated gradients.

        ``grads`` may be one named dict or a sequence of per-rank dicts;
        every replica/shard is scaled identically so synchronous-update
        invariants (DDP replicas never diverge) survive the fault.
        """
        for i, event in enumerate(self.plan.events):
            if (
                event.kind == LOSS_SPIKE
                and event.step == step
                and i not in self._fired
            ):
                self._fired.add(i)
                shards = grads if isinstance(grads, (list, tuple)) else [grads]
                for shard in shards:
                    for g in shard.values():
                        g *= event.factor
                self._record(event, factor=event.factor)

    # -- communicator hook ----------------------------------------------
    def degradation_at(self, step: int) -> Optional[FaultEvent]:
        """The degraded-link event whose window covers ``step``, if any."""
        for event in self.plan.events_of_kind(DEGRADED_LINK):
            if event.step <= step < event.step + event.duration:
                return event
        return None

    def collective_hook(self, op: str, nbytes: int) -> float:
        """``Communicator.hook`` adapter: transient faults + link slowdown."""
        step = self.current_step
        for i, event in enumerate(self.plan.events):
            if (
                event.kind == COLLECTIVE_TRANSIENT
                and event.step == step
                and (event.op is None or event.op == op)
                and self._transient_budget.get(i, 0) > 0
            ):
                self._transient_budget[i] -= 1
                attempt = event.attempts - self._transient_budget[i]
                self._record(event, op=op, attempt=attempt)
                raise TransientCollectiveError(op, step, attempt)
        degraded = self.degradation_at(step)
        if degraded is not None:
            key = ("degraded", degraded.step, degraded.duration)
            if key not in self._fired:
                self._fired.add(key)
                self._record(degraded, factor=degraded.factor)
            return degraded.factor
        return 1.0

    def install(self, *comms) -> None:
        """Attach :meth:`collective_hook` to one or more communicators."""
        for comm in comms:
            comm.install_hook(self.collective_hook)

    # -- checkpoint hook -------------------------------------------------
    def on_checkpoint_saved(self, path, step: int) -> None:
        """Post-save hook: corrupt the scheduled file of this snapshot.

        A target the snapshot does not hold raises ``ValueError``: a
        corruption fault that hits nothing would let the scenario pass
        without ever exercising the fallback.
        """
        path = Path(path)
        for i, event in enumerate(self.plan.events):
            if (
                event.kind == CHECKPOINT_CORRUPTION
                and event.step == step
                and i not in self._fired
            ):
                target = path / event.target
                if not target.is_file():
                    raise ValueError(
                        f"checkpoint-corruption target {event.target!r} is not "
                        f"in snapshot {path.name}"
                    )
                self._fired.add(i)
                corrupt_file(target, event.mode, self.seed)
                self._record(event, target=event.target, mode=event.mode)
