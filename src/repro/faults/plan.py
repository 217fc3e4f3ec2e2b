"""Declarative, replayable fault schedules.

A :class:`FaultPlan` is data, not behavior: an ordered list of
:class:`FaultEvent`\\ s saying *what* goes wrong and *when* (in optimizer
steps).  The :class:`~repro.faults.injector.FaultInjector` interprets the
plan against live hook points; because the plan plus the injector seed
fully determine every fault, a faulted run replays bit-identically —
which is what makes the differential recovery suite possible.

Fault classes
-------------
``preemption``
    The job loses its allocation at the start of step ``step``;
    recovery restores the newest intact checkpoint.
``collective-transient``
    The next ``attempts`` matching collective calls at step ``step``
    raise :class:`~repro.faults.errors.TransientCollectiveError`;
    recovery retries with exponential backoff.
``degraded-link``
    Collective/point-to-point time is multiplied by ``factor`` for
    ``duration`` steps starting at ``step`` (timing only — arithmetic,
    and therefore the trained parameters, are unaffected).
``checkpoint-corruption``
    The snapshot written at step ``step`` has one file, ``target``
    (``state.npz`` unless named), corrupted (``mode``: ``"flip"`` a byte
    or ``"truncate"`` the tail); recovery falls back to the previous
    intact snapshot at restore time.  A target the snapshot does not hold
    is an error, not a silent no-op.
``loss-spike``
    Accumulated gradients at step ``step`` are scaled by ``factor``
    once, emulating a data/hardware glitch; recovery detects the norm
    anomaly, discards the update, and recomputes the step.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.train.checkpointing import STATE_NAME

PREEMPTION = "preemption"
COLLECTIVE_TRANSIENT = "collective-transient"
DEGRADED_LINK = "degraded-link"
CHECKPOINT_CORRUPTION = "checkpoint-corruption"
LOSS_SPIKE = "loss-spike"

FAULT_KINDS = (
    PREEMPTION,
    COLLECTIVE_TRANSIENT,
    DEGRADED_LINK,
    CHECKPOINT_CORRUPTION,
    LOSS_SPIKE,
)

_CORRUPTION_MODES = ("flip", "truncate")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Only the fields relevant to ``kind`` are interpreted; the rest keep
    their defaults so every event serializes to the same flat schema.
    """

    kind: str
    step: int
    rank: int = 0
    op: Optional[str] = None  # collective-transient: restrict to one op name
    attempts: int = 1  # collective-transient: consecutive failing calls
    factor: float = 1.0  # degraded-link slowdown / loss-spike gradient scale
    duration: int = 1  # degraded-link: steps the window lasts
    target: str = STATE_NAME  # checkpoint-corruption: snapshot file name
    mode: str = "flip"  # checkpoint-corruption: "flip" | "truncate"

    def validate(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.step < 0:
            raise ValueError(f"fault step must be >= 0, got {self.step}")
        if self.rank < 0:
            raise ValueError(f"fault rank must be >= 0, got {self.rank}")
        if self.kind == COLLECTIVE_TRANSIENT and self.attempts < 1:
            raise ValueError("collective-transient needs attempts >= 1")
        if self.kind == DEGRADED_LINK:
            if self.duration < 1:
                raise ValueError("degraded-link needs duration >= 1")
            if self.factor <= 1.0:
                raise ValueError(
                    "degraded-link factor must exceed 1.0 (a slowdown)"
                )
        if self.kind == LOSS_SPIKE and self.factor <= 1.0:
            raise ValueError("loss-spike factor must exceed 1.0")
        if self.kind == CHECKPOINT_CORRUPTION and self.mode not in _CORRUPTION_MODES:
            raise ValueError(
                f"corruption mode must be one of {_CORRUPTION_MODES}, "
                f"got {self.mode!r}"
            )

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class FaultPlan:
    """An ordered, validated fault schedule plus the injector seed.

    ``seed`` feeds every stochastic decision downstream of the plan
    (backoff jitter, corruption byte offsets), so ``(plan, seed)`` is the
    complete replay key of a faulted run.
    """

    events: List[FaultEvent] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        for event in self.events:
            event.validate()
        self.events = sorted(
            self.events, key=lambda e: (e.step, FAULT_KINDS.index(e.kind), e.rank)
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def add(self, event: FaultEvent) -> "FaultPlan":
        event.validate()
        self.events.append(event)
        self.events.sort(
            key=lambda e: (e.step, FAULT_KINDS.index(e.kind), e.rank)
        )
        return self

    def events_of_kind(self, kind: str) -> List[FaultEvent]:
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        return [e for e in self.events if e.kind == kind]

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {"seed": self.seed, "events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        events = [FaultEvent(**e) for e in data.get("events", [])]  # type: ignore[arg-type]
        return cls(events=events, seed=int(data.get("seed", 0)))  # type: ignore[arg-type]


def single_fault_plans(step: int, seed: int = 0) -> Iterable[Tuple[str, FaultPlan]]:
    """One minimal plan per fault class, all firing around ``step``.

    The differential test matrix iterates these to guarantee every fault
    class is covered on every parallel configuration.
    """
    yield PREEMPTION, FaultPlan([FaultEvent(PREEMPTION, step)], seed=seed)
    yield COLLECTIVE_TRANSIENT, FaultPlan(
        [FaultEvent(COLLECTIVE_TRANSIENT, step, attempts=2)], seed=seed
    )
    yield DEGRADED_LINK, FaultPlan(
        [FaultEvent(DEGRADED_LINK, step, factor=8.0, duration=2)], seed=seed
    )
    yield CHECKPOINT_CORRUPTION, FaultPlan(
        [
            FaultEvent(CHECKPOINT_CORRUPTION, step),
            FaultEvent(PREEMPTION, step + 1),
        ],
        seed=seed,
    )
    yield LOSS_SPIKE, FaultPlan(
        [FaultEvent(LOSS_SPIKE, step, factor=1e6)], seed=seed
    )
