"""Request and request-state dataclasses for the serving engine.

The paper's three benchmarking methodologies map onto two request kinds:

* :data:`RequestKind.GENERATE` — full-instruct evaluation: decode up to
  ``GenerationConfig.max_new_tokens`` tokens (512 in the paper), with
  per-request decoding controls and seed;
* :data:`RequestKind.SCORE` — both next-token methods: a single prefill
  whose final-position logits are the result (the caller restricts them
  to the four answer-letter ids).

A request is immutable intent; all mutable progress lives in
:class:`RequestState`, which the engine owns and the caller observes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.model.sampling import DecodeStream, GenerationConfig

__all__ = [
    "RequestKind",
    "RequestStatus",
    "InferenceRequest",
    "RequestState",
    "TERMINAL_STATUSES",
]

#: ``stream`` callback signature: (request_id, token_id, is_final).
TokenCallback = Callable[[str, int, bool], None]


class RequestKind(enum.Enum):
    GENERATE = "generate"  # full-instruct: autoregressive decode
    SCORE = "score"  # token-pred: one prefill, final logits


class RequestStatus(enum.Enum):
    QUEUED = "queued"  # admitted to the wait queue, not yet running
    RUNNING = "running"  # in the in-flight decode batch
    FINISHED = "finished"  # completed (stop token, length, or scored)
    REJECTED = "rejected"  # refused at submit (overload / oversized)
    EXPIRED = "expired"  # deadline passed while still queued
    CANCELLED = "cancelled"  # withdrawn by the caller


#: states a request never leaves
TERMINAL_STATUSES = (
    RequestStatus.FINISHED,
    RequestStatus.REJECTED,
    RequestStatus.EXPIRED,
    RequestStatus.CANCELLED,
)


@dataclass(frozen=True)
class InferenceRequest:
    """One unit of serving work.

    ``deadline`` is an absolute clock time by which the request must be
    *admitted* — a queued request whose deadline passes is expired, never
    silently served late (admission-control semantics, see
    ``docs/serving.md``).  ``stream`` receives each generated token as it
    is decoded.
    """

    request_id: str
    prompt_ids: Tuple[int, ...]
    kind: RequestKind = RequestKind.GENERATE
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    deadline: Optional[float] = None
    stream: Optional[TokenCallback] = None

    def __post_init__(self) -> None:
        if not self.prompt_ids:
            raise ValueError("prompt_ids must contain at least one token")
        object.__setattr__(
            self, "prompt_ids", tuple(int(t) for t in self.prompt_ids)
        )


@dataclass(eq=False)  # identity equality: states hold arrays and are unique
class RequestState:
    """Mutable per-request progress, owned by the engine.

    Timestamps are clock readings (virtual or wall, per the injected
    :class:`~repro.serve.clock.Clock`); ``None`` until the corresponding
    lifecycle edge happens.
    """

    request: InferenceRequest
    status: RequestStatus = RequestStatus.QUEUED
    submitted_at: Optional[float] = None
    admitted_at: Optional[float] = None
    first_token_at: Optional[float] = None
    finished_at: Optional[float] = None
    output_ids: List[int] = field(default_factory=list)
    final_logits: Optional[np.ndarray] = None  # SCORE result; may be shared, read-only
    finish_reason: Optional[str] = None  # "stop" | "length" | "scored" | ...
    prefix_hit_tokens: int = 0  # prompt tokens served from the prefix cache
    preemptions: int = 0
    # -- engine internals (not part of the caller-facing result) --------
    decode: Optional[DecodeStream] = None  # a running GENERATE's decode state
    prompt: Tuple[int, ...] = ()  # possibly left-truncated prompt
    budget: int = 0  # decode-token budget after context clamping
    seq: int = 0  # submission sequence number (FIFO tiebreak)

    @property
    def request_id(self) -> str:
        return self.request.request_id

    @property
    def done(self) -> bool:
        return self.status in TERMINAL_STATUSES

    def tokens_reserved(self) -> int:
        """Worst-case sequence length this request can reach (the token-
        budget unit the scheduler admits against)."""
        return len(self.prompt) + self.budget

    def result_summary(self) -> dict:
        """Plain-dict view for logs and tests (no arrays)."""
        return {
            "request_id": self.request_id,
            "kind": self.request.kind.value,
            "status": self.status.value,
            "finish_reason": self.finish_reason,
            "n_output": len(self.output_ids),
            "prefix_hit_tokens": self.prefix_hit_tokens,
            "preemptions": self.preemptions,
        }
