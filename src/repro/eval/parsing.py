"""Answer extraction from free-form model output (Section V-A).

The paper's pipeline is two-stage: "a preliminary regex to extract answers
in most cases ... in the rare instances where this failed, we employed a
GPT-4o model to interpret the intended answer from the model's
explanation."  Both stages are reproduced:

1. :func:`extract_answer_json` + :func:`extract_answer_freeform` — the
   regex stage, covering the JSON contract and common free-form phrasings;
2. :class:`FallbackInterpreter` — the interpreter analogue: given the
   model's explanation and the option texts, infer which option the
   explanation is endorsing (by value mention and token overlap).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.corpus.knowledge import ANSWER_LETTERS

_LETTER_IDX = {letter: i for i, letter in enumerate(ANSWER_LETTERS)}

_ANSWER_FIELD_RE = re.compile(
    r'"?ANSWER"?\s*[:=]\s*"?\(?\[?([A-D])\b', re.IGNORECASE
)
_FREEFORM_PATTERNS = (
    re.compile(r"\bthe answer is\s*:?\s*\(?([A-D])\b", re.IGNORECASE),
    re.compile(r"\banswer\s*:?\s*\(?([A-D])\b", re.IGNORECASE),
    re.compile(r"\bcorrect (?:answer|option|choice) is\s*\(?([A-D])\b", re.IGNORECASE),
    re.compile(r"\boption\s*\(?([A-D])\)?\s+is correct\b", re.IGNORECASE),
    re.compile(r"^\s*\(?([A-D])\)?\s*[:.\)]", re.MULTILINE),
    re.compile(r"\bchoose\s*\(?([A-D])\b", re.IGNORECASE),
)
_BARE_LETTER_RE = re.compile(r"^\s*([A-D])\s*$", re.IGNORECASE)

#: words an explanation must share with its best option for the
#: interpreter's overlap stage to pick that option
MIN_OVERLAP = 1


@dataclass(frozen=True)
class ParseOutcome:
    """Result of the full parsing pipeline."""

    answer_idx: Optional[int]  # 0..3, or None if unparseable
    stage: str  # "json" | "regex" | "interpreter" | "failed"

    @property
    def parsed(self) -> bool:
        return self.answer_idx is not None


def _iter_json_blocks(text: str):
    """Yield top-level balanced ``{...}`` spans, string-aware.

    A non-greedy ``\\{.*?\\}`` regex truncates any object whose
    ``EXPLANATION`` (or a nested object) contains ``{...}`` before the
    ``ANSWER`` key, so brace depth is tracked instead; braces inside JSON
    string literals (and escaped quotes) do not affect the depth.
    """
    depth = 0
    start = -1
    in_string = False
    escaped = False
    for i, ch in enumerate(text):
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"' and depth > 0:
            in_string = True
        elif ch == "{":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "}" and depth > 0:
            depth -= 1
            if depth == 0:
                yield text[start : i + 1]


def extract_answer_json(text: str) -> Optional[int]:
    """Parse the paper's JSON output contract; tolerant of sloppy JSON."""
    for block in _iter_json_blocks(text):
        try:
            obj = json.loads(block)
        except json.JSONDecodeError:
            obj = None
        if isinstance(obj, dict):
            for key in ("ANSWER", "answer", "Answer"):
                if key in obj:
                    value = str(obj[key]).strip().upper()
                    if value[:1] in _LETTER_IDX:
                        return _LETTER_IDX[value[0]]
    # sloppy JSON: regex the ANSWER field directly
    m = _ANSWER_FIELD_RE.search(text)
    if m:
        return _LETTER_IDX[m.group(1).upper()]
    return None


def extract_answer_freeform(text: str) -> Optional[int]:
    """Match common free-form answer phrasings."""
    m = _BARE_LETTER_RE.match(text)
    if m:
        return _LETTER_IDX[m.group(1).upper()]
    for pattern in _FREEFORM_PATTERNS:
        m = pattern.search(text)
        if m:
            return _LETTER_IDX[m.group(1).upper()]
    return None


class FallbackInterpreter:
    """The GPT-4o answer-interpreter analogue.

    Infers the intended answer from an explanation by (1) exact mention of
    one option's value, then (2) bag-of-words overlap between the
    explanation and each option, requiring a unique argmax with a margin.
    """

    def interpret(self, text: str, options: Sequence[str]) -> Optional[int]:
        lowered = " ".join(text.lower().split())
        mentions = [
            i
            for i, opt in enumerate(options)
            if " ".join(opt.lower().split()) in lowered
        ]
        if len(mentions) == 1:
            return mentions[0]
        # token-overlap scoring
        text_tokens = set(lowered.split())
        scores = []
        for opt in options:
            opt_tokens = set(opt.lower().split())
            scores.append(len(opt_tokens & text_tokens))
        best = max(scores)
        if best >= MIN_OVERLAP and scores.count(best) == 1:
            return scores.index(best)
        return None


def parse_model_answer(text: str, options: Sequence[str]) -> ParseOutcome:
    """Run the full two-stage pipeline on one model response."""
    idx = extract_answer_json(text)
    if idx is not None:
        return ParseOutcome(idx, "json")
    idx = extract_answer_freeform(text)
    if idx is not None:
        return ParseOutcome(idx, "regex")
    idx = FallbackInterpreter().interpret(text, options)
    if idx is not None:
        return ParseOutcome(idx, "interpreter")
    return ParseOutcome(None, "failed")
