"""Benchmark release tooling.

Appendix A: "We are in the process of releasing this benchmarking dataset
but will withhold the answer key to prevent question leakage and maintain
an objective benchmark."  This module implements that release flow:

* :func:`export_public` — questions + options only (no ``correct_idx``,
  no explanations);
* :func:`export_answer_key` — the withheld key, separately;
* :class:`ScoringServer` — the key-holder side: accepts predictions,
  returns the score without revealing per-question correctness (leakage-
  resistant scoring);
* :func:`verify_release_integrity` — checks a public file leaks nothing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.mcq.dataset import MCQBenchmark
from repro.mcq.generation import MCQuestion

PathLike = Union[str, Path]

_FORBIDDEN_PUBLIC_FIELDS = ("correct_idx", "explanation", "fact_id")


def _fingerprint(question: MCQuestion) -> str:
    """Stable id binding a public question to its key entry.

    Includes the source article id: distinct reviews of the same subfield
    can legitimately ask the same fact with the same option order (they do
    in this synthetic world and plausibly in the real dataset), and key
    entries must still be one-to-one with public items.
    """
    payload = json.dumps(
        {
            "article": question.article_id,
            "q": question.question,
            "options": list(question.options),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def export_public(benchmark: MCQBenchmark, path: PathLike) -> int:
    """Write the answer-free public benchmark; returns question count."""
    items = []
    for q in benchmark.questions:
        items.append(
            {
                "fingerprint": _fingerprint(q),
                "article_id": q.article_id,
                "topic": q.topic,
                "question": q.question,
                "options": list(q.options),
            }
        )
    Path(path).write_text(
        json.dumps({"questions": items}, indent=2), encoding="utf-8"
    )
    return len(items)


def export_answer_key(benchmark: MCQBenchmark, path: PathLike) -> None:
    """Write the withheld key (fingerprint -> correct option index)."""
    key = {_fingerprint(q): q.correct_idx for q in benchmark.questions}
    Path(path).write_text(json.dumps(key, indent=2), encoding="utf-8")


def verify_release_integrity(public_path: PathLike) -> List[str]:
    """Return a list of leakage problems in a public release (empty = ok)."""
    data = json.loads(Path(public_path).read_text(encoding="utf-8"))
    problems: List[str] = []
    seen = set()
    for i, item in enumerate(data.get("questions", [])):
        for field_name in _FORBIDDEN_PUBLIC_FIELDS:
            if field_name in item:
                problems.append(f"question {i}: leaks {field_name!r}")
        fp = item.get("fingerprint")
        if not fp:
            problems.append(f"question {i}: missing fingerprint")
        elif fp in seen:
            problems.append(f"question {i}: duplicate fingerprint {fp}")
        else:
            seen.add(fp)
        if len(item.get("options", [])) != 4:
            problems.append(f"question {i}: must have exactly 4 options")
    return problems


@dataclass
class ScoringServer:
    """Key-holder scoring: aggregate accuracy only, never per-item truth."""

    key: Dict[str, int]
    min_batch: int = 20  # refuse tiny batches that would leak single answers

    @classmethod
    def from_key_file(cls, path: PathLike, min_batch: int = 20) -> "ScoringServer":
        return cls(
            key=json.loads(Path(path).read_text(encoding="utf-8")),
            min_batch=min_batch,
        )

    def score(self, predictions: Dict[str, Optional[int]]) -> Dict[str, float]:
        """Score a fingerprint->prediction map.

        Unparseable (None) predictions count wrong, exactly as the paper's
        evaluation does.  Raises on batches small enough to reverse-engineer
        individual answers.
        """
        if len(predictions) < self.min_batch:
            raise ValueError(
                f"batch of {len(predictions)} < minimum {self.min_batch} "
                f"(single-question probing would leak the key)"
            )
        unknown = [fp for fp in predictions if fp not in self.key]
        if unknown:
            raise KeyError(f"{len(unknown)} unknown fingerprints (e.g. {unknown[0]})")
        hits = sum(
            1
            for fp, pred in predictions.items()
            if pred is not None and pred == self.key[fp]
        )
        return {
            "n": float(len(predictions)),
            "accuracy": hits / len(predictions),
        }
