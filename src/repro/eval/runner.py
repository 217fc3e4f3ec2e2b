"""Batch evaluation over a benchmark with per-topic breakdowns."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.mcq.dataset import MCQBenchmark
from repro.mcq.generation import MCQuestion


@dataclass
class EvaluationResult:
    """Accuracy summary of one (model, method) pair."""

    method: str
    model_name: str
    n_questions: int
    accuracy: float
    per_topic: Dict[str, float] = field(default_factory=dict)
    predictions: List[Optional[int]] = field(default_factory=list)
    parse_failures: int = 0

    @property
    def score_percent(self) -> float:
        return 100.0 * self.accuracy


class BatchedEvaluationRunner:
    """Runs one evaluator over a benchmark's test split.

    The evaluator's ``predict_many`` maps the whole question list to an
    order-aligned prediction list, so each method batches its own work.
    """

    def __init__(
        self, benchmark: MCQBenchmark, max_questions: Optional[int] = None
    ) -> None:
        self.benchmark = benchmark
        self.max_questions = max_questions

    def run(self, evaluator, method: str, model_name: str) -> EvaluationResult:
        questions = self.benchmark.test[: self.max_questions]
        predictions = list(evaluator.predict_many(questions))
        if len(predictions) != len(questions):
            raise ValueError(
                f"predict_many returned {len(predictions)} predictions "
                f"for {len(questions)} questions"
            )
        return assemble_result(questions, predictions, method, model_name)


def assemble_result(
    questions: Sequence[MCQuestion],
    predictions: Sequence[Optional[int]],
    method: str,
    model_name: str,
) -> EvaluationResult:
    """Fold order-aligned predictions into an :class:`EvaluationResult`."""
    accuracy = MCQBenchmark.accuracy(questions, predictions)
    per_topic: Dict[str, List[bool]] = {}
    failures = 0
    for q, p in zip(questions, predictions):
        per_topic.setdefault(q.topic, []).append(p == q.correct_idx)
        if p is None:
            failures += 1
    return EvaluationResult(
        method=method,
        model_name=model_name,
        n_questions=len(questions),
        accuracy=accuracy,
        per_topic={t: sum(v) / len(v) for t, v in sorted(per_topic.items())},
        predictions=list(predictions),
        parse_failures=failures,
    )
