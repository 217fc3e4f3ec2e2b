"""The benchmark container: splits, serialization, scoring."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.corpus.knowledge import KnowledgeBase
from repro.mcq.araa import generate_review_articles
from repro.mcq.generation import MCQExtractor, MCQuestion
from repro.utils.rng import new_rng

PathLike = Union[str, Path]


@dataclass
class MCQBenchmark:
    """A frozen MCQ set with a small dev split for few-shot prompting.

    The paper's two-shot next-token method needs example questions with
    answers; ``dev`` holds those (they are excluded from scoring), ``test``
    is everything else.
    """

    questions: List[MCQuestion]
    dev_size: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dev_size >= len(self.questions):
            raise ValueError("dev_size must be smaller than the question count")
        order = new_rng(self.seed, "benchmark-split").permutation(
            len(self.questions)
        )
        self._dev_idx = sorted(int(i) for i in order[: self.dev_size])
        dev_set = set(self._dev_idx)
        self._test_idx = [i for i in range(len(self.questions)) if i not in dev_set]

    def __len__(self) -> int:
        return len(self.questions)

    @property
    def dev(self) -> List[MCQuestion]:
        return [self.questions[i] for i in self._dev_idx]

    @property
    def test(self) -> List[MCQuestion]:
        return [self.questions[i] for i in self._test_idx]

    def few_shot(self, n: int = 2) -> List[MCQuestion]:
        if n > len(self._dev_idx):
            raise ValueError(f"only {len(self._dev_idx)} dev questions available")
        return self.dev[:n]

    def by_topic(self) -> Dict[str, List[MCQuestion]]:
        out: Dict[str, List[MCQuestion]] = {}
        for q in self.test:
            out.setdefault(q.topic, []).append(q)
        return out

    # ------------------------------------------------------------------
    @staticmethod
    def accuracy(
        questions: Sequence[MCQuestion], predictions: Sequence[Optional[int]]
    ) -> float:
        """Fraction correct; unparseable predictions (None) count wrong."""
        if len(questions) != len(predictions):
            raise ValueError("questions and predictions must align")
        if not questions:
            raise ValueError("empty question set")
        hits = sum(
            1
            for q, p in zip(questions, predictions)
            if p is not None and p == q.correct_idx
        )
        return hits / len(questions)

    # ------------------------------------------------------------------
    def save(self, path: PathLike) -> None:
        payload = {
            "dev_size": self.dev_size,
            "seed": self.seed,
            "questions": [q.as_dict() for q in self.questions],
        }
        Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")

    @classmethod
    def load(cls, path: PathLike) -> "MCQBenchmark":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(
            questions=[MCQuestion.from_dict(q) for q in data["questions"]],
            dev_size=int(data["dev_size"]),
            seed=int(data["seed"]),
        )


def build_benchmark(
    knowledge: KnowledgeBase,
    n_articles: int = 885,
    questions_per_article: int = 5,
    facts_per_article: int = 8,
    dev_size: int = 8,
    seed: int = 0,
) -> MCQBenchmark:
    """End-to-end benchmark build: reviews -> extraction -> container.

    Defaults reproduce the paper's 885 x 5 = 4,425-question set.
    """
    articles = generate_review_articles(
        knowledge,
        n_articles=n_articles,
        facts_per_article=facts_per_article,
        seed=seed,
        min_topic_facts=questions_per_article,
    )
    extractor = MCQExtractor(
        knowledge, questions_per_article=questions_per_article, seed=seed
    )
    return MCQBenchmark(extractor.extract(articles), dev_size=dev_size, seed=seed)
