"""MCQ extraction from review articles (the Gemini-1.5-Pro analogue).

The extractor enforces the paper's design principles:

* questions are standalone — realized purely from the fact, never
  referencing "this article" or its figures;
* options are equal-form — the fact's distractors share the unit and value
  style of the correct answer (no elimination "based on superficial
  characteristics");
* five questions per article, four options each;
* the answer letter is uniformly shuffled per question.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.corpus.knowledge import ANSWER_LETTERS, KnowledgeBase
from repro.mcq.araa import ReviewArticle
from repro.utils.rng import new_rng


@dataclass(frozen=True)
class MCQuestion:
    """One benchmark item."""

    question_id: int
    article_id: str
    topic: str
    fact_id: int
    question: str
    options: Tuple[str, str, str, str]
    correct_idx: int  # 0..3
    explanation: str

    @property
    def correct_letter(self) -> str:
        return ANSWER_LETTERS[self.correct_idx]

    def option_block(self) -> str:
        """The ``A : ... / B : ...`` lines shared by every prompt style."""
        return "\n".join(
            f"{letter} : {value}"
            for letter, value in zip(ANSWER_LETTERS, self.options)
        )


@dataclass
class MCQExtractor:
    """Extracts MCQs from reviews against the source knowledge base."""

    knowledge: KnowledgeBase
    questions_per_article: int = 5
    seed: int = 0

    def extract(self, articles: Sequence[ReviewArticle]) -> List[MCQuestion]:
        fact_by_id = {f.fact_id: f for f in self.knowledge.facts}
        questions: List[MCQuestion] = []
        qid = 0
        for art_index, article in enumerate(articles):
            rng = new_rng(self.seed, "mcq", art_index)
            facts = [fact_by_id[fid] for fid in article.fact_ids if fid in fact_by_id]
            if len(facts) < self.questions_per_article:
                raise ValueError(
                    f"article {article.article_id} realizes only {len(facts)} "
                    f"facts; need {self.questions_per_article}"
                )
            pick = rng.choice(
                len(facts), size=self.questions_per_article, replace=False
            )
            for j in pick:
                fact = facts[j]
                options, correct_idx = fact.option_values_shuffled(rng)
                explanation = (
                    f"the review states that {fact.statement(0)} hence option "
                    f"{ANSWER_LETTERS[correct_idx]} is correct ."
                )
                questions.append(
                    MCQuestion(
                        question_id=qid,
                        article_id=article.article_id,
                        topic=article.topic,
                        fact_id=fact.fact_id,
                        question=fact.question(),
                        options=tuple(options),
                        correct_idx=correct_idx,
                        explanation=explanation,
                    )
                )
                qid += 1
        return questions
