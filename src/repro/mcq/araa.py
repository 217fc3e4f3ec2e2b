"""Synthetic Annual Review of Astronomy and Astrophysics articles.

Each review comprehensively summarizes one subfield: it realizes many of
the topic's facts as consensus statements with connective review prose,
the structure the paper's MCQ extraction relies on ("a broad, non-myopic
view of each topic ... from world leaders").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.corpus.knowledge import KnowledgeBase
from repro.utils.rng import new_rng

_REVIEW_CONNECTIVES = (
    "a consensus has emerged over the past decade",
    "multiple independent groups now agree on this picture",
    "the field has converged on the following view",
    "this has been confirmed across several surveys",
    "the evidence assembled in this review supports the interpretation",
)


@dataclass
class ReviewArticle:
    """One synthetic ARAA review."""

    article_id: str  # e.g. "2003ARAA..41..645"
    year: int
    volume: int
    topic: str
    text: str
    fact_ids: List[int]

    @property
    def word_count(self) -> int:
        return len(self.text.split())


def generate_review_articles(
    knowledge: KnowledgeBase,
    n_articles: int = 885,
    facts_per_article: int = 8,
    seed: int = 0,
    start_year: int = 1971,
    min_topic_facts: int = 0,
) -> List[ReviewArticle]:
    """Generate ``n_articles`` reviews, cycling topics round-robin.

    Fact sampling per article is deterministic in (seed, index).  Articles
    on the same topic overlap in fact coverage (as real reviews of the same
    subfield do), but the extractor downstream never asks the same fact
    twice within one article.  Topics with fewer than ``min_topic_facts``
    facts are skipped (small worlds can have sparse topics).
    """
    if n_articles < 1:
        raise ValueError("n_articles must be >= 1")
    topics = [
        t
        for t in knowledge.topics
        if len(knowledge.facts_for_topic(t)) >= min_topic_facts
    ]
    if not topics:
        raise ValueError(
            f"no topic has >= {min_topic_facts} facts (world too small)"
        )
    articles: List[ReviewArticle] = []
    for i in range(n_articles):
        rng = new_rng(seed, "araa", i)
        topic = topics[i % len(topics)]
        pool = knowledge.facts_for_topic(topic)
        k = min(facts_per_article, len(pool))
        idx = rng.choice(len(pool), size=k, replace=False)
        facts = [pool[j] for j in idx]
        sentences: List[str] = [f"this review surveys recent progress on {topic} ."]
        for f in facts:
            conn = _REVIEW_CONNECTIVES[int(rng.integers(0, len(_REVIEW_CONNECTIVES)))]
            sentences.append(f"{conn} : {f.statement(int(rng.integers(0, 4)))}")
        year = start_year + (i % 53)  # spread over 53 annual volumes
        volume = 9 + (i % 53)
        articles.append(
            ReviewArticle(
                article_id=f"{year}ARAA..{volume:02d}..{100 + i % 800}",
                year=year,
                volume=volume,
                topic=topic,
                text=" ".join(sentences),
                fact_ids=[f.fact_id for f in facts],
            )
        )
    return articles
