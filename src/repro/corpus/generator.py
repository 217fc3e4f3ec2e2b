"""Synthetic paper generation.

A :class:`SyntheticPaper` mirrors the structure the paper's data pipeline
extracts from arXiv: abstract, introduction, conclusion and full body.
Facts are realized as paraphrased sentences; filler sentences model the
prose that carries no recallable knowledge (the "low information density"
the paper's Summary dataset strips away).

Fact density by section (defaults):

================  ============  ===============
section            facts         filler sentences
================  ============  ===============
abstract           2             2
introduction       3             5
conclusion         2             3
body               6             24
================  ============  ===============

so Abstract-only training text has lower fact coverage per token than AIC,
and raw full text is the least dense of all — the ordering that drives the
paper's dataset-quality findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.corpus.knowledge import Fact, KnowledgeBase
from repro.utils.rng import new_rng

_FILLER_OPENERS = (
    "further observations are required to constrain these findings",
    "this result is broadly consistent with earlier surveys",
    "systematic uncertainties remain the dominant source of error",
    "we defer a detailed treatment of selection effects to future work",
    "the sample was selected to avoid known contaminants",
    "our analysis pipeline follows standard reduction procedures",
    "the inferred parameters agree with theoretical expectations",
    "additional follow up campaigns are currently underway",
    "these conclusions are robust to reasonable changes in the priors",
    "a larger sample will be needed to confirm this trend",
    "the observations were obtained over several campaigns",
    "instrumental effects were removed using calibration frames",
    "we compare our results with previously published catalogs",
    "the fitting procedure converged for the vast majority of sources",
    "the residuals show no significant structure",
    "we adopt standard cosmological parameters throughout",
)

_BODY_NOISE = (
    "see equation twelve for the full derivation",
    "the left panel of figure four shows the distribution",
    "table three lists the measured quantities for the sample",
    "the formal reduced chi squared of the fit is acceptable",
    "appendix b describes the completeness correction",
    "the covariance matrix was estimated with bootstrap resampling",
)


@dataclass
class SectionSpec:
    """How many facts and filler sentences a section carries."""

    n_facts: int
    n_filler: int


@dataclass
class PaperSpec:
    """Per-section fact/filler densities."""

    abstract: SectionSpec = field(default_factory=lambda: SectionSpec(2, 2))
    introduction: SectionSpec = field(default_factory=lambda: SectionSpec(3, 5))
    conclusion: SectionSpec = field(default_factory=lambda: SectionSpec(2, 3))
    body: SectionSpec = field(default_factory=lambda: SectionSpec(6, 24))


@dataclass
class SyntheticPaper:
    """One generated paper."""

    paper_id: str
    year: int
    month: int
    topic: str
    title: str
    abstract: str
    introduction: str
    conclusion: str
    body: str
    fact_ids: List[int]  # all facts realized anywhere in the paper
    abstract_fact_ids: List[int]
    aic_fact_ids: List[int]  # facts in abstract+intro+conclusion

    @property
    def aic_text(self) -> str:
        return " ".join([self.abstract, self.introduction, self.conclusion])

    @property
    def full_text(self) -> str:
        return " ".join(
            [self.abstract, self.introduction, self.body, self.conclusion]
        )


class PaperGenerator:
    """Generates papers whose facts come from one topic of a knowledge base."""

    def __init__(
        self,
        knowledge: KnowledgeBase,
        spec: Optional[PaperSpec] = None,
        seed: int = 0,
    ) -> None:
        self.knowledge = knowledge
        self.spec = spec or PaperSpec()
        self.seed = seed

    # ------------------------------------------------------------------
    def _filler(self, rng: np.random.Generator, n: int, pool=_FILLER_OPENERS) -> List[str]:
        idx = rng.integers(0, len(pool), size=n)
        return [pool[i] + " ." for i in idx]

    def _realize(self, facts: Sequence[Fact], rng: np.random.Generator) -> List[str]:
        return [f.statement(int(rng.integers(0, 4))) for f in facts]

    def _compose(
        self,
        facts: Sequence[Fact],
        n_filler: int,
        rng: np.random.Generator,
        noise_pool=_FILLER_OPENERS,
    ) -> str:
        sentences = self._realize(facts, rng) + self._filler(rng, n_filler, noise_pool)
        order = rng.permutation(len(sentences))
        return " ".join(sentences[i] for i in order)

    # ------------------------------------------------------------------
    def generate(self, index: int, year: int, month: int) -> SyntheticPaper:
        """Generate paper ``index`` (deterministic in (seed, index))."""
        rng = new_rng(self.seed, "paper", index)
        topics = self.knowledge.topics
        topic = topics[int(rng.integers(0, len(topics)))]
        pool = self.knowledge.facts_for_topic(topic)
        spec = self.spec
        need = (
            spec.abstract.n_facts
            + spec.introduction.n_facts
            + spec.conclusion.n_facts
            + spec.body.n_facts
        )
        if not pool:
            raise ValueError(f"topic {topic!r} has no facts")
        # sample with replacement if the topic pool is small; a fact may
        # appear in several sections (as real abstracts restate results).
        replace = len(pool) < need
        chosen_idx = rng.choice(len(pool), size=need, replace=replace)
        chosen = [pool[i] for i in chosen_idx]
        a, b, c = spec.abstract.n_facts, spec.introduction.n_facts, spec.conclusion.n_facts
        abstract_facts = chosen[:a]
        intro_facts = chosen[a : a + b]
        concl_facts = chosen[a + b : a + b + c]
        body_facts = chosen[a + b + c :]

        abstract = self._compose(abstract_facts, spec.abstract.n_filler, rng)
        introduction = self._compose(intro_facts, spec.introduction.n_filler, rng)
        conclusion = self._compose(concl_facts, spec.conclusion.n_filler, rng)
        body = self._compose(body_facts, spec.body.n_filler, rng, _BODY_NOISE)

        title = f"on the {chosen[0].quantity} of {chosen[0].subject}"
        aic_ids = sorted(
            {f.fact_id for f in abstract_facts + intro_facts + concl_facts}
        )
        return SyntheticPaper(
            paper_id=f"astro-ph/{year % 100:02d}{month:02d}.{index:05d}",
            year=year,
            month=month,
            topic=topic,
            title=title,
            abstract=abstract,
            introduction=introduction,
            conclusion=conclusion,
            body=body,
            fact_ids=sorted({f.fact_id for f in chosen}),
            abstract_fact_ids=sorted({f.fact_id for f in abstract_facts}),
            aic_fact_ids=aic_ids,
        )
