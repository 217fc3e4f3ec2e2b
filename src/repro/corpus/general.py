"""The general-domain pretraining corpus.

Base models (the LLaMA analogues) pretrain on this mixture:

* general-world fact statements (paraphrased, repeated);
* **MCQ-format exercises** over general facts — web text full of quizzes is
  how real base models acquire the ``Question ... Answer: X`` pattern that
  the paper's two-shot next-token method exploits;
* a slice of the astronomy world (``astro_coverage``) — base LLaMAs do know
  astronomy; how much is a per-model capability knob;
* everyday filler prose.

The MCQ exercise realization matches the evaluation prompt format exactly
(see :mod:`repro.eval.prompts`), closing the loop that makes the base-model
token benchmark meaningful for micro models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.corpus.knowledge import ANSWER_LETTERS, Fact, KnowledgeBase
from repro.utils.rng import new_rng

_EVERYDAY = (
    "the market opens early in the morning and closes after sunset",
    "travelers often rest by the old stone bridge before the long climb",
    "the festival is held every spring when the rivers begin to thaw",
    "local craftsmen sell their goods along the central avenue",
    "the library keeps records dating back many generations",
    "farmers rotate their fields to keep the soil productive",
    "the harbor is busiest when the fishing fleet returns",
    "children learn the old songs during the winter months",
    "the council meets weekly to settle disputes and plan repairs",
    "merchants prefer the northern road because it is better maintained",
)


def render_mcq_exercise(
    fact: Fact, rng: np.random.Generator, include_answer: bool = True
) -> str:
    """Realize a fact as quiz text in the evaluation's exact format."""
    options, correct_idx = fact.option_values_shuffled(rng)
    lines = [f"Question : {fact.question()}"]
    for letter, value in zip(ANSWER_LETTERS, options):
        lines.append(f"{letter} : {value}")
    if include_answer:
        lines.append(f"Answer : {ANSWER_LETTERS[correct_idx]}")
    else:
        lines.append("Answer :")
    return "\n".join(lines)


@dataclass
class GeneralCorpusConfig:
    """Mixture knobs for base-model pretraining data."""

    fact_repetitions: int = 6  # statements per general fact
    mcq_exercise_repetitions: int = 3  # quiz renderings per general fact
    astro_coverage: float = 0.4  # fraction of astro facts included
    astro_repetitions: int = 4  # statements per included astro fact
    astro_mcq_repetitions: int = 1  # quiz renderings per included astro fact
    filler_documents: int = 50
    seed: int = 0


def build_general_corpus(
    general: KnowledgeBase,
    astro: Optional[KnowledgeBase] = None,
    config: Optional[GeneralCorpusConfig] = None,
) -> List[str]:
    """Assemble the pretraining document list (order deterministic)."""
    config = config or GeneralCorpusConfig()
    rng = new_rng(config.seed, "general-corpus")
    docs: List[str] = []

    for fact in general.facts:
        for rep in range(config.fact_repetitions):
            docs.append(fact.statement(rep))
        for rep in range(config.mcq_exercise_repetitions):
            docs.append(render_mcq_exercise(fact, rng))

    if astro is not None and config.astro_coverage > 0:
        n_astro = int(round(len(astro) * min(config.astro_coverage, 1.0)))
        order = new_rng(config.seed, "astro-subset").permutation(len(astro))
        for idx in order[:n_astro]:
            fact = astro.facts[idx]
            for rep in range(config.astro_repetitions):
                docs.append(fact.statement(rep))
            for rep in range(config.astro_mcq_repetitions):
                docs.append(render_mcq_exercise(fact, rng))

    for _ in range(config.filler_documents):
        n = int(rng.integers(2, 5))
        idx = rng.integers(0, len(_EVERYDAY), size=n)
        docs.append(" . ".join(_EVERYDAY[i] for i in idx) + " .")

    shuffled = new_rng(config.seed, "doc-order").permutation(len(docs))
    return [docs[i] for i in shuffled]
