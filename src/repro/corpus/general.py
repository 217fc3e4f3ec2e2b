"""General-domain pretraining text.

Base models (the LLaMA analogues) pretrain on general-world fact
statements, **MCQ-format exercises** and everyday filler prose;
``BasePretrainer._epoch_documents`` (:mod:`repro.core.pretrain`)
assembles the mixture.  Web text full of quizzes is how real base models
acquire the ``Question ... Answer: X`` pattern that the paper's two-shot
next-token method exploits.  This module holds the pieces:
:func:`render_mcq_exercise`, whose format matches the evaluation prompt
exactly (see :mod:`repro.eval.prompts`), closing the loop that makes the
base-model token benchmark meaningful for micro models, and the everyday
filler sentences.
"""

from __future__ import annotations

import numpy as np

from repro.corpus.knowledge import ANSWER_LETTERS, Fact

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


def render_mcq_exercise(fact: Fact, rng: np.random.Generator) -> str:
    """Realize a fact as quiz text in the evaluation's exact format."""
    options, correct_idx = fact.option_values_shuffled(rng)
    lines = [f"Question : {fact.question()}"]
    for letter, value in zip(ANSWER_LETTERS, options):
        lines.append(f"{letter} : {value}")
    lines.append(f"Answer : {ANSWER_LETTERS[correct_idx]}")
    return "\n".join(lines)
