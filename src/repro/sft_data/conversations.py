"""Astronomy Q&A conversations (the GPT-4-from-abstracts analogue).

For each archive paper, questions are generated about the facts its
*abstract* realizes — matching the original pipeline, which prompted GPT-4
with abstracts only.  Assistant answers state the answer letter and then
the fact, the behaviour the full-instruct evaluation wants models to
produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.corpus.arxiv import ArxivArchive
from repro.corpus.knowledge import ANSWER_LETTERS, Fact, KnowledgeBase
from repro.train.sft import SFTExample
from repro.utils.rng import new_rng


def render_mcq_question(fact: Fact, rng: np.random.Generator) -> Dict[str, object]:
    """Shared MCQ realization for SFT and (held-out) evaluation."""
    options, correct_idx = fact.option_values_shuffled(rng)
    lines = [f"Question : {fact.question()}"]
    for letter, value in zip(ANSWER_LETTERS, options):
        lines.append(f"{letter} : {value}")
    return {
        "text": "\n".join(lines),
        "options": options,
        "correct_idx": correct_idx,
        "correct_letter": ANSWER_LETTERS[correct_idx],
    }


@dataclass
class AstroQAGenerator:
    """Generates astronomy SFT conversations from archive abstracts."""

    archive: ArxivArchive
    knowledge: KnowledgeBase
    seed: int = 0

    def generate(self, n_samples: int) -> List[SFTExample]:
        """Produce up to ``n_samples`` conversations (cycling the archive)."""
        fact_by_id = {f.fact_id: f for f in self.knowledge.facts}
        rng = new_rng(self.seed, "astro-qa")
        out: List[SFTExample] = []
        papers = self.archive.papers
        i = 0
        while len(out) < n_samples and papers:
            paper = papers[i % len(papers)]
            candidates = [
                fact_by_id[fid]
                for fid in paper.abstract_fact_ids
                if fid in fact_by_id
            ]
            i += 1
            if not candidates:
                continue
            fact = candidates[int(rng.integers(0, len(candidates)))]
            mcq = render_mcq_question(fact, rng)
            answer = (
                f"the answer is {mcq['correct_letter']} . "
                f"{fact.statement(int(rng.integers(0, 4)))}"
            )
            out.append(
                SFTExample(
                    user=str(mcq["text"]),
                    assistant=answer,
                    source="astro-qa",
                )
            )
        return out
