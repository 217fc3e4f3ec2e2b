"""Full-text summarization (the Qwen-2 / LLaMA-3.1 summarizer analogue).

The paper reduced every OCR'd paper to a 1,000-4,000-token summary,
"roughly equivalent to the AIC set in training tokens" but with detailed
knowledge beyond the AIC sections.  The simulated summarizer does exactly
what a good abstractive summarizer does to this corpus: it keeps the fact
sentences (the information) and drops most filler, optionally restating
facts in a normalized phrasing.

Information density is therefore higher than AIC *by construction*, which
is the property the paper's AstroLLaMA-3-8B-Summary results attribute the
reduced degradation to.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from repro.corpus.generator import SyntheticPaper, _FILLER_OPENERS, _BODY_NOISE
from repro.utils.rng import new_rng

_FACT_MARKERS = (
    " is ",
    " has a ",
    " to be ",
)

_FILLER_SET = {s + " ." for s in _FILLER_OPENERS} | {s + " ." for s in _BODY_NOISE}


def split_sentences(text: str) -> List[str]:
    """Split generated prose on sentence-final periods."""
    parts = [p.strip() for p in re.split(r"(?<=\.)\s+", text)]
    return [p for p in parts if p]


def looks_informative(sentence: str) -> bool:
    """Heuristic the simulated summarizer uses to keep a sentence.

    Generated filler comes from closed pools, so an exact-match test plus a
    fact-marker check mimics an LLM's (much softer) salience judgement.
    """
    if sentence in _FILLER_SET:
        return False
    return any(m in sentence for m in _FACT_MARKERS)


@dataclass
class Summarizer:
    """Compress papers to dense summaries.

    ``fact_recall`` is the probability a fact sentence survives
    summarization (LLM summarizers drop some content); ``filler_keep`` the
    probability a filler sentence leaks through; ``max_sentences`` caps the
    output (the 1k-4k token budget analogue).
    """

    fact_recall: float = 0.95
    filler_keep: float = 0.05
    max_sentences: int = 40
    seed: int = 0

    def summarize(self, paper: SyntheticPaper) -> str:
        rng = new_rng(self.seed, "summary", paper.paper_id)
        kept: List[str] = [f"summary of {paper.title} ."]
        seen = set()
        for sentence in split_sentences(paper.full_text):
            if sentence in seen:
                continue
            if looks_informative(sentence):
                if rng.random() < self.fact_recall:
                    kept.append(sentence)
                    seen.add(sentence)
            elif rng.random() < self.filler_keep:
                kept.append(sentence)
                seen.add(sentence)
            if len(kept) >= self.max_sentences:
                break
        return " ".join(kept)

    def compression_ratio(self, paper: SyntheticPaper) -> float:
        full = len(paper.full_text.split())
        summary = len(self.summarize(paper).split())
        return summary / max(full, 1)
