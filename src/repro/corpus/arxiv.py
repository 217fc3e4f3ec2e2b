"""The synthetic astro-ph archive.

A dated collection of generated papers spanning arXiv's lifetime
(1992 onward), queryable by date — the stand-in for "all arXiv papers from
the astro-ph category, from the inception of arXiv up to July 2023"
(the paper's AIC cutoff) and "up to January 2024" (the OCR cutoff).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Set, Tuple

from repro.corpus.generator import PaperGenerator, PaperSpec, SyntheticPaper
from repro.corpus.knowledge import KnowledgeBase


@dataclass(frozen=True)
class ArchiveCutoffs:
    """The two data cutoffs used by the paper's pipelines."""

    aic: Tuple[int, int] = (2023, 7)  # LaTeX-source pipeline cutoff
    ocr: Tuple[int, int] = (2024, 1)  # Nougat OCR pipeline cutoff


class ArxivArchive:
    """Deterministic archive of ``n_papers`` spread uniformly over time."""

    START_YEAR = 1992

    def __init__(
        self,
        knowledge: KnowledgeBase,
        n_papers: int = 400,
        end: Tuple[int, int] = (2024, 1),
        spec: Optional[PaperSpec] = None,
        seed: int = 0,
    ) -> None:
        if n_papers < 1:
            raise ValueError("n_papers must be >= 1")
        self.knowledge = knowledge
        self.generator = PaperGenerator(knowledge, spec, seed)
        self.papers: List[SyntheticPaper] = []
        months = self._month_range((self.START_YEAR, 1), end)
        for i in range(n_papers):
            year, month = months[int(i * len(months) / n_papers)]
            self.papers.append(self.generator.generate(i, year, month))

    @staticmethod
    def _month_range(
        start: Tuple[int, int], end: Tuple[int, int]
    ) -> List[Tuple[int, int]]:
        out = []
        y, m = start
        while (y, m) <= end:
            out.append((y, m))
            m += 1
            if m > 12:
                m, y = 1, y + 1
        return out

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.papers)

    def __iter__(self) -> Iterator[SyntheticPaper]:
        return iter(self.papers)

    def until(self, year: int, month: int) -> List[SyntheticPaper]:
        """Papers dated on or before (year, month) — a pipeline cutoff."""
        return [p for p in self.papers if (p.year, p.month) <= (year, month)]

    # ------------------------------------------------------------------
    def fact_coverage(self, sections: str = "aic") -> Set[int]:
        """Distinct fact ids realized across the archive's chosen sections.

        ``sections`` is ``"abstract"`` | ``"aic"`` | ``"full"``.
        """
        covered: Set[int] = set()
        for p in self.papers:
            if sections == "abstract":
                covered.update(p.abstract_fact_ids)
            elif sections == "aic":
                covered.update(p.aic_fact_ids)
            elif sections == "full":
                covered.update(p.fact_ids)
            else:
                raise ValueError(f"unknown sections {sections!r}")
        return covered

    def coverage_fraction(self, sections: str = "aic") -> float:
        return len(self.fact_coverage(sections)) / max(len(self.knowledge), 1)
