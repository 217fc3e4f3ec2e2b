"""SFT mixture assembly with the paper's exact ratios."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.corpus.arxiv import ArxivArchive
from repro.corpus.knowledge import KnowledgeBase
from repro.sft_data.conversations import AstroQAGenerator
from repro.sft_data.lima import LimaGenerator
from repro.sft_data.openorca import OpenOrcaGenerator
from repro.sft_data.ultrachat import UltraChatGenerator
from repro.train.sft import SFTExample
from repro.utils.rng import new_rng


@dataclass(frozen=True)
class MixtureSpec:
    """Sample counts per component.

    Defaults are the paper's: 10,356 astronomy conversations + LIMA (1,030)
    + 10,000 Open Orca + 10,000 UltraChat ~= 31k samples, about one-third
    astronomy-focused.  ``scaled`` shrinks all components proportionally
    for micro-zoo experiments.
    """

    astro_qa: int = 10356
    lima: int = 1030
    open_orca: int = 10000
    ultrachat: int = 10000

    @property
    def total(self) -> int:
        return self.astro_qa + self.lima + self.open_orca + self.ultrachat

    @property
    def astronomy_fraction(self) -> float:
        return self.astro_qa / self.total

    def scaled(self, factor: float) -> "MixtureSpec":
        if factor <= 0:
            raise ValueError("factor must be positive")
        return MixtureSpec(
            astro_qa=max(1, int(round(self.astro_qa * factor))),
            lima=max(1, int(round(self.lima * factor))),
            open_orca=max(1, int(round(self.open_orca * factor))),
            ultrachat=max(1, int(round(self.ultrachat * factor))),
        )


@dataclass
class SFTMixture:
    """The assembled conversation set plus composition statistics."""

    examples: List[SFTExample]
    spec: MixtureSpec

    def __len__(self) -> int:
        return len(self.examples)

    def counts_by_source(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for ex in self.examples:
            out[ex.source] = out.get(ex.source, 0) + 1
        return out

    @property
    def astronomy_fraction(self) -> float:
        if not self.examples:
            return 0.0
        astro = sum(1 for ex in self.examples if ex.is_astronomy())
        return astro / len(self.examples)

    def astronomy_only(self) -> List[SFTExample]:
        return [ex for ex in self.examples if ex.is_astronomy()]


def build_paper_mixture(
    archive: ArxivArchive,
    astro_knowledge: KnowledgeBase,
    general_knowledge: KnowledgeBase,
    spec: Optional[MixtureSpec] = None,
    seed: int = 0,
    shuffle: bool = True,
) -> SFTMixture:
    """Assemble the Section III SFT set (deterministically)."""
    spec = spec or MixtureSpec()
    examples: List[SFTExample] = []
    examples += AstroQAGenerator(archive, astro_knowledge, seed=seed).generate(
        spec.astro_qa
    )
    examples += LimaGenerator(general_knowledge, seed=seed).generate(spec.lima)
    examples += OpenOrcaGenerator(general_knowledge, seed=seed).generate(
        spec.open_orca
    )
    examples += UltraChatGenerator(seed=seed).generate(spec.ultrachat)
    if shuffle:
        order = new_rng(seed, "sft-mixture").permutation(len(examples))
        examples = [examples[i] for i in order]
    return SFTMixture(examples=examples, spec=spec)
