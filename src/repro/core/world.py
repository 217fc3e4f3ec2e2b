"""The micro world: one self-consistent universe for a whole experiment.

Bundles the two knowledge bases, the synthetic astro-ph archive, the MCQ
benchmark, and one tokenizer per model family (conventions differ), so
every zoo member trains and evaluates against the same closed world.

Two presets:

* ``MicroWorld.build_test()`` — tiny, for unit/integration tests;
* ``MicroWorld.build_bench()`` — the benchmark-harness size (larger fact
  base, more papers, more questions; minutes of training per model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.corpus.arxiv import ArxivArchive
from repro.corpus.general import render_mcq_exercise
from repro.corpus.knowledge import (
    KnowledgeBase,
    make_astro_knowledge,
    make_general_knowledge,
)
from repro.mcq.dataset import MCQBenchmark, build_benchmark
from repro.tokenizer import WordTokenizer
from repro.train.sft import ChatTemplate
from repro.utils.rng import new_rng


@dataclass
class WorldConfig:
    """Sizing of the micro world."""

    n_astro_facts: int = 64
    n_general_facts: int = 40
    n_papers: int = 120
    n_articles: int = 20
    questions_per_article: int = 5
    facts_per_article: int = 6
    dev_size: int = 6
    subject_multiplier: int = 4
    vocab_size: int = 6000
    seed: int = 0


@dataclass
class MicroWorld:
    """Everything an experiment needs, built deterministically from a seed."""

    config: WorldConfig
    astro: KnowledgeBase
    general: KnowledgeBase
    archive: ArxivArchive
    benchmark: MCQBenchmark
    tokenizers: Dict[str, WordTokenizer]  # family name -> tokenizer

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, config: Optional[WorldConfig] = None) -> "MicroWorld":
        config = config or WorldConfig()
        astro = make_astro_knowledge(
            n_facts=config.n_astro_facts,
            seed=config.seed,
            subject_multiplier=config.subject_multiplier,
        )
        general = make_general_knowledge(
            n_facts=config.n_general_facts,
            seed=config.seed,
            subject_multiplier=config.subject_multiplier,
        )
        archive = ArxivArchive(astro, n_papers=config.n_papers, seed=config.seed + 1)
        benchmark = build_benchmark(
            astro,
            n_articles=config.n_articles,
            questions_per_article=config.questions_per_article,
            facts_per_article=config.facts_per_article,
            dev_size=config.dev_size,
            seed=config.seed + 2,
        )
        vocab_text = cls._vocab_text(astro, general, config.seed)
        tokenizers = {
            "llama-2": WordTokenizer.train(
                vocab_text, vocab_size=config.vocab_size, space_prefix=False
            ),
            "llama-3": WordTokenizer.train(
                vocab_text, vocab_size=config.vocab_size, space_prefix=True
            ),
        }
        return cls(
            config=config,
            astro=astro,
            general=general,
            archive=archive,
            benchmark=benchmark,
            tokenizers=tokenizers,
        )

    @classmethod
    def build_test(cls, seed: int = 0) -> "MicroWorld":
        return cls.build(
            WorldConfig(
                n_astro_facts=32,
                n_general_facts=20,
                n_papers=36,
                n_articles=8,
                facts_per_article=5,
                dev_size=4,
                seed=seed,
            )
        )

    @classmethod
    def build_bench(cls, seed: int = 0) -> "MicroWorld":
        return cls.build(
            WorldConfig(
                n_astro_facts=64,
                n_general_facts=40,
                n_papers=140,
                n_articles=24,
                facts_per_article=6,
                dev_size=6,
                seed=seed,
            )
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _vocab_text(
        astro: KnowledgeBase, general: KnowledgeBase, seed: int
    ) -> List[str]:
        """Text spanning every token any pipeline stage can produce."""
        rng = new_rng(seed, "vocab-probe")
        texts: List[str] = []
        for kb in (astro, general):
            for f in kb.facts:
                texts.extend(f.statement(i) for i in range(4))
                texts.append(render_mcq_exercise(f, rng))
        template = ChatTemplate()
        texts.append(template.render_full("placeholder", "placeholder"))
        texts.append(
            "Astrophysics and Cosmology Multiple choice questions Solution set :"
        )
        texts.append(
            "the answer is A . let us think step by step . therefore so the "
            "value is . could you tell me about ? do you have any advice about"
        )
        # SFT chitchat vocabulary
        from repro.sft_data.lima import _CLOSERS, _LEAD_INS
        from repro.sft_data.ultrachat import _ADVICE, _OPENERS, _TOPICS
        from repro.corpus.general import _EVERYDAY
        from repro.corpus.generator import _BODY_NOISE, _FILLER_OPENERS

        texts.extend(_LEAD_INS + _CLOSERS + _TOPICS + _OPENERS + _ADVICE)
        texts.extend(_EVERYDAY + _FILLER_OPENERS + _BODY_NOISE)
        texts.append("summary of on the of .")
        texts.append(
            "this review surveys recent progress on . a consensus has emerged "
            "over the past decade : multiple independent groups now agree on "
            "this picture the field has converged on the following view this "
            "has been confirmed across several surveys the evidence assembled "
            "in this review supports the interpretation"
        )
        # Close the vocabulary under both word forms: under the space-prefix
        # convention a word is a *different token* at document start than
        # mid-text, and any word can start a packed document.  Emit every
        # word once standalone (bare form) and once space-preceded
        # (marker form) so neither convention ever hits <unk>.
        words = sorted({w for t in texts for w in t.split()})
        texts.extend(words)
        texts.extend(". " + w for w in words)
        return texts

    # ------------------------------------------------------------------
    def tokenizer_for(self, family_name: str) -> WordTokenizer:
        if family_name not in self.tokenizers:
            raise KeyError(f"unknown family {family_name!r}")
        return self.tokenizers[family_name]

    def covered_fact_ids(self, coverage: float, stream: str = "base") -> List[int]:
        """Deterministic astro-fact subset a base corpus exposes."""
        if not 0 <= coverage <= 1:
            raise ValueError("coverage must be in [0, 1]")
        n = int(round(len(self.astro) * coverage))
        order = new_rng(self.config.seed, "coverage", stream).permutation(
            len(self.astro)
        )
        return sorted(self.astro.facts[i].fact_id for i in order[:n])
