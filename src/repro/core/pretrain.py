"""Streaming base-model pretraining.

Base LLMs see effectively infinite data: no quiz rendering repeats, so the
only way to lower loss on answer letters is the general match-and-emit
circuit, and the only way to lower loss on fact values is parametric
binding.  The pretrainer regenerates its document mix with fresh option
shuffles every epoch to live in that regime.

Per-epoch mixture:

* every general fact: one statement + two fresh quiz renderings;
* every *covered* astro fact (the entry's ``base_astro_coverage``): one
  statement + one fresh quiz rendering;
* filler documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

import numpy as np

from repro.core.world import MicroWorld
from repro.core.zoo import ModelZooEntry
from repro.corpus.general import _EVERYDAY, render_mcq_exercise
from repro.model.config import ModelConfig, scaled_config
from repro.model.transformer import TransformerLM
from repro.tokenizer import WordTokenizer
from repro.train.dataloader import PackedDataset, pack_documents
from repro.train.trainer import Trainer, TrainingConfig, TrainingHistory
from repro.utils.rng import new_rng


@dataclass
class BasePretrainConfig:
    """Pretraining run knobs (independent of the zoo entry's identity)."""

    total_steps: Optional[int] = None  # None -> family default
    learning_rate: Optional[float] = None  # None -> family default
    batch_size: int = 16
    seq_len: int = 192
    warmup_ratio: float = 0.03
    general_exercises_per_fact: int = 2
    astro_exercises_per_fact: int = 1
    filler_documents: int = 12
    tie_embeddings: bool = True
    seed: int = 0


@dataclass
class PretrainedBase:
    """A base model plus the provenance needed by later stages."""

    entry: ModelZooEntry
    model: TransformerLM
    tokenizer: WordTokenizer
    covered_fact_ids: List[int]
    history: TrainingHistory

    @property
    def eos_id(self) -> int:
        return self.tokenizer.vocab.eos_id

    @property
    def prefix_ids(self) -> List[int]:
        """Document-boundary prefix for evaluation prompts."""
        return [self.eos_id]


class BasePretrainer:
    """Builds and trains the base model for one zoo entry."""

    def __init__(
        self,
        world: MicroWorld,
        config: Optional[BasePretrainConfig] = None,
    ) -> None:
        self.world = world
        self.config = config or BasePretrainConfig()

    # ------------------------------------------------------------------
    def model_config(self, entry: ModelZooEntry) -> ModelConfig:
        tokenizer = self.world.tokenizer_for(entry.family.name)
        return scaled_config(
            vocab_size=tokenizer.vocab_size,
            scale=entry.tier,
            max_seq_len=self.config.seq_len,
            tie_embeddings=self.config.tie_embeddings,
        )

    QUIZ_HEADER = "Astrophysics and Cosmology Multiple choice questions Solution set :"
    GENERAL_HEADER = "Multiple choice questions Solution set :"

    def _epoch_documents(
        self, entry: ModelZooEntry, covered: Set[int], epoch: int
    ) -> List[str]:
        cfg = self.config
        rng = new_rng(cfg.seed, "pretrain", entry.family.name, entry.tier, epoch)
        docs: List[str] = []
        exercises: List[str] = []
        astro_exercises: List[str] = []
        for fact in self.world.general.facts:
            docs.append(fact.statement(int(rng.integers(0, 4))))
            for _ in range(cfg.general_exercises_per_fact):
                exercises.append(render_mcq_exercise(fact, rng))
        for fact in self.world.astro.facts:
            if fact.fact_id not in covered:
                continue
            docs.append(fact.statement(int(rng.integers(0, 4))))
            for _ in range(cfg.astro_exercises_per_fact):
                astro_exercises.append(render_mcq_exercise(fact, rng))
        # Exercises appear as multi-question "solution set" documents — the
        # web-quiz pattern the paper's two-shot prompt exploits — so the
        # few-shot evaluation format is in-distribution for base models.
        docs.extend(self._quiz_documents(exercises, self.GENERAL_HEADER, rng))
        docs.extend(self._quiz_documents(astro_exercises, self.QUIZ_HEADER, rng))
        for _ in range(cfg.filler_documents):
            n = int(rng.integers(2, 5))
            idx = rng.integers(0, len(_EVERYDAY), size=n)
            docs.append(" . ".join(_EVERYDAY[i] for i in idx) + " .")
        order = rng.permutation(len(docs))
        return [docs[i] for i in order]

    @staticmethod
    def _quiz_documents(
        exercises: List[str], header: str, rng: np.random.Generator
    ) -> List[str]:
        """Group exercises into 1-3-question quiz docs, most with a header."""
        order = rng.permutation(len(exercises))
        docs: List[str] = []
        i = 0
        while i < len(order):
            k = int(rng.integers(1, 4))
            block = [exercises[j] for j in order[i : i + k]]
            i += k
            if rng.random() < 0.7:
                docs.append(header + "\n" + "\n".join(block))
            else:
                docs.append("\n".join(block))
        return docs

    # ------------------------------------------------------------------
    def run(self, entry: ModelZooEntry, seed: int = 0) -> PretrainedBase:
        cfg = self.config
        tokenizer = self.world.tokenizer_for(entry.family.name)
        covered_ids = self.world.covered_fact_ids(
            entry.base_astro_coverage, stream=entry.family.name
        )
        covered = set(covered_ids)
        model = TransformerLM(self.model_config(entry), seed=seed)

        total_steps = cfg.total_steps or entry.family.base_train_steps
        lr = cfg.learning_rate or entry.family.base_lr
        epoch_counter = {"epoch": 0}
        eos = tokenizer.vocab.eos_id

        def make_batches():
            e = epoch_counter["epoch"]
            epoch_counter["epoch"] += 1
            docs = self._epoch_documents(entry, covered, e)
            token_docs = [tokenizer.encode(d) for d in docs]
            windows = pack_documents(token_docs, cfg.seq_len, eos)
            dataset = PackedDataset(windows, cfg.batch_size, seed=e)
            for inputs, targets in dataset.batches():
                yield inputs, targets, None

        trainer = Trainer(
            model,
            TrainingConfig(
                learning_rate=lr,
                total_steps=total_steps,
                warmup_ratio=cfg.warmup_ratio,
                clip_norm=1.0,
            ),
        )
        history = trainer.train(make_batches)
        return PretrainedBase(
            entry=entry,
            model=model,
            tokenizer=tokenizer,
            covered_fact_ids=covered_ids,
            history=history,
        )
