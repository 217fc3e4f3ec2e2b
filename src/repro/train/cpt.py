"""Continual pretraining (CPT) driver.

Reproduces the paper's Section III recipe: pack the domain corpus, train
with the LM objective for one epoch (by default) under the shared
:class:`~repro.train.trainer.RunConfig` recipe (AdamW + warmup + cosine
decay + bf16).  The defaults are AstroLLaMA-3-8B's hyperparameters
(learning rate 2e-5, total batch 96, max token length 512) and
:meth:`CPTConfig.paper_70b` gives AstroLLaMA-2-70B's (total batch 160, max
token length 2048); the micro zoo scales the learning rate up because micro
models sit far from the converged regime of a real 70B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.model.transformer import TransformerLM
from repro.train.dataloader import PackedDataset, pack_documents
from repro.train.trainer import RunConfig, TrainingHistory


@dataclass
class CPTConfig(RunConfig):
    """CPT hyperparameters; the defaults are AstroLLaMA-3-8B's recipe."""

    learning_rate: float = 2e-5
    total_batch_size: int = 96
    max_token_length: int = 512

    @classmethod
    def paper_70b(cls, **overrides) -> "CPTConfig":
        """Hyperparameters reported for AstroLLaMA-2-70B."""
        base = {"total_batch_size": 160, "max_token_length": 2048}
        return cls(**{**base, **overrides})


@dataclass
class CPTResult:
    """Outcome of one CPT run."""

    history: TrainingHistory
    dataset_tokens: int
    windows: int
    steps: int
    config: CPTConfig


class ContinualPretrainer:
    """Runs CPT over pre-tokenized documents."""

    def __init__(self, config: Optional[CPTConfig] = None) -> None:
        self.config = config or CPTConfig()

    def run(
        self,
        model: TransformerLM,
        token_docs: Sequence[Sequence[int]],
        eos_id: int,
    ) -> CPTResult:
        cfg = self.config
        if not token_docs:
            raise ValueError("corpus produced no training windows")
        seq_len = min(cfg.max_token_length, model.config.max_seq_len)
        windows = pack_documents(token_docs, seq_len, eos_id)
        dataset = PackedDataset(windows, cfg.microbatch_size, seed=cfg.seed)
        trainer = cfg.trainer(model, len(dataset))

        def make_batches():
            for inputs, targets in dataset.batches():
                yield inputs, targets, None

        history = trainer.train(make_batches)
        return CPTResult(
            history=history,
            dataset_tokens=int(windows.size - windows.shape[0]),
            windows=int(windows.shape[0]),
            steps=trainer.config.total_steps,
            config=cfg,
        )
