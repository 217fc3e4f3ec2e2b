"""Continual pretraining (CPT) driver.

Reproduces the paper's Section III recipe: pack the domain corpus, train
with the LM objective for one epoch (by default) under AdamW + warmup +
cosine decay + bf16.  The paper's hyperparameters are kept as named presets
(learning rate 2e-5, total batch 96/160, max token length 512/2048, warmup
ratio 0.03); the micro zoo scales the learning rate up because micro models
sit far from the converged regime of a real 70B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.model.transformer import TransformerLM
from repro.train.dataloader import PackedDataset, pack_documents
from repro.train.trainer import Trainer, TrainingConfig, TrainingHistory


@dataclass
class CPTConfig:
    """CPT hyperparameters.

    ``epochs`` converts to a step budget from the packed dataset size; the
    paper trains one epoch in all cases.
    """

    learning_rate: float = 2e-5
    total_batch_size: int = 96
    max_token_length: int = 512
    warmup_ratio: float = 0.03
    epochs: float = 1.0
    weight_decay: float = 0.0
    clip_norm: float = 1.0
    bf16: bool = True
    microbatch_size: int = 0  # 0 -> equal to total batch (no accumulation)
    seed: int = 0
    min_steps: int = 1

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.microbatch_size < 0:
            raise ValueError("microbatch_size must be >= 0")
        if self.microbatch_size == 0:
            self.microbatch_size = self.total_batch_size
        if self.total_batch_size % self.microbatch_size != 0:
            raise ValueError(
                "total_batch_size must be a multiple of microbatch_size"
            )

    @property
    def grad_accum(self) -> int:
        return self.total_batch_size // self.microbatch_size

    @classmethod
    def paper_8b(cls, **overrides) -> "CPTConfig":
        """Hyperparameters reported for AstroLLaMA-3-8B."""
        base = dict(
            learning_rate=2e-5,
            total_batch_size=96,
            max_token_length=512,
            warmup_ratio=0.03,
            epochs=1.0,
            bf16=True,
        )
        base.update(overrides)
        return cls(**base)

    @classmethod
    def paper_70b(cls, **overrides) -> "CPTConfig":
        """Hyperparameters reported for AstroLLaMA-2-70B."""
        base = dict(
            learning_rate=2e-5,
            total_batch_size=160,
            max_token_length=2048,
            warmup_ratio=0.03,
            epochs=1.0,
            bf16=True,
        )
        base.update(overrides)
        return cls(**base)


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
        micro_per_epoch = max(len(dataset), 1)
        steps_per_epoch = max(micro_per_epoch // cfg.grad_accum, 1)
        total_steps = max(int(round(steps_per_epoch * cfg.epochs)), cfg.min_steps)
        trainer = Trainer(
            model,
            TrainingConfig(
                learning_rate=cfg.learning_rate,
                total_steps=total_steps,
                warmup_ratio=cfg.warmup_ratio,
                grad_accum=cfg.grad_accum,
                clip_norm=cfg.clip_norm,
                weight_decay=cfg.weight_decay,
                bf16=cfg.bf16,
            ),
        )

        def make_batches():
            for inputs, targets in dataset.batches():
                yield inputs, targets, None

        history = trainer.train(make_batches)
        return CPTResult(
            history=history,
            dataset_tokens=int(windows.size - windows.shape[0]),
            windows=int(windows.shape[0]),
            steps=total_steps,
            config=cfg,
        )
