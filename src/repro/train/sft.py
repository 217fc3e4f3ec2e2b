"""Supervised fine-tuning (SFT) driver.

Turns conversations into (prompt, response) token pairs under a chat
template, then trains with the LM objective restricted to response tokens.
The paper's SFT recipe (Section III): learning rate 3e-7, one epoch, total
batch 48, max token length 2048, warmup 0.03, cosine decay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence, Tuple

from repro.model.transformer import TransformerLM
from repro.train.dataloader import PaddedBatch, pad_examples
from repro.train.trainer import Trainer, TrainingConfig, TrainingHistory
from repro.utils.rng import new_rng


class TokenizerLike(Protocol):
    def encode(self, text: str, add_bos: bool = ..., add_eos: bool = ...) -> List[int]:
        ...


@dataclass(frozen=True)
class ChatTemplate:
    """Plain-text chat markup.

    The micro zoo uses in-vocabulary words rather than reserved control
    tokens so that base models (which have seen only prose) are not thrown
    fully out of distribution by the template — the same reason real chat
    templates reuse the base tokenizer's vocabulary.
    """

    user_prefix: str = "User :"
    assistant_prefix: str = "Assistant :"
    turn_separator: str = "\n"

    def render_prompt(self, user_message: str, system: str = "") -> str:
        parts = []
        if system:
            parts.append(system)
        parts.append(f"{self.user_prefix} {user_message}")
        parts.append(self.assistant_prefix)
        return self.turn_separator.join(parts)

    def render_full(self, user_message: str, assistant_message: str, system: str = "") -> str:
        return f"{self.render_prompt(user_message, system)} {assistant_message}"


@dataclass
class SFTExample:
    """One single-turn conversation."""

    user: str
    assistant: str
    system: str = ""
    source: str = ""  # provenance tag: "astro-qa" | "lima" | "open-orca" | ...

    def is_astronomy(self) -> bool:
        return self.source == "astro-qa"


@dataclass
class SFTConfig:
    """SFT hyperparameters (defaults = the paper's reported values)."""

    learning_rate: float = 3e-7
    total_batch_size: int = 48
    max_token_length: int = 2048
    warmup_ratio: float = 0.03
    epochs: float = 1.0
    clip_norm: float = 1.0
    weight_decay: float = 0.0
    bf16: bool = True
    microbatch_size: int = 0
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
            raise ValueError("total_batch_size must be a multiple of microbatch_size")

    @property
    def grad_accum(self) -> int:
        return self.total_batch_size // self.microbatch_size

    @classmethod
    def paper(cls, **overrides) -> "SFTConfig":
        base = dict(
            learning_rate=3e-7,
            total_batch_size=48,
            max_token_length=2048,
            warmup_ratio=0.03,
            epochs=1.0,
            bf16=True,
        )
        base.update(overrides)
        return cls(**base)


@dataclass
class SFTResult:
    history: TrainingHistory
    examples: int
    steps: int
    response_tokens: int
    config: SFTConfig


class SupervisedFineTuner:
    """Fine-tunes a model on chat conversations with prompt-loss masking."""

    def __init__(
        self,
        tokenizer: TokenizerLike,
        pad_id: int,
        eos_id: int,
        template: Optional[ChatTemplate] = None,
        config: Optional[SFTConfig] = None,
    ) -> None:
        self.tokenizer = tokenizer
        self.pad_id = pad_id
        self.eos_id = eos_id
        self.template = template or ChatTemplate()
        self.config = config or SFTConfig()

    # ------------------------------------------------------------------
    def tokenize_example(
        self, example: SFTExample, max_len: Optional[int] = None
    ) -> Tuple[List[int], List[int]]:
        """Return (prompt_ids, response_ids) for one conversation."""
        prompt_text = self.template.render_prompt(example.user, example.system)
        prompt_ids = self.tokenizer.encode(prompt_text, add_bos=True)
        response_ids = self.tokenizer.encode(example.assistant) + [self.eos_id]
        if max_len is not None and len(prompt_ids) + len(response_ids) > max_len:
            keep = max(max_len - len(response_ids), 8)
            prompt_ids = prompt_ids[:keep]
            response_ids = response_ids[: max(max_len - len(prompt_ids), 1)]
        return prompt_ids, response_ids

    def build_batches(
        self,
        examples: Sequence[SFTExample],
        batch_size: int,
        max_len: int,
        seed: int,
        epoch: int,
    ) -> List[PaddedBatch]:
        rng = new_rng(seed, "sft-epoch", epoch)
        order = rng.permutation(len(examples))
        batches: List[PaddedBatch] = []
        pairs = [self.tokenize_example(examples[i], max_len) for i in order]
        for start in range(0, len(pairs), batch_size):
            chunk = pairs[start : start + batch_size]
            if not chunk:
                break
            batches.append(pad_examples(chunk, self.pad_id, max_len))
        return batches

    # ------------------------------------------------------------------
    def run(
        self, model: TransformerLM, examples: Sequence[SFTExample]
    ) -> SFTResult:
        if not examples:
            raise ValueError("no SFT examples provided")
        cfg = self.config
        max_len = min(cfg.max_token_length, model.config.max_seq_len)
        micro_per_epoch = max(
            (len(examples) + cfg.microbatch_size - 1) // cfg.microbatch_size, 1
        )
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
        epoch_counter = {"epoch": 0}
        response_tokens = 0

        def make_batches():
            batches = self.build_batches(
                examples,
                cfg.microbatch_size,
                max_len,
                cfg.seed,
                epoch_counter["epoch"],
            )
            epoch_counter["epoch"] += 1
            for b in batches:
                yield b.inputs, b.targets, b.loss_mask

        history = trainer.train(make_batches)
        for ex in examples:
            _, resp = self.tokenize_example(ex, max_len)
            response_tokens += len(resp)
        return SFTResult(
            history=history,
            examples=len(examples),
            steps=total_steps,
            response_tokens=response_tokens,
            config=cfg,
        )
