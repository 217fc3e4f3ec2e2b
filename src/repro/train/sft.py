"""Supervised fine-tuning (SFT) driver.

Turns conversations into (prompt, response) token pairs under a chat
template, then trains with the LM objective restricted to response tokens.
The paper's SFT recipe (Section III) is the run config CPT uses,
:class:`~repro.train.trainer.RunConfig`, with other numbers: learning rate
3e-7, total batch 48 and max token length 2048.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence, Tuple

from repro.model.transformer import TransformerLM
from repro.train.dataloader import PaddedBatch, pad_examples
from repro.train.trainer import RunConfig, TrainingHistory
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
class SFTConfig(RunConfig):
    """SFT hyperparameters; the defaults are the paper's SFT recipe."""

    learning_rate: float = 3e-7
    total_batch_size: int = 48
    max_token_length: int = 2048


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
        trainer = cfg.trainer(
            model, (len(examples) + cfg.microbatch_size - 1) // cfg.microbatch_size
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
            steps=trainer.config.total_steps,
            response_tokens=response_tokens,
            config=cfg,
        )
