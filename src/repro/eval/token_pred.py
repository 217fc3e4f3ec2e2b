"""The next-token benchmarking method (Sections V-B / V-C).

Two-shot prompt ending in ``Answer :``; the model's next-token logits are
restricted to the four answer letters and the argmax is the prediction.
Temperature is fixed at 0 (argmax) per the paper.

**Dynamic answer-token discovery**: tokenizers differ in whether the letter
after ``Answer:`` is a bare token (``"A"``) or a space-prefixed one
(``" A"``).  Following the paper, the correct representation is discovered
by "examining the top ten tokens in the model's output" on probe prompts:
whichever convention's candidate ids dominate the top-10 is adopted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence

import numpy as np

from repro.corpus.knowledge import ANSWER_LETTERS
from repro.eval.prompts import (
    format_next_token_prompt,
    format_next_token_scaffold,
    format_next_token_suffix,
)
from repro.mcq.generation import MCQuestion
from repro.model.kv_cache import PrefixCache, shared_prefix
from repro.model.transformer import TransformerLM


class CausalLM(Protocol):
    def next_token_logits(self, tokens: np.ndarray) -> np.ndarray: ...


class TokenizerLike(Protocol):
    def encode(self, text: str, add_bos: bool = ..., add_eos: bool = ...) -> List[int]: ...
    def answer_token_candidates(self, letter: str) -> Dict[str, int]: ...


@dataclass(frozen=True)
class AnswerTokenMap:
    """Resolved token id for each answer letter."""

    ids: Dict[str, int]  # letter -> token id
    convention: str  # "bare" | "space-prefixed"

    def letter_ids(self) -> List[int]:
        return [self.ids[letter] for letter in ANSWER_LETTERS]


def _candidates_by_convention(
    tokenizer: TokenizerLike,
) -> Dict[str, Dict[str, int]]:
    """Candidate letter->id maps per convention, complete conventions only."""
    conventions: Dict[str, Dict[str, int]] = {}
    for letter in ANSWER_LETTERS:
        for name, token_id in tokenizer.answer_token_candidates(letter).items():
            conventions.setdefault(name, {})[letter] = token_id
    return {
        name: mapping
        for name, mapping in conventions.items()
        if len(mapping) == len(ANSWER_LETTERS)
    }


def discover_answer_tokens(
    model: CausalLM,
    tokenizer: TokenizerLike,
    probe_questions: Sequence[MCQuestion],
    few_shot: Sequence[MCQuestion] = (),
    top_k: int = 10,
    prefix_ids: Sequence[int] = (),
) -> AnswerTokenMap:
    """Pick the letter-token convention the model actually uses.

    For each probe question the top-``top_k`` next-token ids are collected;
    each complete convention is scored by how often its candidate ids show
    up.  Ties (or no hits at all) fall back to the convention supported by
    the vocabulary, preferring bare tokens.
    """
    conventions = _candidates_by_convention(tokenizer)
    if not conventions:
        raise ValueError("tokenizer exposes no complete answer-letter convention")
    if len(conventions) == 1:
        name, mapping = next(iter(conventions.items()))
        return AnswerTokenMap(mapping, name)

    scores = {name: 0 for name in conventions}
    for question in probe_questions:
        # Probes are drawn from the few-shot pool; a probe must not appear
        # as a solved example inside its own prompt (answer leakage).
        shots = [s for s in few_shot if s.question_id != question.question_id]
        prompt = format_next_token_prompt(question, shots)
        tokens = np.asarray(
            list(prefix_ids) + tokenizer.encode(prompt), dtype=np.int64
        )
        logits = model.next_token_logits(tokens)
        k = min(top_k, logits.shape[-1])
        top_ids = set(np.argpartition(logits, -k)[-k:].tolist())
        for name, mapping in conventions.items():
            scores[name] += sum(1 for tid in mapping.values() if tid in top_ids)
    best = max(scores.items(), key=lambda kv: (kv[1], kv[0] == "bare"))
    return AnswerTokenMap(conventions[best[0]], best[0])


class TokenPredictionEvaluator:
    """Evaluate one model on one benchmark with the next-token method."""

    def __init__(
        self,
        model: TransformerLM,
        tokenizer: TokenizerLike,
        few_shot: Sequence[MCQuestion],
        answer_map: Optional[AnswerTokenMap] = None,
        n_probe: int = 4,
        prefix_ids: Sequence[int] = (),
        batch_size: int = 32,
    ) -> None:
        """``prefix_ids`` lets callers prepend the document-boundary token
        the model actually saw during packed training (micro models never
        see BOS, only EOS separators).  ``batch_size`` bounds how many
        question suffixes :meth:`predict_many` scores per forward."""
        self.model = model
        self.tokenizer = tokenizer
        self.few_shot = list(few_shot)
        self.prefix_ids = list(prefix_ids)
        self.batch_size = max(1, batch_size)
        self._prefix_cache: Optional[PrefixCache] = None
        if answer_map is None:
            probes = self.few_shot or []
            answer_map = discover_answer_tokens(
                model,
                tokenizer,
                probes[: max(n_probe, 1)],
                self.few_shot,
                prefix_ids=self.prefix_ids,
            )
        self.answer_map = answer_map

    def _prompt_ids(self, question: MCQuestion) -> List[int]:
        prompt = format_next_token_prompt(question, self.few_shot)
        return self.prefix_ids + self.tokenizer.encode(prompt)

    def predict(self, question: MCQuestion) -> int:
        """Return the predicted option index (0..3) for one question."""
        tokens = np.asarray(self._prompt_ids(question), dtype=np.int64)
        logits = self.model.next_token_logits(tokens)
        letter_logits = [logits[tid] for tid in self.answer_map.letter_ids()]
        return int(np.argmax(letter_logits))

    # ------------------------------------------------------------------
    def _split_prompts(
        self, questions: Sequence[MCQuestion]
    ) -> tuple:
        """``(shared_ids, per_question_suffix_ids)`` for the batched path.

        Fast path: encode the question-independent scaffold once and only
        each question's tail.  The split is *verified* against the
        sequential path's full encoding on the first question — if the
        tokenizer merges across the boundary (so the concatenation is not
        bit-identical), every prompt is fully encoded and the exact
        longest common token prefix is used instead.
        """
        scaffold_ids = self.prefix_ids + self.tokenizer.encode(
            format_next_token_scaffold(self.few_shot)
        )
        suffixes = [
            self.tokenizer.encode(format_next_token_suffix(q)) for q in questions
        ]
        if scaffold_ids + suffixes[0] == self._prompt_ids(questions[0]):
            return scaffold_ids, suffixes
        encoded = [self._prompt_ids(q) for q in questions]
        common = shared_prefix(encoded)
        return common, [ids[len(common) :] for ids in encoded]

    def _prefix_cache_for(self, shared_ids: List[int]) -> Optional[PrefixCache]:
        """Prefill the shared prompt prefix exactly once per (model, shots)."""
        if not shared_ids:
            return None
        cached = self._prefix_cache
        if cached is not None and tuple(shared_ids) == cached.token_ids:
            return cached
        self._prefix_cache = self.model.prefill(shared_ids)
        return self._prefix_cache

    def predict_many(self, questions: Sequence[MCQuestion]) -> List[int]:
        """Batched :meth:`predict`: same predictions, one forward per batch.

        The shared two-shot scaffold is forwarded exactly once
        (:meth:`TransformerLM.prefill`) and the per-question suffixes are
        scored in padded batches (:meth:`TransformerLM.next_token_logits_many`).
        """
        if not questions:
            return []
        shared_ids, suffixes = self._split_prompts(questions)
        prefix = self._prefix_cache_for(shared_ids)
        pad_id = getattr(getattr(self.tokenizer, "vocab", None), "pad_id", 0)
        letter_ids = self.answer_map.letter_ids()
        # Batch similar lengths together (stable sort) so each padded
        # forward wastes as little work as possible; per-row results are
        # padding-independent, so this cannot change any prediction.
        order = sorted(range(len(suffixes)), key=lambda i: len(suffixes[i]))
        predictions: List[int] = [0] * len(suffixes)
        for i in range(0, len(order), self.batch_size):
            chunk = order[i : i + self.batch_size]
            logits = self.model.next_token_logits_many(
                [suffixes[j] for j in chunk], prefix=prefix, pad_id=pad_id
            )
            picks = np.argmax(logits[:, letter_ids], axis=-1)
            for j, pick in zip(chunk, picks):
                predictions[j] = int(pick)
        return predictions
