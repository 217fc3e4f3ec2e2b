"""Autoregressive generation with KV caching.

The full-instruct benchmarking method generates up to 512 tokens per
question; the KV cache makes that linear rather than quadratic in the
response length.

:func:`generate` and the serving scheduler share one prompt-to-decode
path: :func:`clamp_prompt`, :func:`open_prompt`, :class:`DecodeStream`,
and :func:`decode_step`, the one loop that advances decoding rows.
:func:`generate` is a batch of one; the scheduler passes its whole
running batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.model.kv_cache import KVCache, PrefixCacheStore
from repro.model.layers import softmax
from repro.model.transformer import TransformerLM


@dataclass
class GenerationConfig:
    """Decoding controls.

    ``temperature == 0`` selects greedy argmax decoding (the paper sets
    temperature to 0.0 for the token-prediction benchmark and uses each
    model's default for full-instruct).
    """

    max_new_tokens: int = 64
    temperature: float = 0.0
    top_k: int = 0  # 0 -> no truncation
    top_p: float = 1.0  # 1.0 -> no nucleus truncation
    stop_token_ids: Sequence[int] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_new_tokens < 0:
            raise ValueError("max_new_tokens must be >= 0")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.top_k < 0:
            raise ValueError("top_k must be >= 0")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must be in (0, 1]")


def _select_token(
    logits: np.ndarray, config: GenerationConfig, rng: np.random.Generator
) -> int:
    if config.temperature == 0.0:
        return int(np.argmax(logits))
    scaled = logits / config.temperature
    if config.top_k > 0 and config.top_k < scaled.shape[-1]:
        # Exactly top_k survivors even under tied logits: order by
        # (logit desc, index asc) so ties at the k-th value break
        # deterministically toward lower token ids.
        order = np.lexsort((np.arange(scaled.shape[-1]), -scaled))
        kept = order[: config.top_k]
        truncated = np.full_like(scaled, np.float32(-1e9))
        truncated[kept] = scaled[kept]
        scaled = truncated
    if config.top_p < 1.0:
        # Nucleus truncation with the same tie-breaking discipline as
        # top_k: candidates are ranked (logit desc, index asc) and the
        # smallest prefix whose probability mass reaches top_p survives,
        # so tied logits at the nucleus boundary keep lower token ids.
        order = np.lexsort((np.arange(scaled.shape[-1]), -scaled))
        ranked = softmax(scaled[order][None, :])[0].astype(np.float64)
        cumulative = np.cumsum(ranked)
        cutoff = int(np.searchsorted(cumulative, config.top_p, side="left")) + 1
        kept = order[: min(cutoff, order.size)]
        truncated = np.full_like(scaled, np.float32(-1e9))
        truncated[kept] = scaled[kept]
        scaled = truncated
    probs = softmax(scaled[None, :])[0].astype(np.float64)
    probs = probs / probs.sum()
    return int(rng.choice(probs.size, p=probs))


def clamp_prompt(
    prompt_ids: Sequence[int], max_new_tokens: int, max_seq_len: int
) -> Tuple[Tuple[int, ...], int]:
    """``(prompt, budget)`` with prompt + budget within the context window.

    The budget is capped at ``max_seq_len - 1``; the prompt is truncated
    *from the left*, keeping the most recent context as serving stacks do.
    """
    budget = min(max_new_tokens, max(0, max_seq_len - 1))
    prompt = tuple(prompt_ids)
    keep = max_seq_len - budget
    if len(prompt) > keep:
        prompt = prompt[-keep:]
    if not prompt:
        raise ValueError("prompt must contain at least one token")
    return prompt, budget


class OpenedPrompt(NamedTuple):
    cache: KVCache  # a fork covering the whole prompt
    length: int  # prompt tokens the cache covers
    logits: np.ndarray  # next-token logits after the last prompt token
    forwarded: int  # prompt tokens this call ran through the model
    hit: int  # prompt tokens the store's best entry covered (0 on a miss)


def open_prompt(
    model: TransformerLM,
    prompt: Sequence[int],
    store: Optional[PrefixCacheStore] = None,
) -> OpenedPrompt:
    """Forward ``prompt``, reusing as much of it as ``store`` covers.

    With no covering entry this is one :meth:`TransformerLM.prefill`,
    which is kept in ``store``; an entry that is exactly the prompt needs
    no forward; otherwise the shared run (at most ``len(prompt) - 1``
    tokens) is forked and the rest forwarded.
    """
    match = store.match(prompt) if store is not None else None
    if match is None:
        fresh = model.prefill(prompt)
        if store is not None:
            store.put(fresh)
        return OpenedPrompt(
            fresh.fork(), len(prompt), fresh.last_logits, len(prompt), 0
        )
    prefix, overlap = match
    if overlap == prefix.length == len(prompt):
        return OpenedPrompt(
            prefix.fork(), len(prompt), prefix.last_logits, 0, overlap
        )
    reused = min(overlap, len(prompt) - 1)
    cache = prefix.fork(length=reused)
    logits = model.forward(
        np.asarray(prompt[reused:], dtype=np.int64), start_pos=reused, cache=cache
    )
    return OpenedPrompt(
        cache, len(prompt), logits[0, -1], len(prompt) - reused, overlap
    )


class DecodeStream:
    """One sequence's decode state: cache, step logits, position, rng.

    Only :func:`decode_step` drives it, for :func:`generate` and the
    serving scheduler alike, so a sequence's tokens and logits never
    depend on who else is decoding.
    """

    def __init__(
        self,
        model: TransformerLM,
        opened: OpenedPrompt,
        config: GenerationConfig,
        budget: int,
    ) -> None:
        self.model = model
        self.cache = opened.cache
        self.logits = opened.logits  # logits the next select() samples from
        self.pos = opened.length  # absolute position of the next forward
        self.config = config
        self.budget = budget
        self.emitted = 0
        self.rng = np.random.default_rng(config.seed)

    def select(self) -> Tuple[int, Optional[str]]:
        """The next token, and ``"stop"``/``"length"`` if decoding ends
        with it (else None).

        A budget from :func:`clamp_prompt` keeps ``pos`` inside the
        context window: ``"length"`` fires before the window fills.
        """
        tok = _select_token(self.logits, self.config, self.rng)
        self.emitted += 1
        if tok in self.config.stop_token_ids:
            return tok, "stop"
        if self.emitted >= self.budget:
            return tok, "length"
        return tok, None

    def advance(self, tok: int) -> None:
        """Forward ``tok`` so the next :meth:`select` can run."""
        logits = self.model.forward(
            np.asarray([[tok]], dtype=np.int64), start_pos=self.pos, cache=self.cache
        )
        self.logits = logits[0, -1]
        self.pos += 1


def decode_step(streams: Sequence[DecodeStream]) -> List[Tuple[int, Optional[str]]]:
    """One token for every stream: ``(token, finish reason or None)`` each.

    Selects every stream's token in order, then forwards each token that
    did not end its stream.  Rows are decoded one at a time, so a row's
    bits do not depend on the others.
    """
    picked = [stream.select() for stream in streams]
    for stream, (tok, reason) in zip(streams, picked):
        if reason is None:
            stream.advance(tok)
    return picked


def generate(
    model: TransformerLM,
    prompt_ids: Sequence[int],
    config: Optional[GenerationConfig] = None,
    store: Optional[PrefixCacheStore] = None,
) -> List[int]:
    """Generate a continuation of ``prompt_ids``; returns only new tokens.

    The prompt is left-truncated to fit the context window, then opened
    through ``store`` (see :func:`open_prompt`): the run of it a stored
    prefill covers is reused, and a miss's prefill is kept, which turns a
    benchmark's shared chat scaffold into a one-time cost.  Decoding is
    :func:`decode_step` over a batch of one.
    """
    config = config or GenerationConfig()
    prompt, budget = clamp_prompt(
        prompt_ids, config.max_new_tokens, model.config.max_seq_len
    )
    stream = DecodeStream(model, open_prompt(model, prompt, store), config, budget)
    out: List[int] = []
    for _ in range(budget):
        [(tok, reason)] = decode_step([stream])
        out.append(tok)
        if reason is not None:
            break
    return out
