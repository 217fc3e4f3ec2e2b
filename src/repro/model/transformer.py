"""The decoder-only transformer language model."""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.model.attention import MultiHeadAttention, RotaryEmbedding
from repro.model.config import ModelConfig
from repro.model.kv_cache import KVCache, PrefixCache
from repro.model.layers import (
    Embedding,
    Linear,
    Module,
    RMSNorm,
    log_softmax,
    softmax,
)
from repro.model.mlp import SwiGLU


class TransformerBlock(Module):
    """Pre-norm residual block: ``x + attn(norm(x))``, ``x + mlp(norm(x))``."""

    def __init__(
        self, config: ModelConfig, rope: RotaryEmbedding, rng: np.random.Generator
    ) -> None:
        super().__init__()
        # GPT-2 trick: scale residual-writing projections by 1/sqrt(2L) so
        # the residual stream variance stays bounded with depth.
        out_std = config.init_std / math.sqrt(2.0 * config.n_layers)
        self.attn_norm = self.add_child(
            "attn_norm", RMSNorm(config.d_model, config.norm_eps)
        )
        self.attn = self.add_child(
            "attn",
            MultiHeadAttention(
                config.d_model,
                config.n_heads,
                rope,
                rng,
                init_std=config.init_std,
                out_init_std=out_std,
            ),
        )
        self.mlp_norm = self.add_child(
            "mlp_norm", RMSNorm(config.d_model, config.norm_eps)
        )
        self.mlp = self.add_child(
            "mlp",
            SwiGLU(
                config.d_model,
                config.d_ff,
                rng,
                init_std=config.init_std,
                out_init_std=out_std,
            ),
        )

    def forward(
        self,
        x: np.ndarray,
        start_pos: int = 0,
        cache: Optional[Dict[str, np.ndarray]] = None,
        extend_cache: bool = True,
    ) -> np.ndarray:
        x = x + self.attn.forward(
            self.attn_norm.forward(x), start_pos, cache, extend_cache
        )
        x = x + self.mlp.forward(self.mlp_norm.forward(x))
        return x

    def backward(self, dout: np.ndarray) -> np.ndarray:
        d_mlp = self.mlp_norm.backward(self.mlp.backward(dout))
        dout = dout + d_mlp
        d_attn = self.attn_norm.backward(self.attn.backward(dout))
        return dout + d_attn


class TransformerLM(Module):
    """LLaMA-style causal language model with manual backprop.

    Usage for training::

        logits = model.forward(tokens)
        loss, dlogits = model.cross_entropy(logits, targets, mask)
        model.backward(dlogits)      # accumulates into model grads

    Usage for incremental decoding::

        cache = model.new_cache()
        logits = model.forward(prompt, cache=cache)          # prefill
        logits = model.forward(next_tok, start_pos=t, cache=cache)  # step
    """

    def __init__(self, config: ModelConfig, seed: int = 0) -> None:
        super().__init__()
        self.config = config
        rng = np.random.default_rng(seed)
        self.rope = RotaryEmbedding(
            config.head_dim, config.max_seq_len, config.rope_theta
        )
        self.embed = self.add_child(
            "embed", Embedding(config.vocab_size, config.d_model, rng, config.init_std)
        )
        self.blocks: List[TransformerBlock] = []
        for i in range(config.n_layers):
            block = TransformerBlock(config, self.rope, rng)
            self.add_child(f"block{i}", block)
            self.blocks.append(block)
        self.final_norm = self.add_child(
            "final_norm", RMSNorm(config.d_model, config.norm_eps)
        )
        self.lm_head: Optional[Linear] = None
        if not config.tie_embeddings:
            self.lm_head = self.add_child(
                "lm_head",
                Linear(config.d_model, config.vocab_size, rng, init_std=config.init_std),
            )

    # ------------------------------------------------------------------
    def new_cache(self) -> KVCache:
        return [dict() for _ in self.blocks]

    def forward(
        self,
        tokens: np.ndarray,
        start_pos: int = 0,
        cache: Optional[KVCache] = None,
    ) -> np.ndarray:
        """Compute logits of shape ``(B, T, vocab)``.

        ``tokens`` is ``(B, T)`` int array.  When ``cache`` is given the
        forward is incremental (no training cache is kept).
        """
        tokens = np.asarray(tokens)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        return self._project_logits(self._hidden_states(tokens, start_pos, cache))

    def backward(self, dlogits: np.ndarray) -> None:
        """Backpropagate from logits gradient; accumulates parameter grads."""
        if self.lm_head is not None:
            dx = self.lm_head.backward(dlogits)
        else:
            W = self.embed.params["weight"]
            x = self._tied_cache
            self.embed.grads["weight"] += (
                dlogits.reshape(-1, dlogits.shape[-1]).T
                @ x.reshape(-1, x.shape[-1])
            )
            dx = dlogits @ W
        dx = self.final_norm.backward(dx)
        for block in reversed(self.blocks):
            dx = block.backward(dx)
        self.embed.backward(dx)

    # ------------------------------------------------------------------
    @staticmethod
    def cross_entropy(
        logits: np.ndarray,
        targets: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> Tuple[float, np.ndarray]:
        """Mean masked token cross-entropy and its gradient w.r.t. logits.

        ``mask`` (same shape as ``targets``) zeroes positions that should not
        contribute (padding, or prompt positions during SFT).  The returned
        gradient is already divided by the number of active positions, so a
        subsequent :meth:`backward` yields mean-loss gradients.
        """
        targets = np.asarray(targets)
        if targets.ndim == 1:
            targets = targets[None, :]
        B, T, V = logits.shape
        logp = log_softmax(logits, axis=-1)
        flat_logp = logp.reshape(-1, V)
        flat_t = targets.reshape(-1)
        picked = flat_logp[np.arange(flat_t.size), flat_t]
        if mask is None:
            mask_flat = np.ones_like(flat_t, dtype=np.float32)
        else:
            mask_flat = np.asarray(mask, dtype=np.float32).reshape(-1)
        denom = max(float(mask_flat.sum()), 1.0)
        loss = -float((picked * mask_flat).sum()) / denom

        probs = softmax(logits, axis=-1).reshape(-1, V)
        probs[np.arange(flat_t.size), flat_t] -= 1.0
        probs *= (mask_flat / denom)[:, None]
        return loss, probs.reshape(B, T, V)

    def loss_and_backward(
        self,
        tokens: np.ndarray,
        targets: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> float:
        """One fused training step helper: forward, CE loss, backward."""
        logits = self.forward(tokens)
        loss, dlogits = self.cross_entropy(logits, targets, mask)
        self.backward(dlogits)
        return loss

    def perplexity(
        self,
        tokens: np.ndarray,
        targets: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> float:
        logits = self.forward(tokens)
        loss, _ = self.cross_entropy(logits, targets, mask)
        return float(np.exp(min(loss, 30.0)))

    def next_token_logits(self, tokens: np.ndarray) -> np.ndarray:
        """Logits for the token following a single prompt (shape ``(vocab,)``)."""
        tokens = np.asarray(tokens)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        logits = self.forward(tokens)
        return logits[0, -1]

    # ------------------------------------------------------------------
    # shared-prefix / batched evaluation path
    # ------------------------------------------------------------------
    def _hidden_states(
        self,
        tokens: np.ndarray,
        start_pos: int = 0,
        cache: Optional[KVCache] = None,
        extend_cache: bool = True,
    ) -> np.ndarray:
        """Pre-norm residual stream after all blocks, shape ``(B, T, d)``."""
        x = self.embed.forward(tokens)
        for i, block in enumerate(self.blocks):
            x = block.forward(
                x,
                start_pos,
                cache[i] if cache is not None else None,
                extend_cache,
            )
        return x

    def _project_logits(self, h: np.ndarray) -> np.ndarray:
        """Final norm + vocab projection for already-gathered positions."""
        h = self.final_norm.forward(h)
        if self.lm_head is not None:
            return self.lm_head.forward(h)
        self._tied_cache = h  # the tied projection's input, for backward
        return h @ self.embed.params["weight"].T

    def prefill(self, token_ids: Sequence[int]) -> PrefixCache:
        """Forward a prompt prefix once; the result is reusable forever.

        The returned :class:`PrefixCache` carries the per-layer K/V
        tensors plus the next-token logits at the prefix boundary, and
        can be forked (and trimmed) for any continuation that shares the
        prefix.  Only the final position is
        projected to the vocabulary (the interior logits are never
        needed), so prefilling is cheaper than :meth:`forward`.
        """
        ids = tuple(int(t) for t in token_ids)
        if not ids:
            return PrefixCache((), self.new_cache(), None)
        cache = self.new_cache()
        x = self._hidden_states(np.asarray([ids], dtype=np.int64), cache=cache)
        logits = self._project_logits(x[:, -1])
        return PrefixCache(ids, cache, logits[0])

    def next_token_logits_many(
        self,
        suffixes: Sequence[Sequence[int]],
        prefix: Optional[PrefixCache] = None,
        pad_id: int = 0,
    ) -> np.ndarray:
        """Next-token logits for a whole batch of prompts in one forward.

        Each row of the result is the logits following ``prefix.token_ids
        + suffixes[i]``.  Suffixes are right-padded with ``pad_id`` (pads
        sit *after* each row's last real token, so the causal mask keeps
        them out of every real query's receptive field); each row's final
        real hidden state is gathered *before* the vocab projection, so
        only ``(B, vocab)`` logits are ever materialized.  The prefix
        cache is used read-only (``extend_cache=False``), so no per-batch
        key/value copies are made and the same :class:`PrefixCache` can
        score any number of batches.  Returns ``(len(suffixes), vocab)``.
        """
        if not suffixes:
            return np.zeros((0, self.config.vocab_size), dtype=np.float32)
        lengths = np.asarray([len(s) for s in suffixes], dtype=np.int64)
        if (lengths == 0).any():
            if prefix is None or prefix.last_logits is None:
                raise ValueError("empty suffix requires a prefix with logits")
        B = len(suffixes)
        T = int(lengths.max(initial=1))
        start = prefix.length if prefix is not None else 0
        tokens = np.full((B, T), pad_id, dtype=np.int64)
        for i, suffix in enumerate(suffixes):
            tokens[i, : len(suffix)] = suffix
        cache = prefix.cache if prefix is not None and start else None
        x = self._hidden_states(tokens, start_pos=start, cache=cache, extend_cache=False)
        last = x[np.arange(B), np.maximum(lengths - 1, 0)]
        out = self._project_logits(last)
        if (lengths == 0).any():
            out[lengths == 0] = prefix.last_logits  # type: ignore[union-attr]
        return out
