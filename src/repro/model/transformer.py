"""The decoder-only transformer language model."""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.model.attention import MultiHeadAttention, PackedRows, RotaryEmbedding
from repro.model.config import ModelConfig
from repro.model.kv_cache import KVCache, PrefixCache
from repro.model.layers import Embedding, Linear, Module, RMSNorm
from repro.model.mlp import SwiGLU
from repro.model.workspace import workspace


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

    def forward(self, x: np.ndarray, start_pos: int = 0) -> np.ndarray:
        """The training call: every layer stashes for :meth:`backward`."""
        h = self.attn.forward(self.attn_norm.forward(x), start_pos)
        h += x
        out = self.mlp.forward(self.mlp_norm.forward(h))
        out += h
        return out

    def __call__(
        self, x: np.ndarray, start_pos: int, cache: Dict[str, np.ndarray]
    ) -> np.ndarray:
        """The pure call: incremental, extending this layer's ``cache``."""
        h = self.attn(self.attn_norm(x), start_pos, cache)
        h += x
        out = self.mlp(self.mlp_norm(h))
        out += h
        return out

    def forward_rows(
        self,
        x: np.ndarray,
        rows: PackedRows,
        kp: Optional[np.ndarray],
        vp: Optional[np.ndarray],
        last_only: bool,
        *,
        store: Optional[Dict[str, np.ndarray]] = None,
    ) -> np.ndarray:
        """The block over packed rows (see
        :meth:`MultiHeadAttention.forward_rows`).  ``x`` is the packed
        ``(N, d)`` residual stream, which the block updates in place and
        returns; with ``last_only`` only each row's last token leaves the
        block, as a fresh ``(B, d)`` array.  The attention and then the
        MLP each run in one workspace scope, so they reuse the same
        bytes."""
        ws = workspace()
        with ws.scope():
            h = self.attn_norm(x, out=ws.take(x.shape, x.dtype))
            if last_only:
                x = x[rows.last]
            a = ws.take(x.shape, x.dtype)
            x += self.attn.forward_rows(h, rows, kp, vp, last_only, out=a, store=store)
        with ws.scope():
            h = self.mlp_norm(x, out=ws.take(x.shape, x.dtype))
            x += self.mlp(h, out=ws.take(x.shape, x.dtype))
        return x

    def backward(self, dout: np.ndarray) -> np.ndarray:
        d_mid = self.mlp_norm.backward(self.mlp.backward(dout))
        d_mid += dout
        d_in = self.attn_norm.backward(self.attn.backward(d_mid))
        d_in += d_mid
        return d_in


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

    A forward with a cache, :meth:`prefill`, the batched scoring of
    :meth:`next_token_logits_many` and :meth:`next_token_logits` run only
    the layers' pure calls: inference stashes
    no activations and allocates no gradient buffers, so it may run
    between a training forward and its :meth:`backward`.
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
        self._tied_cache: Optional[np.ndarray] = None  # tied projection input
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

        ``tokens`` is ``(B, T)`` int array.  Without ``cache`` this is the
        training forward, which stashes what :meth:`backward` reads.  With
        ``cache`` the forward is incremental and pure: it extends the
        cache and stashes nothing.
        """
        tokens = np.asarray(tokens)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        if cache is not None:
            x = self.embed(tokens)
            for i, block in enumerate(self.blocks):
                x = block(x, start_pos, cache[i])
            return self._project_logits(x)
        x = self.embed.forward(tokens)
        for block in self.blocks:
            x = block.forward(x, start_pos)
        return self.head_forward(x)

    def backward(self, dlogits: np.ndarray) -> None:
        """Backpropagate from logits gradient; accumulates parameter grads."""
        dx = self.head_backward(dlogits)
        for block in reversed(self.blocks):
            dx = block.backward(dx)
        self.embed.backward(dx)

    def head_forward(self, x: np.ndarray) -> np.ndarray:
        """Training forward of the head: final norm, then the LM head or
        the tied embedding projection.  Stashes what :meth:`head_backward`
        reads; the pipeline's last stage calls it too."""
        h = self.final_norm.forward(x)
        if self.lm_head is not None:
            return self.lm_head.forward(h)
        self._tied_cache = h
        return h @ self.embed.params["weight"].T

    def head_backward(self, dlogits: np.ndarray) -> np.ndarray:
        """Backward of :meth:`head_forward`: accumulates the head's (or the
        tied embedding's) gradient and returns the gradient at the final
        norm's input."""
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
        return self.final_norm.backward(dx)

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
        V = logits.shape[-1]
        # one max/shift/exp/sum serves the loss and the gradient
        e = logits - logits.max(axis=-1, keepdims=True)
        flat_t = targets.reshape(-1)
        rows = np.arange(flat_t.size)
        picked = e.reshape(-1, V)[rows, flat_t]  # shifted target logits
        np.exp(e, out=e)
        total = e.sum(axis=-1, keepdims=True)
        picked -= np.log(total).reshape(-1)  # log_softmax at the targets
        if mask is None:
            mask_flat = np.ones_like(flat_t, dtype=np.float32)
        else:
            mask_flat = np.asarray(mask, dtype=np.float32).reshape(-1)
        denom = max(float(mask_flat.sum()), 1.0)
        loss = -float((picked * mask_flat).sum()) / denom

        e /= total  # softmax
        probs = e.reshape(-1, V)
        probs[rows, flat_t] -= 1.0
        probs *= (mask_flat / denom)[:, None]
        return loss, e

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

    def next_token_logits(self, tokens: np.ndarray) -> np.ndarray:
        """Logits for the token following a single prompt (shape ``(vocab,)``).

        A forward over an empty throwaway cache: the same bits as the
        training forward (nothing to concatenate, mask offset 0), with
        nothing stashed."""
        return self.forward(tokens, cache=self.new_cache())[0, -1]

    # ------------------------------------------------------------------
    # prefill and batched scoring: hidden states at each row's last token
    # ------------------------------------------------------------------
    def _last_hidden(
        self,
        rows: Sequence[Sequence[int]],
        start: int = 0,
        cache: Optional[KVCache] = None,
        extend: bool = False,
    ) -> np.ndarray:
        """Pre-norm residual stream at each row's last token, ``(B, d)``.

        Every row (each non-empty) continues the same ``start`` tokens,
        whose keys/values ``cache`` holds with batch 1.  The rows are
        packed back to back, so every block before the last runs its
        projections, norms and MLP on real tokens only; the last block
        computes keys/values at every token but everything else only at
        each row's last token.  With ``extend`` the rows are one prompt
        (``B = 1``), ``cache`` is empty, and each layer's keys/values are
        stored in it read-only; otherwise ``cache`` is only read.  The
        stream lives in the thread's workspace and each block updates it
        in place; the returned ``(B, d)`` is fresh.
        """
        layout = PackedRows.of([len(r) for r in rows], start)
        ids = np.asarray([t for r in rows for t in r], dtype=np.int64)
        last = len(self.blocks) - 1
        W = self.embed.params["weight"]
        with workspace().scope() as ws:
            x = self.embed(ids, out=ws.take((ids.size, W.shape[1]), W.dtype))
            for i, block in enumerate(self.blocks):
                layer = cache[i] if cache is not None else {}
                x = block.forward_rows(
                    x, layout, layer.get("k"), layer.get("v"), i == last,
                    store=layer if extend else None,
                )
        return x  # the last block's fresh (B, d)

    def _project_logits(self, h: np.ndarray) -> np.ndarray:
        """Final norm + vocab projection for already-gathered positions;
        pure, for inference."""
        h = self.final_norm(h)
        if self.lm_head is not None:
            return self.lm_head(h)
        return h @ self.embed.params["weight"].T

    def prefill(self, token_ids: Sequence[int]) -> PrefixCache:
        """Forward a prompt prefix once; the result is reusable forever.

        The returned :class:`PrefixCache` carries the per-layer K/V
        tensors plus the next-token logits at the prefix boundary, all
        read-only, and can be forked (and trimmed) for any continuation
        that shares the prefix.  This is :meth:`next_token_logits_many`'s
        path with one row: every layer caches K/V at every position, but
        the last block runs its query, attention, output projection and
        MLP only at the final token, and only that token is projected to
        the vocabulary, so prefilling is cheaper than :meth:`forward`.
        Its temporaries live in the thread's workspace; the stored K/V
        are fresh copies.
        """
        ids = tuple(int(t) for t in token_ids)
        cache = self.new_cache()
        if not ids:
            return PrefixCache((), cache, None)
        h = self._last_hidden([ids], 0, cache, extend=True)
        logits = self._project_logits(h)[0]
        logits.flags.writeable = False
        return PrefixCache(ids, cache, logits)

    def next_token_logits_many(
        self,
        suffixes: Sequence[Sequence[int]],
        prefix: Optional[PrefixCache] = None,
    ) -> np.ndarray:
        """Next-token logits for a whole batch of prompts in one pass.

        Each row of the result is the logits following ``prefix.token_ids
        + suffixes[i]``.  The suffixes are packed without padding, so
        every projection, norm and MLP runs on real tokens only; they are
        laid out right-padded only inside attention, where a pad key sits
        after every real query and the causal mask hides it.  The last
        block runs its query, attention, output projection and MLP only
        at each row's final token, so only ``(B, d)`` hidden states and
        ``(B, vocab)`` logits are materialized there.  The prefix's
        read-only keys/values are never extended, so the same
        :class:`PrefixCache` can score any number of batches.  An empty
        suffix is not forwarded; its row is ``prefix.last_logits``.  Every
        temporary, the packed residual stream included, lives in the
        thread's workspace (:mod:`repro.model.workspace`), so a warm call
        allocates little beyond its result, which is a fresh array.
        Returns ``(len(suffixes), vocab)``.
        """
        if not suffixes:
            return np.zeros((0, self.config.vocab_size), dtype=np.float32)
        start = prefix.length if prefix is not None else 0
        cache = prefix.cache if prefix is not None else None
        live = [i for i, s in enumerate(suffixes) if len(s)]
        if len(live) == len(suffixes):
            return self._project_logits(self._last_hidden(suffixes, start, cache))
        if prefix is None or prefix.last_logits is None:
            raise ValueError("empty suffix requires a prefix with logits")
        out = np.repeat(prefix.last_logits[None], len(suffixes), axis=0)
        if live:
            rows = [suffixes[i] for i in live]
            out[live] = self._project_logits(self._last_hidden(rows, start, cache))
        return out
