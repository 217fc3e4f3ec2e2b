"""The decoder-only transformer language model."""

from __future__ import annotations

import copy
import functools
import math
import os
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.model.attention import MultiHeadAttention, PackedRows, RotaryEmbedding
from repro.model.config import ModelConfig
from repro.model.kv_cache import KVCache, PrefixCache
from repro.model.layers import Embedding, Linear, Module, RMSNorm
from repro.model.mlp import SwiGLU
from repro.model.workspace import workspace

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

#: A training batch, or a batch of prompts to score, of B rows runs as
#: ``min(SHARDS, B)`` contiguous row shards.  The bits depend on this
#: constant, never on how many threads run the shards or in which order
#: they finish.
SHARDS = 2


@functools.lru_cache(maxsize=None)
def _shard_pool(pid: int) -> Optional[ThreadPoolExecutor]:
    """The helper threads that run training and scoring shards in process
    ``pid`` (a forked child makes its own): shard 0 runs on the calling
    thread, so one fewer than the shards the usable cores run at once,
    and none on one core.  A thread starts on the pool's first task, and
    ``concurrent.futures`` is imported only here, so a process that never
    trains or scores a batch never loads it."""
    helpers = min(SHARDS, len(os.sched_getaffinity(0))) - 1
    if helpers < 1:
        return None
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(helpers, thread_name_prefix="shard")


def _run_shards(work: Callable[[int], None], n: int) -> None:
    """``work(i)`` for every shard ``i < n``: shard 0 on the calling
    thread, the others on the pool (in order on the calling thread when
    there is none).  ``work(i)`` writes only shard ``i``'s own outputs
    (its rows of an array the caller owns, or its lane's buffers), and
    the caller combines them in shard order.  A helper must call no
    traced entry point (``forward``, ``prefill``,
    ``next_token_logits_many``), only what those call.  Returns once
    every shard has finished, re-raising the first failure in shard
    order."""
    pool = _shard_pool(os.getpid()) if n > 1 else None
    if pool is None:
        for i in range(n):
            work(i)
        return
    from concurrent.futures import wait

    futures = [pool.submit(work, i) for i in range(1, n)]
    try:
        work(0)
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _token_shards(lengths: Sequence[int], n: int) -> List[slice]:
    """``n`` contiguous row shards of about equal token count: shard ``i``
    ends at the row where the running token count first reaches
    ``(i + 1) / n`` of the total, moved only as far as it takes to leave
    every shard a row.  The cut depends on the lengths and ``n`` alone."""
    ends = np.cumsum(lengths)
    cuts = [0]
    for i in range(1, n):
        at = int(np.searchsorted(ends * n, i * ends[-1])) + 1
        cuts.append(min(max(at, cuts[-1] + 1), len(lengths) - n + i))
    cuts.append(len(lengths))
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def _replica(module: Module) -> Module:
    """``module`` as a training lane holds it: every attribute is shared
    (parameter arrays, LoRA ``frozen_weight``, the RoPE tables), but the
    children are replicas, and the stash and gradient buffers are its
    own."""
    lane = copy.copy(module)
    lane._grads, lane._cache = {}, None
    twins = {id(child): _replica(child) for _, child in module._children}
    lane._children = [(name, twins[id(child)]) for name, child in module._children]
    for key, value in vars(module).items():
        if id(value) in twins:
            setattr(lane, key, twins[id(value)])
        elif isinstance(value, list) and any(id(v) in twins for v in value):
            setattr(lane, key, [twins.get(id(v), v) for v in value])
    return lane


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

    The training forward and backward split a batch's rows into
    ``min(SHARDS, B)`` contiguous shards.  Shard 0 runs on the model
    itself; each other shard runs on a *lane*, a replica that shares every
    array of the model and owns only its layers' stash and gradient
    buffers, on a helper thread when a second core is usable.  The lanes
    write their logits into one ``(B, T, vocab)`` array, so the loss is
    computed once over the whole batch, and their gradients are added
    into the model's in shard order.

    Usage for incremental decoding::

        cache = model.new_cache()
        logits = model.forward(prompt, cache=cache)          # prefill
        logits = model.forward(next_tok, start_pos=t, cache=cache)  # step

    A forward with a cache, :meth:`prefill`, the batched scoring of
    :meth:`next_token_logits_many` and :meth:`next_token_logits` run only
    the layers' pure calls: inference stashes
    no activations and allocates no gradient buffers, so it may run
    between a training forward and its :meth:`backward`.  Batched
    scoring splits its rows into ``min(SHARDS, B)`` contiguous shards of
    about equal token count and runs them on the same pool as training,
    but on the model itself: the pure calls write nothing on the layers
    and each thread has its own workspace, so scoring needs no lane.
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
        self._lanes: List[TransformerLM] = []  # built at the first sharded forward
        self._lane_params: Dict[str, np.ndarray] = {}  # the arrays they were built on
        self._shards: List[slice] = []  # the last training forward's row shards
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
        B = tokens.shape[0]
        n = min(SHARDS, B)
        lanes = self._train_lanes(n)
        rows = self._shards = [slice(B * i // n, B * (i + 1) // n) for i in range(n)]
        W = self.embed.params["weight"]
        logits = np.empty(tokens.shape + (self.config.vocab_size,), W.dtype)
        _run_shards(
            lambda i: lanes[i]._lane_forward(tokens[rows[i]], start_pos, out=logits[rows[i]]),
            n,
        )
        return logits

    def backward(self, dlogits: np.ndarray) -> None:
        """Backpropagate from logits gradient; accumulates parameter grads.

        Each shard of the last training forward backpropagates its rows of
        ``dlogits`` on its lane; shard 0 accumulates into the model's
        gradients, every other lane into its own zeroed buffers, which are
        then added into the model's in shard order."""
        rows = self._shards
        lanes = [self] + self._lanes[: len(rows) - 1]

        def shard(i: int) -> None:
            if i:
                lanes[i].zero_grad()
            lanes[i]._lane_backward(dlogits[rows[i]])

        _run_shards(shard, len(rows))
        if len(rows) > 1:
            grads = self.named_gradients()
            for lane in lanes[1:]:
                for name, g in lane.named_gradients().items():
                    grads[name] += g

    def _train_lanes(self, n: int) -> List["TransformerLM"]:
        """The model and ``n - 1`` lanes.  The lanes are (re)built when the
        model's parameter arrays are not the ones they were built on: at
        the first sharded forward, after ``apply_lora`` or ``merge_lora``
        swapped a layer, or after a parameter was rebound (a dtype
        change)."""
        if n > 1:
            live, held = self.named_parameters(), self._lane_params
            if held.keys() != live.keys() or any(held[k] is not a for k, a in live.items()):
                self._lanes = [self._new_lane() for _ in range(SHARDS - 1)]
                self._lane_params = live
        return [self] + self._lanes[: n - 1]

    def _new_lane(self) -> "TransformerLM":
        lane = _replica(self)
        lane._tied_cache, lane._lanes, lane._shards, lane._lane_params = None, [], [], {}
        return lane

    def _lane_forward(self, tokens: np.ndarray, start_pos: int, *, out: np.ndarray) -> None:
        """One shard's training forward, its logits written into ``out``;
        layer-level calls only, so it runs the same on any thread."""
        x = self.embed.forward(tokens)
        for block in self.blocks:
            x = block.forward(x, start_pos)
        self.head_forward(x, out=out)

    def _lane_backward(self, dlogits: np.ndarray) -> None:
        """Backward of :meth:`_lane_forward`, accumulating into this
        lane's gradients."""
        dx = self.head_backward(dlogits)
        for block in reversed(self.blocks):
            dx = block.backward(dx)
        self.embed.backward(dx)

    def head_forward(self, x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Training forward of the head: final norm, then the LM head or
        the tied embedding projection, written into ``out`` when given.
        Stashes what :meth:`head_backward` reads; the pipeline's last
        stage calls it too."""
        h = self.final_norm.forward(x)
        if self.lm_head is not None:
            return self.lm_head.forward(h, out=out)
        self._tied_cache = h
        return np.matmul(h, self.embed.params["weight"].T, out=out)

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

    def _project_logits(self, h: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Final norm + vocab projection for already-gathered positions,
        written into ``out`` when given; pure, for inference."""
        h = self.final_norm(h)
        if self.lm_head is not None:
            return self.lm_head(h, out=out)
        return np.matmul(h, self.embed.params["weight"].T, out=out)

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
        suffix is not forwarded; its row is ``prefix.last_logits``.

        The forwarded rows run as ``min(SHARDS, B)`` contiguous shards cut
        by token count (:func:`_token_shards`), shard 0 on the calling
        thread and the others on the shard pool; each shard projects into
        its own rows of the result.  A row's bits depend on its batch and
        its shard, never on the thread count.  Every temporary, the packed
        residual stream included, lives in the running thread's workspace
        (:mod:`repro.model.workspace`), so a warm call allocates little
        beyond its result, which is a fresh array.
        Returns ``(len(suffixes), vocab)``.
        """
        if not suffixes:
            return np.zeros((0, self.config.vocab_size), dtype=np.float32)
        start = prefix.length if prefix is not None else 0
        cache = prefix.cache if prefix is not None else None
        live = [i for i, s in enumerate(suffixes) if len(s)]
        rows = [suffixes[i] for i in live]
        if len(rows) < len(suffixes) and (prefix is None or prefix.last_logits is None):
            raise ValueError("empty suffix requires a prefix with logits")
        W = self.embed.params["weight"]
        scored = np.empty((len(rows), self.config.vocab_size), W.dtype)
        shards = _token_shards([len(r) for r in rows], min(SHARDS, len(rows))) if rows else []
        _run_shards(
            lambda i: self._project_logits(
                self._last_hidden(rows[shards[i]], start, cache), out=scored[shards[i]]
            ),
            len(shards),
        )
        if len(rows) == len(suffixes):
            return scored
        out = np.repeat(prefix.last_logits[None], len(suffixes), axis=0)
        out[live] = scored
        return out
