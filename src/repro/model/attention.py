"""Multi-head causal self-attention with rotary position embeddings.

The whole attention computation is batched as ``(B, H, T, hd)`` einsum-free
matmuls; the causal mask is an additive ``-inf`` upper triangle shared across
batch and heads (a view, never copied per example).
"""

from __future__ import annotations

import functools
import math
from typing import Dict, NamedTuple, Optional, Sequence

import numpy as np

from repro.model.layers import Linear, Module, softmax
from repro.model.workspace import Workspace, workspace

NEG_INF = np.float32(-1e9)


class RotaryEmbedding:
    """Precomputed RoPE cos/sin tables.

    Uses the "two-halves" convention: for head dim ``d``, frequencies
    ``theta^{-2i/d}`` for ``i < d/2`` are applied to both halves, and the
    rotation is ``x*cos + rotate_half(x)*sin`` with
    ``rotate_half(x) = [-x2, x1]``.  The sign of ``rotate_half`` is folded
    into the table ``sin_signed = [-sin, sin]``, so a rotation is
    ``x*cos + [x2, x1]*sin_signed``: one concatenate and no negation pass,
    with the same bits, since IEEE products are sign-symmetric.
    """

    def __init__(self, head_dim: int, max_seq_len: int, theta: float = 10000.0):
        if head_dim % 2 != 0:
            raise ValueError("RoPE head_dim must be even")
        self.head_dim = head_dim
        self.max_seq_len = max_seq_len
        inv_freq = theta ** (
            -np.arange(0, head_dim, 2, dtype=np.float64) / head_dim
        )
        pos = np.arange(max_seq_len, dtype=np.float64)
        angles = np.outer(pos, inv_freq)  # (T, d/2)
        full = np.concatenate([angles, angles], axis=-1)  # (T, d)
        self.cos = np.cos(full).astype(np.float32)
        sin = np.sin(full).astype(np.float32)
        half = head_dim // 2
        self.sin_signed = np.concatenate([-sin[:, :half], sin[:, half:]], axis=-1)

    @staticmethod
    def _rotate(
        x: np.ndarray,
        cos: np.ndarray,
        sin: np.ndarray,
        inverse: bool = False,
        out: Optional[np.ndarray] = None,
        swapped: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``x*cos + rotate_half(x)*sin`` (``-`` if ``inverse``), ``sin``
        signed; the result and the half-swapped copy of ``x`` are written
        into ``out`` and ``swapped`` when given."""
        half = x.shape[-1] // 2
        t = np.concatenate([x[..., half:], x[..., :half]], axis=-1, out=swapped)
        t *= sin
        out = np.multiply(x, cos, out=out)
        if inverse:
            out -= t
        else:
            out += t
        return out

    def apply(self, x: np.ndarray, start_pos: int = 0) -> np.ndarray:
        """Rotate ``x`` of shape (..., T, head_dim) at absolute positions
        ``start_pos .. start_pos+T``."""
        T = x.shape[-2]
        if start_pos + T > self.max_seq_len:
            raise ValueError(
                f"positions {start_pos}..{start_pos + T} exceed max_seq_len="
                f"{self.max_seq_len}"
            )
        cos = self.cos[start_pos : start_pos + T]
        sin = self.sin_signed[start_pos : start_pos + T]
        return self._rotate(x, cos, sin)

    def apply_at(
        self,
        x: np.ndarray,
        positions: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Rotate ``x`` of shape (M, H, head_dim) whose row ``m`` sits at
        absolute position ``positions[m]``; written into ``out`` when
        given, with the temporary in the thread's workspace."""
        if positions.max(initial=0) >= self.max_seq_len:
            raise ValueError(
                f"position {positions.max()} exceeds max_seq_len={self.max_seq_len}"
            )
        cos = self.cos[positions][:, None, :]
        sin = self.sin_signed[positions][:, None, :]
        if out is None:
            return self._rotate(x, cos, sin)
        with workspace().scope() as ws:
            swapped = ws.take(x.shape, x.dtype)
            return self._rotate(x, cos, sin, out=out, swapped=swapped)

    def apply_backward(self, dout: np.ndarray, start_pos: int = 0) -> np.ndarray:
        """Gradient of :meth:`apply` (the rotation is orthogonal: R^T = -R)."""
        T = dout.shape[-2]
        cos = self.cos[start_pos : start_pos + T]
        sin = self.sin_signed[start_pos : start_pos + T]
        return self._rotate(dout, cos, sin, inverse=True)


def _frozen_copy(a: np.ndarray) -> np.ndarray:
    """A read-only copy of ``a`` with ``a``'s memory layout."""
    a = a.copy(order="K")
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=None)
def causal_mask(T: int) -> np.ndarray:
    """Additive mask: 0 on/below the diagonal, -inf above; memoized, so
    read-only.  Its top-left ``(n, n)`` block is ``causal_mask(n)``."""
    mask = np.zeros((T, T), dtype=np.float32)
    iu = np.triu_indices(T, k=1)
    mask[iu] = NEG_INF
    mask.flags.writeable = False
    return mask


class PackedRows(NamedTuple):
    """Where ragged rows' tokens sit when packed back to back.

    Row ``b`` holds ``lengths[b]`` tokens at absolute positions ``start ..
    start + lengths[b] - 1``.  Packed, the ``N`` real tokens form an
    ``(N, d)`` stream with no padding; ``slots`` maps each one into the
    right-padded ``(B * width)`` layout attention works in.
    """

    lengths: np.ndarray  # (B,)
    start: int
    width: int  # longest row
    offsets: np.ndarray  # (N,) each token's position within its row
    slots: np.ndarray  # (N,) b * width + offset
    last: np.ndarray  # (B,) packed index of each row's last token

    @classmethod
    def of(cls, lengths: Sequence[int], start: int = 0) -> "PackedRows":
        """Layout of rows of ``lengths`` (each >= 1) after ``start``."""
        lengths = np.asarray(lengths, dtype=np.int64)
        width = int(lengths.max())
        ends = np.cumsum(lengths)
        offsets = np.arange(ends[-1]) - np.repeat(ends - lengths, lengths)
        rows = np.repeat(np.arange(lengths.size), lengths)
        return cls(lengths, start, width, offsets, rows * width + offsets, ends - 1)

    @property
    def padded(self) -> bool:
        return self.offsets.size < self.lengths.size * self.width

    def pad(self, x: np.ndarray, *, out: np.ndarray) -> np.ndarray:
        """Packed ``(N, H, hd)`` -> head-major ``(B, H, width, hd)``, zeros
        in the pad slots: a view of ``out`` (``(B * width, H, hd)``)."""
        if self.padded:
            out.fill(0)
            out[self.slots] = x
        else:
            out[...] = x
        B, T = self.lengths.size, self.width
        return out.reshape((B, T) + out.shape[1:]).transpose(0, 2, 1, 3)

    def unpad(self, x: np.ndarray, *, out: np.ndarray) -> np.ndarray:
        """Padded ``(B, width, d)`` -> packed ``(N, d)``, gathered into
        ``out``."""
        x = x.reshape(-1, x.shape[-1])
        return np.take(x, self.slots, axis=0, out=out, mode="clip")


class MultiHeadAttention(Module):
    """Causal multi-head self-attention (LLaMA layout: no biases).

    ``forward(x)`` is the training call over full sequences; it stashes
    what :meth:`backward` reads.  The inference calls stash nothing: the
    pure call ``attn(x, start_pos, cache)`` for incremental decoding
    extends ``cache`` (a dict that the layer owns), and ``forward_rows``
    runs packed ragged rows (see :class:`PackedRows`).
    """

    def __init__(
        self,
        d_model: int,
        n_heads: int,
        rope: RotaryEmbedding,
        rng: np.random.Generator,
        init_std: float = 0.02,
        out_init_std: Optional[float] = None,
    ) -> None:
        super().__init__()
        if d_model % n_heads != 0:
            raise ValueError("d_model must divide n_heads")
        self.d_model, self.n_heads = d_model, n_heads
        self.head_dim = d_model // n_heads
        # a float32 scalar: a float64 one would promote every score, and
        # from there the whole residual stream, to float64 (NEP 50)
        self.scale = np.float32(1.0 / math.sqrt(self.head_dim))
        self.rope = rope
        self.wq = self.add_child("wq", Linear(d_model, d_model, rng, init_std=init_std))
        self.wk = self.add_child("wk", Linear(d_model, d_model, rng, init_std=init_std))
        self.wv = self.add_child("wv", Linear(d_model, d_model, rng, init_std=init_std))
        self.wo = self.add_child(
            "wo", Linear(d_model, d_model, rng, init_std=out_init_std or init_std)
        )

    # -- shape helpers -------------------------------------------------------
    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        B, T, _ = x.shape
        return x.reshape(B, T, self.n_heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        B, H, T, hd = x.shape
        return x.transpose(0, 2, 1, 3).reshape(B, T, H * hd)

    # -- forward ---------------------------------------------------------
    def forward(self, x: np.ndarray, start_pos: int = 0) -> np.ndarray:
        """The training call over full sequences: stashes what
        :meth:`backward` reads."""
        q = self.rope.apply(self._split_heads(self.wq.forward(x)), start_pos)
        k = self.rope.apply(self._split_heads(self.wk.forward(x)), start_pos)
        v = self._split_heads(self.wv.forward(x))
        probs = self._probs(q, k)
        self._cache = (q, k, v, probs, start_pos)
        return self.wo.forward(self._merge_heads(probs @ v))

    def __call__(
        self, x: np.ndarray, start_pos: int, cache: Dict[str, np.ndarray]
    ) -> np.ndarray:
        """The pure call: attend against ``cache``'s keys/values too and
        rebind ``cache["k"]``/``cache["v"]`` to the extended arrays, which
        are read-only: a cache is never written in place.  ``start_pos``
        must be the number of positions the cache holds (0 if it is
        empty)."""
        held = cache["k"].shape[2] if "k" in cache else 0
        if held != start_pos:
            raise ValueError(
                f"start_pos={start_pos} but the cache holds {held} positions"
            )
        q = self.rope.apply(self._split_heads(self.wq(x)), start_pos)
        k = self.rope.apply(self._split_heads(self.wk(x)), start_pos)
        v = self._split_heads(self.wv(x))
        if held:
            k = np.concatenate([cache["k"], k], axis=2)
            v = np.concatenate([cache["v"], v], axis=2)
        k.flags.writeable = v.flags.writeable = False
        cache["k"], cache["v"] = k, v
        return self.wo(self._merge_heads(self._probs(q, k) @ v))

    def _probs(self, q: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Causal attention weights ``(B, H, T, Tk)`` of the ``T`` queries,
        which are the last ``T`` of the ``Tk`` keys."""
        scores = q @ k.transpose(0, 1, 3, 2)
        scores *= self.scale
        T, Tk = q.shape[2], k.shape[2]
        if T > 1:
            # query i may attend to keys 0..Tk-T+i
            scores += causal_mask(self.rope.max_seq_len)[Tk - T : Tk, :Tk]
        return softmax(scores, axis=-1, out=scores)

    def forward_rows(
        self,
        x: np.ndarray,
        rows: PackedRows,
        kp: Optional[np.ndarray],
        vp: Optional[np.ndarray],
        last_only: bool,
        *,
        out: np.ndarray,
        store: Optional[Dict[str, np.ndarray]] = None,
    ) -> np.ndarray:
        """Attention over packed rows ``x`` of shape ``(N, d)``, written
        into ``out``.

        ``kp``/``vp`` are a read-only prefix of batch 1 that every row
        continues.  Keys and values are computed for every real token;
        with ``last_only`` the queries, the attention and ``wo`` run only
        at each row's last token and ``out`` is ``(B, d)``, else it is
        ``(N, d)``.  Every temporary lives in the thread's workspace.
        With ``store``, the rows' own ``(B, H, width, hd)`` keys/values
        (zeros in pad slots) are stored in it as ``"k"``/``"v"``: fresh
        copies, read-only.
        """
        H, hd, D = self.n_heads, self.head_dim, self.d_model
        B, T = rows.lengths.size, rows.width
        pos = rows.start + rows.offsets
        with workspace().scope() as ws:
            k = ws.take((B * T, H, hd), x.dtype)
            v = ws.take((B * T, H, hd), x.dtype)
            with ws.scope():
                k = rows.pad(self._rotated(self.wk, x, pos, ws), out=k)
                proj = self.wv(x, out=ws.take(x.shape, x.dtype))
                v = rows.pad(proj.reshape(-1, H, hd), out=v)
            if store is not None:
                store["k"], store["v"] = _frozen_copy(k), _frozen_copy(v)
            if last_only:
                q_t = rows.lengths - 1
                q = self.wq(x[rows.last]).reshape(-1, H, hd)
                q = self.rope.apply_at(q, rows.start + q_t)[:, :, None, :]  # (B,H,1,hd)
                hidden = np.arange(T) > q_t[:, None, None, None]
                mask = np.where(hidden, NEG_INF, np.float32(0.0))  # (B,1,1,T)
                ctx = self._shared_prefix_attention(q, k, v, kp, vp, mask, ws)
                return self.wo(ctx.reshape(-1, D), out=out)
            q = ws.take((B * T, H, hd), x.dtype)
            with ws.scope():
                q = rows.pad(self._rotated(self.wq, x, pos, ws), out=q)
            # full rows: query t sits at position t of its row
            mask = causal_mask(self.rope.max_seq_len)[:T, :T]
            ctx = self._shared_prefix_attention(q, k, v, kp, vp, mask, ws)
            merged = ws.take((B, T, H, hd), x.dtype)
            np.copyto(merged, ctx.transpose(0, 2, 1, 3))
            flat = rows.unpad(merged.reshape(B, T, D), out=ws.take(x.shape, x.dtype))
            return self.wo(flat, out=out)

    def _rotated(
        self, proj: Linear, x: np.ndarray, pos: np.ndarray, ws: Workspace
    ) -> np.ndarray:
        """``proj(x)`` split into heads and rotated to ``pos``: ``(N, H,
        hd)``, in ``ws``."""
        h = proj(x, out=ws.take(x.shape, x.dtype))
        h = h.reshape(-1, self.n_heads, self.head_dim)
        return self.rope.apply_at(h, pos, out=ws.take(h.shape, h.dtype))

    def _shared_prefix_attention(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        kp: Optional[np.ndarray],
        vp: Optional[np.ndarray],
        mask: np.ndarray,
        ws: Workspace,
    ) -> np.ndarray:
        """Two-block attention of padded rows against a shared prefix.

        ``q`` is ``(B, H, Tq, hd)``: each row's queries against the row's
        own block ``k``/``v`` of ``(B, H, T, hd)``, under the additive
        ``mask`` (broadcast to ``(B, H, Tq, T)``), which hides the keys
        after each query, pad slots included.  ``kp``/``vp`` (batch 1,
        or None) precede every row: prefix scores run as ``H`` large
        head-major gemms instead of ``B*H`` tiny per-row ones, the
        softmax normalization is fused across the two key blocks
        (flash-attention style), and the concatenated ``(B, H, Tp+T,
        hd)`` key/value tensors are never materialized.  Numerically this
        matches one softmax over the concatenated keys up to float32
        summation order.  Every temporary lives in ``ws``, and so does
        the returned ``(B, H, Tq, hd)`` context.
        """
        B, H, Tq, hd = q.shape
        sn = ws.take((B, H, Tq, k.shape[2]), q.dtype)
        np.matmul(q, k.transpose(0, 1, 3, 2), out=sn)
        sn *= self.scale
        sn += mask
        if kp is None:
            softmax(sn, axis=-1, out=sn)
            return np.matmul(sn, v, out=ws.take((B, H, Tq, hd), q.dtype))
        ctx = ws.take((H, B * Tq, hd), q.dtype)
        with ws.scope():
            qh = ws.take((H, B, Tq, hd), q.dtype)
            np.multiply(q.transpose(1, 0, 2, 3), self.scale, out=qh)
            qh = qh.reshape(H, B * Tq, hd)
            sp = ws.take((H, B * Tq, kp.shape[2]), q.dtype)
            np.matmul(qh, kp[0].transpose(0, 2, 1), out=sp)
            m = np.maximum(
                sp.max(axis=-1), sn.max(axis=-1).transpose(1, 0, 2).reshape(H, B * Tq)
            )  # (H, B*Tq)
            sp -= m[:, :, None]
            np.exp(sp, out=sp)
            sn -= m.reshape(H, B, Tq).transpose(1, 0, 2)[..., None]
            np.exp(sn, out=sn)
            denom = sp.sum(axis=-1) + sn.sum(axis=-1).transpose(1, 0, 2).reshape(
                H, B * Tq
            )
            np.matmul(sp, vp[0], out=ctx)  # (H, B*Tq, hd)
        ctx4 = ctx.reshape(H, B, Tq, hd)
        sv = np.matmul(sn, v, out=ws.take((B, H, Tq, hd), q.dtype))
        ctx4 += sv.transpose(1, 0, 2, 3)
        ctx /= denom[:, :, None]
        return ctx4.transpose(1, 0, 2, 3)

    # -- backward --------------------------------------------------------
    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called without a cached training forward")
        q, k, v, probs, start_pos = self._cache
        d_ctx_merged = self.wo.backward(dout)  # (B,T,D)
        B, T, _ = d_ctx_merged.shape
        d_ctx = d_ctx_merged.reshape(B, T, self.n_heads, self.head_dim).transpose(
            0, 2, 1, 3
        )  # (B,H,T,hd)

        d_probs = d_ctx @ v.transpose(0, 1, 3, 2)  # (B,H,T,Tk)
        d_v = probs.transpose(0, 1, 3, 2) @ d_ctx  # (B,H,Tk,hd)

        # softmax backward: dS = P * (dP - sum(dP * P))
        inner = np.sum(d_probs * probs, axis=-1, keepdims=True)
        d_scores = d_probs
        d_scores -= inner
        d_scores *= probs

        d_q = d_scores @ k
        d_q *= self.scale
        d_k = d_scores.transpose(0, 1, 3, 2) @ q
        d_k *= self.scale

        d_q = self.rope.apply_backward(d_q, start_pos)
        d_k = self.rope.apply_backward(d_k, start_pos)

        dx = self.wq.backward(self._merge_heads(d_q))
        dx += self.wk.backward(self._merge_heads(d_k))
        dx += self.wv.backward(self._merge_heads(d_v))
        self._cache = None
        return dx
