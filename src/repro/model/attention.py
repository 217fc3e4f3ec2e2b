"""Multi-head causal self-attention with rotary position embeddings.

The whole attention computation is batched as ``(B, H, T, hd)`` einsum-free
matmuls; the causal mask is an additive ``-inf`` upper triangle shared across
batch and heads (a view, never copied per example).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.model.layers import Linear, Module, softmax

NEG_INF = np.float32(-1e9)


class RotaryEmbedding:
    """Precomputed RoPE cos/sin tables.

    Uses the "two-halves" convention: for head dim ``d``, frequencies
    ``theta^{-2i/d}`` for ``i < d/2`` are applied to both halves, and the
    rotation is ``x*cos + rotate_half(x)*sin`` with
    ``rotate_half(x) = [-x2, x1]``.
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
        self.sin = np.sin(full).astype(np.float32)

    @staticmethod
    def _rotate_half(x: np.ndarray) -> np.ndarray:
        half = x.shape[-1] // 2
        return np.concatenate([-x[..., half:], x[..., :half]], axis=-1)

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
        sin = self.sin[start_pos : start_pos + T]
        return x * cos + self._rotate_half(x) * sin

    def apply_backward(self, dout: np.ndarray, start_pos: int = 0) -> np.ndarray:
        """Gradient of :meth:`apply` (the rotation is orthogonal: R^T = -R)."""
        T = dout.shape[-2]
        cos = self.cos[start_pos : start_pos + T]
        sin = self.sin[start_pos : start_pos + T]
        return dout * cos - self._rotate_half(dout) * sin


def causal_mask(T: int) -> np.ndarray:
    """Additive mask: 0 on/below the diagonal, -inf above."""
    mask = np.zeros((T, T), dtype=np.float32)
    iu = np.triu_indices(T, k=1)
    mask[iu] = NEG_INF
    return mask


class MultiHeadAttention(Module):
    """Causal multi-head self-attention (LLaMA layout: no biases).

    ``forward`` supports an optional KV cache for incremental decoding:
    pass ``cache`` (a dict that the layer owns/extends) and ``start_pos``.
    Backward is only supported for the full-sequence (no-cache) path, which
    is the only path training uses.
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
    def forward(
        self,
        x: np.ndarray,
        start_pos: int = 0,
        cache: Optional[Dict[str, np.ndarray]] = None,
        extend_cache: bool = True,
    ) -> np.ndarray:
        """``extend_cache=False`` treats ``cache`` as read-only context:
        the new keys/values are attended against it but never folded back
        in, so one prefix cache can score many batches without copies."""
        B, T, _ = x.shape
        q = self._split_heads(self.wq.forward(x))  # (B,H,T,hd)
        k = self._split_heads(self.wk.forward(x))
        v = self._split_heads(self.wv.forward(x))

        q = self.rope.apply(q, start_pos)
        k = self.rope.apply(k, start_pos)

        kp = vp = None
        if cache is not None:
            kp, vp = cache.get("k"), cache.get("v")
            if extend_cache:
                if kp is not None:
                    k = np.concatenate([kp, k], axis=2)
                    v = np.concatenate([vp, v], axis=2)
                    kp = vp = None
                cache["k"], cache["v"] = k, v
        if kp is not None:
            if B > 1 and kp.shape[0] == 1:
                ctx = self._shared_prefix_attention(q, k, v, kp, vp, start_pos)
                return self.wo.forward(self._merge_heads(ctx))
            k = np.concatenate([kp, k], axis=2)
            v = np.concatenate([vp, v], axis=2)

        scale = 1.0 / np.sqrt(self.head_dim)
        scores = (q @ k.transpose(0, 1, 3, 2)) * scale  # (B,H,T,Tk)
        Tk = k.shape[2]
        if T > 1:
            # Query i (absolute position start_pos+i) may attend to keys
            # 0..start_pos+i.
            q_pos = start_pos + np.arange(T)[:, None]
            k_pos = np.arange(Tk)[None, :]
            scores = scores + np.where(k_pos > q_pos, NEG_INF, np.float32(0.0))
        probs = softmax(scores, axis=-1)
        ctx = probs @ v  # (B,H,T,hd)
        out = self.wo.forward(self._merge_heads(ctx))
        if cache is None:
            self._cache = (q, k, v, probs, scale, start_pos)
        return out

    def _shared_prefix_attention(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        kp: np.ndarray,
        vp: np.ndarray,
        start_pos: int,
    ) -> np.ndarray:
        """Two-block attention against a prefix shared by the whole batch.

        ``kp``/``vp`` have batch dim 1 (one prefix, ``B`` suffix rows).
        Prefix scores run as ``H`` large head-major gemms instead of
        ``B*H`` tiny per-row ones, the softmax normalization is fused
        across the two key blocks (flash-attention style), and the
        concatenated ``(B, H, Tp+T, hd)`` key/value tensors are never
        materialized.  Numerically this matches the naive path up to
        float32 summation order.
        """
        B, H, T, hd = q.shape
        Tp = kp.shape[2]
        scale = np.float32(1.0 / np.sqrt(hd))
        qh = (q * scale).transpose(1, 0, 2, 3).reshape(H, B * T, hd)
        sp = qh @ kp[0].transpose(0, 2, 1)  # (H, B*T, Tp)
        sn = (q @ k.transpose(0, 1, 3, 2)) * scale  # (B, H, T, T)
        if T > 1:
            # every prefix key precedes every query; only suffix-internal
            # positions need the causal mask
            pos = np.arange(T)
            sn += np.where(pos[None, :] > pos[:, None], NEG_INF, np.float32(0.0))
        m = np.maximum(
            sp.max(axis=-1), sn.max(axis=-1).transpose(1, 0, 2).reshape(H, B * T)
        )  # (H, B*T)
        np.exp(sp - m[:, :, None], out=sp)
        np.exp(sn - m.reshape(H, B, T).transpose(1, 0, 2)[..., None], out=sn)
        denom = sp.sum(axis=-1) + sn.sum(axis=-1).transpose(1, 0, 2).reshape(
            H, B * T
        )
        ctx = sp @ vp[0]  # (H, B*T, hd)
        ctx += (sn @ v).transpose(1, 0, 2, 3).reshape(H, B * T, hd)
        ctx /= denom[:, :, None]
        return ctx.reshape(H, B, T, hd).transpose(1, 0, 2, 3)

    # -- backward --------------------------------------------------------
    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called without a cached training forward")
        q, k, v, probs, scale, start_pos = self._cache
        d_ctx_merged = self.wo.backward(dout)  # (B,T,D)
        B, T, _ = d_ctx_merged.shape
        d_ctx = d_ctx_merged.reshape(B, T, self.n_heads, self.head_dim).transpose(
            0, 2, 1, 3
        )  # (B,H,T,hd)

        d_probs = d_ctx @ v.transpose(0, 1, 3, 2)  # (B,H,T,Tk)
        d_v = probs.transpose(0, 1, 3, 2) @ d_ctx  # (B,H,Tk,hd)

        # softmax backward: dS = P * (dP - sum(dP * P))
        inner = np.sum(d_probs * probs, axis=-1, keepdims=True)
        d_scores = probs * (d_probs - inner)

        d_q = (d_scores @ k) * scale
        d_k = (d_scores.transpose(0, 1, 3, 2) @ q) * scale

        d_q = self.rope.apply_backward(d_q, start_pos)
        d_k = self.rope.apply_backward(d_k, start_pos)

        dx = self.wq.backward(self._merge_heads(d_q))
        dx = dx + self.wk.backward(self._merge_heads(d_k))
        dx = dx + self.wv.backward(self._merge_heads(d_v))
        self._cache = None
        return dx
