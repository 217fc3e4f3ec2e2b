"""The training step's kernels are bit-identical to their plain formulas.

The forward, backward, cross-entropy and AdamW code runs its elementwise
work in place on arrays it has just allocated, with the same float
operations in the same order as the one-expression-per-line formulas
below (the references).  These tests run both on the same inputs and
assert ``np.array_equal``, not a tolerance: in float32, and on a float64
copy.  The last test trains a model for three steps with every
reference patched in and without, and compares losses, gradient norms
and parameter bytes.
"""

import copy

import numpy as np
import pytest

from repro.model.attention import NEG_INF, MultiHeadAttention, RotaryEmbedding
from repro.model.config import ModelConfig
from repro.model.layers import Linear, RMSNorm, softmax
from repro.model.mlp import SwiGLU, sigmoid
from repro.model.transformer import TransformerBlock, TransformerLM
from repro.train.cpt import ContinualPretrainer, CPTConfig
from repro.train.optimizer import BETAS, EPS, AdamW, clip_grad_norm
from repro.train.trainer import Trainer, TrainingHistory
from tests.test_model_grads import float64_copy

DTYPES = ["float32", "float64"]


# -- references: the step's formulas, one expression per line -----------------
def ref_softmax(x, axis=-1):
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def ref_log_softmax(x, axis=-1):
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def ref_linear_forward(self, x, out=None):
    self._cache = (x,)
    y = x @ self.params["weight"]
    if out is None:
        return y
    out[...] = y
    return out


def ref_linear_backward(self, dout):
    (x,) = self._cache
    x2 = x.reshape(-1, self.d_in)
    d2 = dout.reshape(-1, self.d_out)
    self.grads["weight"] += x2.T @ d2
    return dout @ self.params["weight"].T


def ref_rmsnorm_forward(self, x):
    inv_rms = 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + self.eps)
    self._cache = (x, inv_rms)
    return x * inv_rms * self.params["gain"]


def ref_rmsnorm_backward(self, dout):
    x, inv_rms = self._cache
    g = self.params["gain"]
    d = x.shape[-1]
    self.grads["gain"] += np.sum(dout * x * inv_rms, axis=tuple(range(x.ndim - 1)))
    dg = dout * g
    inner = np.sum(dg * x, axis=-1, keepdims=True)
    return inv_rms * dg - x * (inv_rms**3) * inner / d


def ref_rope_tables(rope):
    """``cos``/``sin`` as the rotation's formula uses them."""
    inv_freq = 10000.0 ** (
        -np.arange(0, rope.head_dim, 2, dtype=np.float64) / rope.head_dim
    )
    angles = np.outer(np.arange(rope.max_seq_len, dtype=np.float64), inv_freq)
    full = np.concatenate([angles, angles], axis=-1)
    return np.cos(full).astype(np.float32), np.sin(full).astype(np.float32)


def ref_rotate_half(x):
    half = x.shape[-1] // 2
    return np.concatenate([-x[..., half:], x[..., :half]], axis=-1)


def ref_rope_apply(self, x, start_pos=0):
    cos, sin = ref_rope_tables(self)
    T = x.shape[-2]
    cos, sin = cos[start_pos : start_pos + T], sin[start_pos : start_pos + T]
    return x * cos + ref_rotate_half(x) * sin


def ref_rope_apply_at(self, x, positions):
    cos, sin = ref_rope_tables(self)
    cos, sin = cos[positions][:, None, :], sin[positions][:, None, :]
    return x * cos + ref_rotate_half(x) * sin


def ref_rope_apply_backward(self, dout, start_pos=0):
    cos, sin = ref_rope_tables(self)
    T = dout.shape[-2]
    cos, sin = cos[start_pos : start_pos + T], sin[start_pos : start_pos + T]
    return dout * cos - ref_rotate_half(dout) * sin


def ref_attention_forward(self, x, start_pos=0, cache=None):
    q = self._split_heads(self.wq.forward(x))
    k = self._split_heads(self.wk.forward(x))
    v = self._split_heads(self.wv.forward(x))
    q = self.rope.apply(q, start_pos)
    k = self.rope.apply(k, start_pos)
    if cache is not None:
        if "k" in cache:
            k = np.concatenate([cache["k"], k], axis=2)
            v = np.concatenate([cache["v"], v], axis=2)
        k.flags.writeable = v.flags.writeable = False
        cache["k"], cache["v"] = k, v
    scores = (q @ k.transpose(0, 1, 3, 2)) * self.scale
    T, Tk = q.shape[2], k.shape[2]
    if T > 1:
        q_pos = start_pos + np.arange(T)[:, None]
        k_pos = np.arange(Tk)[None, :]
        scores = scores + np.where(k_pos > q_pos, NEG_INF, np.float32(0.0))
    probs = ref_softmax(scores, axis=-1)
    ctx = probs @ v
    out = self.wo.forward(self._merge_heads(ctx))
    if cache is None:
        self._cache = (q, k, v, probs, start_pos)
    return out


def ref_attention_backward(self, dout):
    q, k, v, probs, start_pos = self._cache
    d_ctx_merged = self.wo.backward(dout)
    B, T, _ = d_ctx_merged.shape
    d_ctx = d_ctx_merged.reshape(B, T, self.n_heads, self.head_dim).transpose(
        0, 2, 1, 3
    )
    d_probs = d_ctx @ v.transpose(0, 1, 3, 2)
    d_v = probs.transpose(0, 1, 3, 2) @ d_ctx
    inner = np.sum(d_probs * probs, axis=-1, keepdims=True)
    d_scores = probs * (d_probs - inner)
    d_q = (d_scores @ k) * self.scale
    d_k = (d_scores.transpose(0, 1, 3, 2) @ q) * self.scale
    d_q = self.rope.apply_backward(d_q, start_pos)
    d_k = self.rope.apply_backward(d_k, start_pos)
    dx = self.wq.backward(self._merge_heads(d_q))
    dx = dx + self.wk.backward(self._merge_heads(d_k))
    dx = dx + self.wv.backward(self._merge_heads(d_v))
    self._cache = None
    return dx


def ref_swiglu_forward(self, x):
    a = self.w1.forward(x)
    b = self.w3.forward(x)
    s = sigmoid(a)
    silu_a = a * s
    self._cache = (b, s, silu_a)
    return self.w2.forward(silu_a * b)


def ref_swiglu_backward(self, dout):
    b, s, silu_a = self._cache
    d_gated = self.w2.backward(dout)
    d_a = d_gated * b * (s + silu_a * (1.0 - s))
    d_b = d_gated * silu_a
    dx = self.w1.backward(d_a) + self.w3.backward(d_b)
    self._cache = None
    return dx


def ref_block_forward(self, x, start_pos=0):
    x = x + self.attn.forward(self.attn_norm.forward(x), start_pos)
    x = x + self.mlp.forward(self.mlp_norm.forward(x))
    return x


def ref_block_backward(self, dout):
    d_mlp = self.mlp_norm.backward(self.mlp.backward(dout))
    dout = dout + d_mlp
    d_attn = self.attn_norm.backward(self.attn.backward(dout))
    return dout + d_attn


def ref_cross_entropy(logits, targets, mask=None):
    targets = np.asarray(targets)
    if targets.ndim == 1:
        targets = targets[None, :]
    B, T, V = logits.shape
    logp = ref_log_softmax(logits, axis=-1)
    flat_logp = logp.reshape(-1, V)
    flat_t = targets.reshape(-1)
    picked = flat_logp[np.arange(flat_t.size), flat_t]
    if mask is None:
        mask_flat = np.ones_like(flat_t, dtype=np.float32)
    else:
        mask_flat = np.asarray(mask, dtype=np.float32).reshape(-1)
    denom = max(float(mask_flat.sum()), 1.0)
    loss = -float((picked * mask_flat).sum()) / denom
    probs = ref_softmax(logits, axis=-1).reshape(-1, V)
    probs[np.arange(flat_t.size), flat_t] -= 1.0
    probs *= (mask_flat / denom)[:, None]
    return loss, probs.reshape(B, T, V)


def ref_adamw_step(self, lr):
    beta1, beta2 = BETAS
    self.step_count += 1
    t = self.step_count
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for key, p in self.params.items():
        g = self.grads[key]
        m, v = self.m[key], self.v[key]
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        if self.weight_decay > 0 and p.ndim > 1:
            p -= lr * self.weight_decay * p
        p -= lr * m_hat / (np.sqrt(v_hat) + EPS)


def ref_trainer_train(self, make_batches):
    history = TrainingHistory()
    cfg = self.config
    iterator = iter(make_batches())
    for step in range(cfg.total_steps):
        self.model.zero_grad()
        accum_loss = 0.0
        tokens = 0
        for _ in range(cfg.grad_accum):
            try:
                inputs, targets, mask = next(iterator)
            except StopIteration:
                iterator = iter(make_batches())
                inputs, targets, mask = next(iterator)
            logits = self.model.forward(inputs)
            loss, dlogits = self.model.cross_entropy(logits, targets, mask)
            self.model.backward(dlogits / cfg.grad_accum)
            accum_loss += loss / cfg.grad_accum
            tokens += int(np.asarray(targets).size)
        norm = clip_grad_norm(self.model.named_gradients(), cfg.clip_norm)
        lr = self.schedule.lr(step)
        self.optimizer.step(lr)
        history.losses.append(accum_loss)
        history.lrs.append(lr)
        history.grad_norms.append(norm)
        history.tokens_seen += tokens
        history.steps += 1
    return history


REFERENCES = [
    (Linear, "forward", ref_linear_forward),
    (Linear, "backward", ref_linear_backward),
    (RMSNorm, "forward", ref_rmsnorm_forward),
    (RMSNorm, "backward", ref_rmsnorm_backward),
    (RotaryEmbedding, "apply", ref_rope_apply),
    (RotaryEmbedding, "apply_at", ref_rope_apply_at),
    (RotaryEmbedding, "apply_backward", ref_rope_apply_backward),
    (MultiHeadAttention, "forward", ref_attention_forward),
    (MultiHeadAttention, "backward", ref_attention_backward),
    (SwiGLU, "forward", ref_swiglu_forward),
    (SwiGLU, "backward", ref_swiglu_backward),
    (TransformerBlock, "forward", ref_block_forward),
    (TransformerBlock, "backward", ref_block_backward),
    (TransformerLM, "cross_entropy", staticmethod(ref_cross_entropy)),
    (AdamW, "step", ref_adamw_step),
    (Trainer, "train", ref_trainer_train),
]


# -- helpers ------------------------------------------------------------------
def as_dtype(module, dtype):
    """``module`` itself for float32, else a float64 copy."""
    return module if dtype == "float32" else float64_copy(module)


def randn(rng, shape, dtype):
    return rng.standard_normal(shape).astype(dtype)


def assert_same(a, b):
    assert a.dtype == b.dtype
    assert np.array_equal(a, b)


def assert_same_grads(m1, m2):
    g1, g2 = m1.named_gradients(), m2.named_gradients()
    assert g1.keys() == g2.keys()
    for name in g1:
        assert_same(g1[name], g2[name])


def twins(module):
    return module, copy.deepcopy(module)


# -- kernels ------------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES)
class TestKernels:
    # (2, 8, 344) @ (344, 344) is one of the stacks whose per-matrix product
    # falls in BLAS's small-matrix kernel; (4, 128, 128) @ (128, 344) is not
    @pytest.mark.parametrize(
        "shape, d_out",
        [((2, 8, 344), 344), ((4, 128, 128), 344), ((3, 1, 64), 32), ((5, 48), 24)],
    )
    def test_linear(self, dtype, shape, d_out):
        rng = np.random.default_rng(0)
        layer, ref = twins(
            as_dtype(Linear(shape[-1], d_out, np.random.default_rng(1)), dtype)
        )
        x = randn(rng, shape, dtype)
        dout = randn(rng, shape[:-1] + (d_out,), dtype)
        assert_same(layer.forward(x), ref_linear_forward(ref, x))
        assert_same(layer.backward(dout), ref_linear_backward(ref, dout))
        assert_same_grads(layer, ref)

    def test_rmsnorm(self, dtype):
        rng = np.random.default_rng(0)
        norm, ref = twins(as_dtype(RMSNorm(96), dtype))
        gain = rng.uniform(0.5, 1.5, 96)
        for module in (norm, ref):
            module.params["gain"][...] = gain
        x = randn(rng, (3, 17, 96), dtype) * 3
        dout = randn(rng, (3, 17, 96), dtype)
        assert_same(norm.forward(x), ref_rmsnorm_forward(ref, x))
        assert_same(norm.backward(dout), ref_rmsnorm_backward(ref, dout))
        assert_same_grads(norm, ref)

    def test_softmax(self, dtype):
        x = randn(np.random.default_rng(0), (2, 3, 9, 40), dtype) * 4
        assert_same(softmax(x), ref_softmax(x))
        scratch = x.copy()
        out = softmax(scratch, out=scratch)
        assert out is scratch
        assert_same(out, ref_softmax(x))

    @pytest.mark.parametrize("start_pos", [0, 5])
    def test_rope(self, dtype, start_pos):
        rng = np.random.default_rng(start_pos)
        rope = RotaryEmbedding(16, 32)
        x = randn(rng, (2, 3, 7, 16), dtype)
        assert_same(rope.apply(x, start_pos), ref_rope_apply(rope, x, start_pos))
        assert_same(
            rope.apply_backward(x, start_pos),
            ref_rope_apply_backward(rope, x, start_pos),
        )
        positions = start_pos + np.array([0, 4, 2, 9])
        rows = randn(rng, (4, 3, 16), dtype)
        assert_same(rope.apply_at(rows, positions), ref_rope_apply_at(rope, rows, positions))

    def test_attention(self, dtype):
        rng = np.random.default_rng(0)
        rope = RotaryEmbedding(8, 32)
        attn, ref = twins(as_dtype(MultiHeadAttention(32, 4, rope, rng, init_std=0.3), dtype))
        x = randn(rng, (2, 11, 32), dtype)
        dout = randn(rng, (2, 11, 32), dtype)
        assert_same(attn.forward(x), ref_attention_forward(ref, x))
        assert_same(attn.backward(dout), ref_attention_backward(ref, dout))
        assert_same_grads(attn, ref)

    @pytest.mark.parametrize("new", [1, 4])
    def test_attention_with_cache(self, dtype, new):
        """The cached pure call at ``start_pos`` = the cache's length, where
        the old absolute-position mask and the offset mask agree."""
        rng = np.random.default_rng(new)
        rope = RotaryEmbedding(8, 32)
        attn = as_dtype(MultiHeadAttention(32, 4, rope, rng, init_std=0.3), dtype)
        prompt, step = randn(rng, (1, 6, 32), dtype), randn(rng, (1, new, 32), dtype)
        got, want = {}, {}
        attn(prompt, 0, got)
        ref_attention_forward(attn, prompt, 0, want)
        assert_same(attn(step, 6, got), ref_attention_forward(attn, step, 6, want))
        assert_same(got["k"], want["k"])

    def test_swiglu(self, dtype):
        rng = np.random.default_rng(0)
        mlp, ref = twins(as_dtype(SwiGLU(32, 88, rng, init_std=0.3), dtype))
        x = randn(rng, (2, 9, 32), dtype) * 3
        dout = randn(rng, (2, 9, 32), dtype)
        assert_same(mlp.forward(x), ref_swiglu_forward(ref, x))
        assert_same(mlp.backward(dout), ref_swiglu_backward(ref, dout))
        assert_same_grads(mlp, ref)

    def test_block(self, dtype):
        rng = np.random.default_rng(0)
        cfg = ModelConfig(vocab_size=10, d_model=32, n_heads=4, max_seq_len=32)
        rope = RotaryEmbedding(cfg.head_dim, cfg.max_seq_len)
        block, ref = twins(as_dtype(TransformerBlock(cfg, rope, rng), dtype))
        x = randn(rng, (2, 10, 32), dtype)
        dout = randn(rng, (2, 10, 32), dtype)
        assert_same(block.forward(x), ref_block_forward(ref, x))
        assert_same(block.backward(dout), ref_block_backward(ref, dout))
        assert_same_grads(block, ref)

    @pytest.mark.parametrize("mask", ["none", "partial", "zero"])
    def test_cross_entropy(self, dtype, mask):
        rng = np.random.default_rng(0)
        logits = randn(rng, (3, 10, 57), dtype) * 5
        targets = rng.integers(0, 57, size=(3, 10))
        m = {
            "none": None,
            "partial": (rng.random((3, 10)) > 0.4).astype(np.float32),
            "zero": np.zeros((3, 10), dtype=np.float32),
        }[mask]
        loss, grad = TransformerLM.cross_entropy(logits, targets, m)
        want_loss, want_grad = ref_cross_entropy(logits, targets, m)
        np.testing.assert_array_equal(loss, want_loss)
        assert_same(grad, want_grad)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.1])
    def test_adamw(self, dtype, weight_decay):
        rng = np.random.default_rng(0)
        shapes = {"w": (24, 40), "gain": (24,), "e": (7, 24)}
        params = {k: randn(rng, s, dtype) for k, s in shapes.items()}
        grads = {k: np.zeros_like(p) for k, p in params.items()}
        opt = AdamW(params, grads, weight_decay=weight_decay)
        ref = copy.deepcopy(opt)
        for step in range(3):
            for k in grads:
                g = randn(rng, shapes[k], dtype)
                opt.grads[k][...] = ref.grads[k][...] = g
            opt.step(1e-2 / (step + 1))
            ref_adamw_step(ref, 1e-2 / (step + 1))
            for k in params:
                assert_same(opt.params[k], ref.params[k])
                assert_same(opt.m[k], ref.m[k])
                assert_same(opt.v[k], ref.v[k])


# -- a training run -----------------------------------------------------------
def run_cpt(grad_accum, dtype):
    cfg = ModelConfig(vocab_size=61, d_model=32, n_layers=2, n_heads=4, max_seq_len=32)
    model = as_dtype(TransformerLM(cfg, seed=4), dtype)
    rng = np.random.default_rng(5)
    docs = [list(rng.integers(1, 61, size=int(n))) for n in rng.integers(5, 40, 13)]
    config = CPTConfig(
        learning_rate=3e-3,
        total_batch_size=4,
        microbatch_size=4 // grad_accum,
        max_token_length=24,
        epochs=1.0,
        bf16=False,
        seed=2,
        weight_decay=0.1,
        clip_norm=0.5,
    )
    history = ContinualPretrainer(config).run(model, docs, eos_id=0).history
    return history, model


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("grad_accum", [1, 2])
def test_cpt_run_matches_references(monkeypatch, grad_accum, dtype):
    history, model = run_cpt(grad_accum, dtype)
    assert history.steps == 3
    with monkeypatch.context() as m:
        for owner, name, ref in REFERENCES:
            m.setattr(owner, name, ref)
        want, ref_model = run_cpt(grad_accum, dtype)
    np.testing.assert_array_equal(history.losses, want.losses)
    np.testing.assert_array_equal(history.grad_norms, want.grad_norms)
    params, ref_params = model.named_parameters(), ref_model.named_parameters()
    for name, p in params.items():
        assert p.tobytes() == ref_params[name].tobytes(), name
