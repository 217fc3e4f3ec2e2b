"""Finite-difference gradient checks for every differentiable layer.

These are the foundation tests of the whole reproduction: every training
result downstream is meaningless if backprop is wrong.  Each check perturbs
parameters (and inputs) with central differences and compares against the
analytic gradients.  The layer checks run the float32 layers and upcast
the loss to float64.  The whole-model check runs on a float64 copy of the
model (:func:`float64_copy`): the model computes in its parameters' dtype,
and float32 cannot resolve the loss change of a small step.  A second
check then holds the float32 model's gradients to that copy's.
"""

import copy

import numpy as np
import pytest

from repro.model.attention import MultiHeadAttention, RotaryEmbedding
from repro.model.config import ModelConfig
from repro.model.layers import Embedding, Linear, RMSNorm
from repro.model.lora import LoRAConfig, LoRALinear
from repro.model.mlp import SwiGLU
from repro.model.transformer import TransformerLM

RNG = np.random.default_rng(1234)
EPS = 1e-3
# float32 forward passes limit achievable agreement; 2e-2 relative error is
# a tight bound for central differences at eps=1e-3 in float32.
TOL = 2e-2
# the whole-model check runs on a float64 copy, where a smaller step and a
# much tighter bound hold
EPS64 = 1e-5
TOL64 = 1e-5
TOKENS = np.array([[1, 4, 9, 2, 7]])
TARGETS = np.array([[4, 9, 2, 7, 3]])


def float64_copy(model):
    """A deep copy of ``model`` with float64 params and grads; since the
    compute dtype follows the parameters, it runs entirely in float64."""
    twin = copy.deepcopy(model)
    for _, module in twin.modules():
        for name, p in module.params.items():
            module.params[name] = p.astype(np.float64)
            module.grads[name] = np.zeros_like(module.params[name])
    return twin


def scalar_loss(y: np.ndarray, w: np.ndarray) -> float:
    """Deterministic scalar projection of an output tensor."""
    return float(np.sum(y.astype(np.float64) * w))


def check_param_grads(module, x, extra_forward=None):
    """Compare analytic vs numeric grads for every parameter of ``module``."""
    fwd = extra_forward or (lambda: module.forward(x))
    y = fwd()
    w = np.linspace(-1.0, 1.0, y.size).reshape(y.shape).astype(np.float32)
    module.zero_grad()
    module.backward(w)
    params = module.named_parameters()
    grads = module.named_gradients()
    for name, p in params.items():
        g = grads[name]
        flat = p.reshape(-1)
        idxs = RNG.choice(flat.size, size=min(8, flat.size), replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + EPS
            lp = scalar_loss(fwd(), w)
            flat[i] = orig - EPS
            lm = scalar_loss(fwd(), w)
            flat[i] = orig
            num = (lp - lm) / (2 * EPS)
            ana = float(g.reshape(-1)[i])
            denom = max(abs(num), abs(ana), 1e-3)
            assert abs(num - ana) / denom < TOL, (
                f"{name}[{i}]: numeric={num:.6f} analytic={ana:.6f}"
            )


def check_input_grads(module, x):
    y = module.forward(x)
    w = np.linspace(-1.0, 1.0, y.size).reshape(y.shape).astype(np.float32)
    module.zero_grad()
    dx = module.backward(w)
    flat = x.reshape(-1)
    idxs = RNG.choice(flat.size, size=min(8, flat.size), replace=False)
    for i in idxs:
        orig = flat[i]
        flat[i] = orig + EPS
        lp = scalar_loss(module.forward(x), w)
        flat[i] = orig - EPS
        lm = scalar_loss(module.forward(x), w)
        flat[i] = orig
        num = (lp - lm) / (2 * EPS)
        ana = float(dx.reshape(-1)[i])
        denom = max(abs(num), abs(ana), 1e-3)
        assert abs(num - ana) / denom < TOL, (
            f"input[{i}]: numeric={num:.6f} analytic={ana:.6f}"
        )
    # restore module cache for callers that continue using it
    module.forward(x)
    module.backward(w)


@pytest.fixture
def x3d():
    return RNG.normal(size=(2, 5, 8)).astype(np.float32)


class TestLinear:
    def test_param_grads(self, x3d):
        lin = Linear(8, 6, RNG)
        assert list(lin.params) == ["weight"]
        check_param_grads(lin, x3d)

    def test_input_grads(self, x3d):
        lin = Linear(8, 6, RNG)
        assert list(lin.params) == ["weight"]
        check_input_grads(lin, x3d)


class TestNorms:
    def test_rmsnorm_params(self, x3d):
        check_param_grads(RMSNorm(8), x3d)

    def test_rmsnorm_input(self, x3d):
        check_input_grads(RMSNorm(8), x3d)


class TestEmbedding:
    def test_param_grads(self):
        emb = Embedding(12, 8, RNG)
        ids = np.array([[0, 3, 3, 7], [1, 2, 11, 5]])
        check_param_grads(emb, ids)

    def test_out_of_range(self):
        emb = Embedding(12, 8, RNG)
        with pytest.raises(IndexError):
            emb.forward(np.array([[12]]))


class TestMLPs:
    def test_swiglu_params(self, x3d):
        check_param_grads(SwiGLU(8, 16, RNG, init_std=0.1), x3d)

    def test_swiglu_input(self, x3d):
        check_input_grads(SwiGLU(8, 16, RNG, init_std=0.1), x3d)


class TestAttention:
    def _attn(self):
        rope = RotaryEmbedding(head_dim=4, max_seq_len=16)
        return MultiHeadAttention(8, 2, rope, RNG, init_std=0.1)

    def test_param_grads(self, x3d):
        check_param_grads(self._attn(), x3d)

    def test_input_grads(self, x3d):
        check_input_grads(self._attn(), x3d)

    def test_causality(self):
        """Changing a future token must not affect earlier outputs."""
        attn = self._attn()
        x = RNG.normal(size=(1, 6, 8)).astype(np.float32)
        y1 = attn.forward(x)
        x2 = x.copy()
        x2[0, 5] += 10.0
        y2 = attn.forward(x2)
        np.testing.assert_allclose(y1[0, :5], y2[0, :5], atol=1e-5)
        assert not np.allclose(y1[0, 5], y2[0, 5])


class TestLoRA:
    def test_adapter_grads(self, x3d):
        base = Linear(8, 6, RNG)
        lora = LoRALinear(base, LoRAConfig(rank=2, alpha=4.0), RNG)
        # B starts at zero: nudge it so gradients flow through both factors.
        lora.params["lora_B"][...] = RNG.normal(size=(2, 6)).astype(np.float32) * 0.1
        check_param_grads(lora, x3d)

    def test_input_grads(self, x3d):
        base = Linear(8, 6, RNG)
        lora = LoRALinear(base, LoRAConfig(rank=2, alpha=4.0), RNG)
        lora.params["lora_B"][...] = RNG.normal(size=(2, 6)).astype(np.float32) * 0.1
        check_input_grads(lora, x3d)

    def test_identity_at_init(self, x3d):
        base = Linear(8, 6, RNG)
        ref = base.forward(x3d).copy()
        lora = LoRALinear(base, LoRAConfig(rank=2), RNG)
        np.testing.assert_allclose(lora.forward(x3d), ref, atol=1e-6)


class TestFullModel:
    def _model(self, **kw):
        cfg = ModelConfig(
            vocab_size=17, d_model=8, n_layers=2, n_heads=2, max_seq_len=16, **kw
        )
        return TransformerLM(cfg, seed=7)

    @staticmethod
    def _analytic_grads(model):
        logits = model.forward(TOKENS)
        _, dlogits = model.cross_entropy(logits, TARGETS)
        model.zero_grad()
        model.backward(dlogits)
        return model.named_gradients()

    @pytest.mark.parametrize("tie", [False, True])
    def test_end_to_end_grads(self, tie):
        """Central differences on a float64 copy: float32 cannot resolve
        the loss change of a small enough step."""
        model = float64_copy(self._model(tie_embeddings=tie))

        def loss_fn():
            loss, _ = model.cross_entropy(model.forward(TOKENS), TARGETS)
            return loss

        grads = self._analytic_grads(model)
        checked = 0
        for name, p in model.named_parameters().items():
            flat = p.reshape(-1)
            idxs = RNG.choice(flat.size, size=min(3, flat.size), replace=False)
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + EPS64
                lp = loss_fn()
                flat[i] = orig - EPS64
                lm = loss_fn()
                flat[i] = orig
                num = (lp - lm) / (2 * EPS64)
                ana = float(grads[name].reshape(-1)[i])
                denom = max(abs(num), abs(ana), 1e-3)
                assert abs(num - ana) / denom < TOL64, (
                    f"{name}[{i}]: numeric={num:.9f} analytic={ana:.9f}"
                )
                checked += 1
        assert checked > 20

    @pytest.mark.parametrize("tie", [False, True])
    def test_float32_grads_match_float64(self, tie):
        """The float32 model's backward agrees with its float64 copy's,
        which the check above holds to central differences."""
        model = self._model(tie_embeddings=tie)
        want = self._analytic_grads(float64_copy(model))
        got = self._analytic_grads(model)
        for name, g in got.items():
            assert g.dtype == np.float32, name
            err = np.abs(g - want[name]) / np.maximum(np.abs(want[name]), 1e-3)
            assert err.max() < 1e-4, f"{name}: max relative error {err.max():.3g}"

    def test_masked_loss_ignores_masked_positions(self):
        model = self._model()
        tokens = np.array([[1, 4, 9, 2, 7]])
        targets_a = np.array([[4, 9, 2, 7, 3]])
        targets_b = targets_a.copy()
        targets_b[0, 0] = 16  # differs only at a masked position
        mask = np.array([[0, 1, 1, 1, 1]], dtype=np.float32)
        logits = model.forward(tokens)
        loss_a, _ = model.cross_entropy(logits, targets_a, mask)
        loss_b, _ = model.cross_entropy(logits, targets_b, mask)
        assert loss_a == pytest.approx(loss_b)

    def test_grad_accumulation_is_additive(self):
        model = self._model()
        tokens = np.array([[1, 4, 9, 2, 7]])
        targets = np.array([[4, 9, 2, 7, 3]])
        model.zero_grad()
        model.loss_and_backward(tokens, targets)
        once = {k: v.copy() for k, v in model.named_gradients().items()}
        model.loss_and_backward(tokens, targets)
        twice = model.named_gradients()
        for k in once:
            np.testing.assert_allclose(twice[k], 2 * once[k], rtol=1e-5, atol=1e-7)
