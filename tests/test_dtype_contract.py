"""The model's dtype contract: compute dtype = parameter dtype.

Every activation, KV cache, logit, gradient and optimizer moment of a
float32 :class:`TransformerLM` is float32 on every path: training
(forward, cross-entropy, backward, AdamW, the bf16 trainer, LoRA),
prefill, batched scoring against a shared prefix, ``generate()`` and the
serving engine.  A float64 copy of the model stays float64 on the same
paths, so the dtype comes from the parameters and from nowhere else.

This is the runtime twin of lint rule R8 (``numpy-scalar-promotion``):
under NumPy's scalar promotion rules (NEP 50) one float64 NumPy scalar,
such as ``1.0 / np.sqrt(head_dim)``, turns a float32 array product into
float64, and from there the rest of the model.
"""

import numpy as np
import pytest

from repro.model import (
    LoRAConfig,
    ModelConfig,
    PrefixCacheStore,
    TransformerLM,
    apply_lora,
)
from repro.model.sampling import GenerationConfig, generate
from repro.serve import InferenceRequest, RequestKind, ServeEngine
from repro.train import Trainer, TrainingConfig
from tests.test_model_grads import float64_copy
from tests.conftest import recording_step_logits

CFG = ModelConfig(vocab_size=64, d_model=32, n_layers=3, n_heads=4, max_seq_len=64)
PROMPT = list(range(1, 20))
SAMPLED = GenerationConfig(max_new_tokens=6, temperature=0.8, top_p=0.9, seed=3)
GREEDY = GenerationConfig(max_new_tokens=6, temperature=0.0)


def batch(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.integers(1, CFG.vocab_size, size=(2, 12))
    return x, np.roll(x, -1, axis=1)


def dtype_of(model):
    (dtype,) = {p.dtype for p in model.named_parameters().values()}
    return dtype


def train(model, steps=2, **kw):
    trainer = Trainer(model, TrainingConfig(total_steps=steps, **kw))
    x, t = batch()
    trainer.train(lambda: iter([(x, t, None)]))
    return trainer


def assert_training_dtypes(model, trainer, dtype):
    for name, p in model.named_parameters().items():
        assert p.dtype == dtype, name
    for name, g in model.named_gradients().items():
        assert g.dtype == dtype, name
    for moments in (trainer.optimizer.m, trainer.optimizer.v):
        for name, m in moments.items():
            assert m.dtype == dtype, name


@pytest.fixture(params=["float32", "float64"])
def model(request):
    model = TransformerLM(CFG, seed=0)
    return model if request.param == "float32" else float64_copy(model)


class TestTraining:
    def test_forward_cross_entropy_backward(self, model):
        dtype = dtype_of(model)
        x, t = batch()
        logits = model.forward(x)
        assert logits.dtype == dtype
        _, dlogits = model.cross_entropy(logits, t)
        assert dlogits.dtype == dtype
        model.zero_grad()
        model.backward(dlogits)
        for name, g in model.named_gradients().items():
            assert g.dtype == dtype, name
            assert np.any(g), name

    def test_trainer_step_and_adamw_moments(self, model):
        dtype = dtype_of(model)
        assert_training_dtypes(model, train(model), dtype)

    def test_bf16_trainer_keeps_float32(self):
        model = TransformerLM(CFG, seed=0)
        trainer = train(model, bf16=True)
        assert_training_dtypes(model, trainer, np.float32)
        assert model.forward(batch()[0]).dtype == np.float32

    def test_lora_model(self):
        model = TransformerLM(CFG, seed=0)
        apply_lora(model, LoRAConfig(rank=2))
        trainer = train(model)
        assert_training_dtypes(model, trainer, np.float32)
        assert model.forward(batch()[0]).dtype == np.float32


class TestInference:
    def test_prefill_kv_and_last_logits(self, model):
        dtype = dtype_of(model)
        prefix = model.prefill(PROMPT)
        assert prefix.last_logits.dtype == dtype
        assert len(prefix.cache) == CFG.n_layers
        for i, layer in enumerate(prefix.cache):
            assert layer["k"].dtype == dtype, i
            assert layer["v"].dtype == dtype, i

    def test_next_token_logits_many(self, model):
        """With a shared prefix and several rows this runs the two-block
        ``_shared_prefix_attention``; the empty row takes the prefix's
        own logits."""
        dtype = dtype_of(model)
        prefix = model.prefill(PROMPT)
        suffixes = [[3, 4, 5], [6, 7], []]
        assert model.next_token_logits_many(suffixes, prefix=prefix).dtype == dtype
        assert model.next_token_logits_many(suffixes[:2]).dtype == dtype

    @pytest.mark.parametrize("config", [GREEDY, SAMPLED], ids=["greedy", "sampled"])
    def test_generate_step_logits(self, model, config):
        dtype = dtype_of(model)
        for store in (None, PrefixCacheStore()):
            with recording_step_logits() as steps:
                generate(model, PROMPT, config, store)
                generate(model, PROMPT + [7, 8], config, store)
            assert steps
            assert all(s.dtype == dtype for s in steps)

    def test_engine_step_logits(self, model):
        dtype = dtype_of(model)
        engine = ServeEngine(model)
        for i, config in enumerate([GREEDY, SAMPLED, GREEDY]):
            engine.submit(
                InferenceRequest(
                    request_id=f"g{i}",
                    prompt_ids=tuple(PROMPT[: 10 + i]),
                    generation=config,
                )
            )
        score = engine.submit(
            InferenceRequest(
                request_id="s", prompt_ids=tuple(PROMPT), kind=RequestKind.SCORE
            )
        )
        with recording_step_logits(engine) as recorded:
            engine.drain()
        assert sorted(recorded) == ["g0", "g1", "g2"]
        for rid, steps in recorded.items():
            assert all(s.dtype == dtype for s in steps), rid
        assert score.final_logits.dtype == dtype
