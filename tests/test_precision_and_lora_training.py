"""Training-dynamics tests: bf16 effects and LoRA training behaviour.

These close the loop on two recipe details the paper relies on: bf16
training (the quantization must not break convergence) and LoRA CPT (the
AstroLLaMA-2-7B-Abstract recipe: adapters learn, base stays frozen).
"""

import numpy as np

from repro.model import LoRAConfig, ModelConfig, TransformerLM, apply_lora
from repro.train import Trainer, TrainingConfig


def make_batch(vocab, seed=0, batch=4, seq=12):
    rng = np.random.default_rng(seed)
    x = rng.integers(1, vocab, size=(batch, seq))
    return x, np.roll(x, -1, axis=1)


class TestBF16Training:
    def test_bf16_training_still_converges(self):
        """Loss under bf16 rounding tracks fp32 loss closely on a
        memorization task."""
        x, t = make_batch(32)
        losses = {}
        for bf16 in (False, True):
            model = TransformerLM(
                ModelConfig(vocab_size=32, d_model=16, n_layers=1, n_heads=2, max_seq_len=16),
                seed=1,
            )
            trainer = Trainer(
                model,
                TrainingConfig(learning_rate=3e-3, total_steps=40, bf16=bf16),
            )
            hist = trainer.train(lambda: iter([(x, t, None)] * 1000))
            losses[bf16] = hist.losses[-1]
        assert losses[True] < losses[False] * 1.5 + 0.2
        # and bf16 genuinely quantized the weights (they differ from fp32 run)
        assert losses[True] != losses[False]

    def test_tiny_updates_can_vanish_under_bf16(self):
        """bf16's 8-bit mantissa absorbs updates smaller than ~2^-8 * w —
        the characteristic excess loss floor of low-precision training."""
        from repro.model.precision import bf16_round

        w = np.float32(1.0)
        tiny_update = np.float32(1e-5)
        assert bf16_round(np.array([w + tiny_update]))[0] == w


class TestLoRATraining:
    def _setup(self):
        model = TransformerLM(
            ModelConfig(vocab_size=32, d_model=16, n_layers=2, n_heads=2, max_seq_len=16),
            seed=2,
        )
        frozen_before = {
            k: v.copy()
            for k, v in model.named_parameters().items()
        }
        adapters = apply_lora(model, LoRAConfig(rank=4, alpha=8.0), seed=0)
        return model, adapters, frozen_before

    def test_lora_training_reduces_loss(self):
        model, adapters, _ = self._setup()
        x, t = make_batch(32, seed=5)
        trainer = Trainer(model, TrainingConfig(learning_rate=5e-3, total_steps=40))
        hist = trainer.train(lambda: iter([(x, t, None)] * 1000))
        assert hist.losses[-1] < hist.losses[0]

    def test_base_weights_frozen_during_lora(self):
        model, adapters, frozen_before = self._setup()
        x, t = make_batch(32, seed=5)
        trainer = Trainer(model, TrainingConfig(learning_rate=5e-3, total_steps=20))
        trainer.train(lambda: iter([(x, t, None)] * 1000))
        # the wrapped projections' base weights must be untouched
        for i, block in enumerate(model.blocks):
            for name in ("wq", "wv"):
                lora_layer = getattr(block.attn, name)
                key = f"block{i}.attn.{name}.weight"
                np.testing.assert_array_equal(
                    lora_layer.frozen_weight, frozen_before[key]
                )

    def test_adapters_actually_move(self):
        model, adapters, _ = self._setup()
        x, t = make_batch(32, seed=5)
        b_before = [a.params["lora_B"].copy() for a in adapters]
        trainer = Trainer(model, TrainingConfig(learning_rate=5e-3, total_steps=10))
        trainer.train(lambda: iter([(x, t, None)] * 1000))
        moved = any(
            not np.array_equal(b, a.params["lora_B"])
            for b, a in zip(b_before, adapters)
        )
        assert moved

    def test_lora_param_count_is_small(self):
        model, adapters, _ = self._setup()
        lora_params = sum(
            v.size for k, v in model.named_parameters().items() if "lora_" in k
        )
        # r=4 adapters on wq/wv of 2 layers: 2 layers * 2 proj * 2*(16*4)
        assert lora_params == 2 * 2 * 2 * 16 * 4
