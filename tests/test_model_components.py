"""Model component tests: config, generation/KV-cache, checkpoints, bf16, LoRA."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model import (
    GenerationConfig,
    LoRAConfig,
    ModelConfig,
    TransformerLM,
    apply_lora,
    bf16_round,
    generate,
    merge_lora,
)
from repro.model.config import scaled_config
from repro.model.sampling import DecodeStream, clamp_prompt
from repro.train.checkpointing import load_snapshot, save_snapshot
from tests.conftest import ATOL, position_sensitive_model, recording_step_logits


def small_model(seed=0, **kw):
    cfg = ModelConfig(
        vocab_size=40, d_model=16, n_layers=2, n_heads=2, max_seq_len=32, **kw
    )
    return TransformerLM(cfg, seed=seed)


class TestConfig:
    def test_d_ff_derived(self):
        cfg = ModelConfig(vocab_size=10, d_model=48)
        assert cfg.d_ff >= 48 * 8 // 3
        assert cfg.d_ff % 8 == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=10, d_model=30, n_heads=4)  # not divisible
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=10, d_model=18, n_heads=6)  # odd head dim
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=0)

    def test_num_parameters_matches_model(self):
        for tie in (True, False):
            cfg = ModelConfig(
                vocab_size=33,
                d_model=16,
                n_layers=2,
                n_heads=2,
                max_seq_len=16,
                tie_embeddings=tie,
            )
            assert TransformerLM(cfg).num_parameters() == cfg.num_parameters()

    def test_scaled_config_ladder(self):
        sizes = [
            scaled_config(100, tier).num_parameters()
            for tier in ("tiny", "small", "medium", "large")
        ]
        assert sizes == sorted(sizes)

    @pytest.mark.parametrize("tier", ["tiny", "small", "large"])
    def test_every_tier_trains_and_decodes(self, tier):
        """A training step on an (8, 128) batch gives a finite positive
        loss, and greedy decoding fills its whole budget."""
        model = TransformerLM(scaled_config(1000, tier, max_seq_len=128), seed=0)
        rng = np.random.default_rng(0)
        x = rng.integers(1, 1000, size=(8, 128))
        t = rng.integers(1, 1000, size=(8, 128))
        loss = model.loss_and_backward(x, t)
        assert np.isfinite(loss) and loss > 0
        out = generate(model, list(range(1, 30)), GenerationConfig(max_new_tokens=16))
        assert len(out) == 16

    def test_scaled_config_unknown(self):
        with pytest.raises(ValueError):
            scaled_config(100, "gigantic")

    def test_roundtrip(self):
        cfg = ModelConfig(vocab_size=10, d_model=16, n_heads=2)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg


class TestCausalMask:
    """A query sees the keys up to its own position and no further,
    whatever ``start_pos`` the tokens are rotated at."""

    def _model(self):
        return TransformerLM(scaled_config(40, "tiny"), seed=1)

    def test_no_cache_forward_at_offset_is_causal(self):
        model = self._model()
        tokens = np.asarray([[3, 9, 4, 17, 2, 30]])
        future = tokens.copy()
        future[0, 4] = 11
        for start_pos in (0, 3):
            a = model.forward(tokens, start_pos=start_pos)
            b = model.forward(future, start_pos=start_pos)
            np.testing.assert_array_equal(a[0, :4], b[0, :4])

    def test_no_cache_forward_is_shift_invariant(self):
        """RoPE encodes relative positions: shifting every token by the
        same offset leaves the logits unchanged up to float rounding."""
        model = self._model()
        tokens = np.asarray([[3, 9, 4, 17, 2, 30]])
        np.testing.assert_allclose(
            model.forward(tokens, start_pos=3), model.forward(tokens), atol=1e-4
        )

    def test_cache_length_must_equal_start_pos(self):
        model = self._model()
        pc = model.prefill([3, 9, 4, 17])
        step = np.asarray([[2]])
        model.forward(step, start_pos=4, cache=pc.fork())
        for wrong in (3, 5):
            with pytest.raises(ValueError, match="cache holds 4"):
                model.forward(step, start_pos=wrong, cache=pc.fork())
        with pytest.raises(ValueError, match="cache holds 0"):
            model.forward(step, start_pos=2, cache=model.new_cache())


class TestGeneration:
    def test_kv_cache_matches_full_forward(self):
        """Cached decoding agrees with the no-cache full forward, a
        reference that shares no code with DecodeStream, on a model where
        a one-position RoPE error moves the logits far past ``ATOL``."""
        model = position_sensitive_model(seed=2)
        prompt = [1, 5, 9, 3]
        with recording_step_logits() as steps:
            out = generate(model, prompt, GenerationConfig(max_new_tokens=6))
        # recompute each step with a full forward
        seq = list(prompt)
        expected = []
        for step_logits in steps:
            logits = model.forward(np.asarray([seq]))
            np.testing.assert_allclose(step_logits, logits[0, -1], atol=ATOL)
            tok = int(np.argmax(logits[0, -1]))
            expected.append(tok)
            seq.append(tok)
        assert len(steps) == 6
        assert out == expected

    def test_greedy_deterministic(self):
        model = small_model(seed=2)
        a = generate(model, [1, 2, 3], GenerationConfig(max_new_tokens=5))
        b = generate(model, [1, 2, 3], GenerationConfig(max_new_tokens=5))
        assert a == b

    def test_stop_tokens(self):
        model = small_model(seed=2)
        first = generate(model, [1, 2, 3], GenerationConfig(max_new_tokens=10))
        stopped = generate(
            model, [1, 2, 3],
            GenerationConfig(max_new_tokens=10, stop_token_ids=(first[0],)),
        )
        assert stopped == [first[0]]

    def test_temperature_sampling_seeded(self):
        model = small_model(seed=2)
        cfg = GenerationConfig(max_new_tokens=5, temperature=1.0, seed=4)
        a = generate(model, [1, 2], cfg)
        b = generate(model, [1, 2], cfg)
        assert a == b

    def test_top_k_restricts(self):
        model = small_model(seed=2)
        greedy = generate(model, [1, 2], GenerationConfig(max_new_tokens=1))
        top1 = generate(
            model, [1, 2], GenerationConfig(max_new_tokens=1, temperature=2.0, top_k=1)
        )
        assert top1 == greedy

    def test_top_k_exact_under_tied_logits(self):
        """Regression: ties at the k-th logit used to survive truncation,
        inflating the candidate set beyond top_k."""
        from repro.model.sampling import _select_token

        logits = np.zeros(12, dtype=np.float32)
        logits[3] = 5.0
        logits[[5, 7, 9]] = 2.0  # three-way tie for 2nd place
        cfg = GenerationConfig(max_new_tokens=1, temperature=1.0, top_k=2, seed=0)
        rng = np.random.default_rng(0)
        picks = {
            _select_token(logits, cfg, np.random.default_rng(s))
            for s in range(200)
        }
        # exactly k=2 candidates: the max plus the lowest-index tied token
        assert picks == {3, 5}

    def test_top_k_all_tied_keeps_lowest_indices(self):
        from repro.model.sampling import _select_token

        logits = np.ones(8, dtype=np.float32)
        cfg = GenerationConfig(max_new_tokens=1, temperature=1.0, top_k=3, seed=0)
        picks = {
            _select_token(logits, cfg, np.random.default_rng(s))
            for s in range(200)
        }
        assert picks == {0, 1, 2}

    def test_top_p_one_is_identity(self):
        """top_p=1.0 (the default) must not change the sampled stream."""
        model = small_model(seed=2)
        base = generate(
            model, [1, 2], GenerationConfig(max_new_tokens=6, temperature=1.0, seed=9)
        )
        nucleus = generate(
            model,
            [1, 2],
            GenerationConfig(max_new_tokens=6, temperature=1.0, top_p=1.0, seed=9),
        )
        assert nucleus == base

    def test_top_p_tiny_nucleus_is_greedy(self):
        model = small_model(seed=2)
        greedy = generate(model, [1, 2], GenerationConfig(max_new_tokens=3))
        nucleus = generate(
            model,
            [1, 2],
            GenerationConfig(max_new_tokens=3, temperature=2.0, top_p=1e-9, seed=5),
        )
        assert nucleus == greedy

    def test_top_p_restricts_candidate_set(self):
        from repro.model.sampling import _select_token

        logits = np.full(10, -20.0, dtype=np.float32)
        logits[2] = 3.0  # ~73% of the mass
        logits[6] = 2.0  # next ~27%; together ~100%
        cfg = GenerationConfig(
            max_new_tokens=1, temperature=1.0, top_p=0.9, seed=0
        )
        picks = {
            _select_token(logits, cfg, np.random.default_rng(s))
            for s in range(300)
        }
        assert picks == {2, 6}

    def test_top_p_tie_breaks_toward_lower_ids(self):
        """Tied logits at the nucleus boundary keep lower token ids, the
        same discipline as the top_k path."""
        from repro.model.sampling import _select_token

        logits = np.ones(8, dtype=np.float32)  # uniform: each token is 1/8
        cfg = GenerationConfig(
            max_new_tokens=1, temperature=1.0, top_p=0.25, seed=0
        )
        picks = {
            _select_token(logits, cfg, np.random.default_rng(s))
            for s in range(300)
        }
        assert picks == {0, 1}

    def test_top_p_composes_with_top_k(self):
        from repro.model.sampling import _select_token

        logits = np.asarray([4.0, 4.0, 4.0, 4.0, -9.0], dtype=np.float32)
        # top_k keeps {0,1,2,3}; top_p=0.5 then keeps the first two of them
        cfg = GenerationConfig(
            max_new_tokens=1, temperature=1.0, top_k=4, top_p=0.5, seed=0
        )
        picks = {
            _select_token(logits, cfg, np.random.default_rng(s))
            for s in range(300)
        }
        assert picks == {0, 1}

    def test_top_p_validation(self):
        with pytest.raises(ValueError):
            GenerationConfig(top_p=0.0)
        with pytest.raises(ValueError):
            GenerationConfig(top_p=-0.5)
        with pytest.raises(ValueError):
            GenerationConfig(top_p=1.5)

    def test_long_prompt_left_truncated(self):
        model = small_model(seed=2)
        long_prompt = list(np.random.default_rng(0).integers(1, 40, size=100))
        out = generate(model, long_prompt, GenerationConfig(max_new_tokens=4))
        assert len(out) == 4

    def test_zero_budget_returns_nothing_without_decoding(self, monkeypatch):
        """``max_new_tokens=0`` opens the prompt and returns ``[]``: no
        token is selected and no decode forward runs."""

        def never(stream, *args):
            raise AssertionError("a zero-budget generate() decoded")

        monkeypatch.setattr(DecodeStream, "select", never)
        monkeypatch.setattr(DecodeStream, "advance", never)
        model = small_model(seed=2)
        assert generate(model, [1, 2, 3], GenerationConfig(max_new_tokens=0)) == []

    @given(
        n=st.integers(1, 39), max_new=st.integers(0, 49), window=st.integers(1, 44)
    )
    def test_clamped_prompt_and_budget_fit_the_window(self, n, max_new, window):
        """Prompt + budget never exceed the window, so a decode's budget
        ("length") always ends it before its position reaches the
        window's end."""
        ids = tuple(range(100, 100 + n))
        prompt, budget = clamp_prompt(ids, max_new, window)
        assert len(prompt) + budget <= window
        assert budget == min(max_new, window - 1)
        assert prompt == ids[len(ids) - len(prompt):]
        assert len(prompt) == min(n, window - budget)

    def test_empty_prompt_raises(self):
        model = small_model()
        with pytest.raises(ValueError):
            generate(model, [], GenerationConfig(max_new_tokens=2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GenerationConfig(max_new_tokens=-1)
        with pytest.raises(ValueError):
            GenerationConfig(temperature=-0.1)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        """A model round-trips bit-exactly through the manifest format."""
        model = small_model(seed=9)
        extra = {"config": model.config.to_dict()}
        save_snapshot(tmp_path / "ckpt", model.named_parameters(), 0, 0, extra)
        arrays, meta = load_snapshot(tmp_path / "ckpt")
        loaded = TransformerLM(ModelConfig.from_dict(meta["extra"]["config"]))
        loaded.load_state(arrays)
        assert loaded.config == model.config
        x = np.asarray([[1, 2, 3]])
        assert np.array_equal(model.forward(x), loaded.forward(x))

    def test_state_mismatch_detected(self):
        a = small_model()
        b = TransformerLM(
            ModelConfig(vocab_size=40, d_model=16, n_layers=1, n_heads=2, max_seq_len=32)
        )
        with pytest.raises(KeyError):
            b.load_state(a.state_copy())
        wide = {k: v.astype(np.float64) for k, v in a.state_copy().items()}
        with pytest.raises(ValueError):
            a.load_state(wide)


class TestPrecision:
    def test_bf16_idempotent(self):
        x = np.random.default_rng(0).normal(size=100).astype(np.float32)
        once = bf16_round(x)
        np.testing.assert_array_equal(once, bf16_round(once))

    def test_bf16_error_bounded(self):
        x = np.random.default_rng(0).normal(size=1000).astype(np.float32)
        err = np.abs(bf16_round(x) - x)
        # relative error bounded by half ulp ~ 2^-8
        assert np.all(err <= np.abs(x) * 2.0**-8 + 1e-30)

    def test_bf16_representable_values_unchanged(self):
        vals = np.array([1.0, 0.5, -2.0, 0.0], dtype=np.float32)
        np.testing.assert_array_equal(bf16_round(vals), vals)


class TestLoRAIntegration:
    def test_apply_restricts_trainable_params(self):
        model = small_model()
        n_before = model.num_parameters()
        apply_lora(model, LoRAConfig(rank=2), seed=0)
        names = list(model.named_parameters())
        wrapped = [n for n in names if "lora_" in n]
        assert wrapped  # adapters present
        # wq/wv frozen weights no longer exposed
        assert not any(n.endswith("attn.wq.weight") for n in names)
        assert any(n.endswith("attn.wk.weight") for n in names)  # wk untouched
        assert model.num_parameters() < n_before

    def test_apply_preserves_forward(self):
        model = small_model(seed=3)
        x = np.asarray([[1, 2, 3, 4]])
        ref = model.forward(x).copy()
        apply_lora(model, LoRAConfig(rank=2), seed=0)
        np.testing.assert_allclose(model.forward(x), ref, atol=1e-5)

    def test_merge_restores_plain_linears(self):
        model = small_model(seed=3)
        x = np.asarray([[1, 2, 3, 4]])
        adapters = apply_lora(model, LoRAConfig(rank=2), seed=0)
        # perturb adapters so the merge is non-trivial
        for ad in adapters:
            ad.params["lora_B"][...] = 0.01
        adapted = model.forward(x).copy()
        merged = merge_lora(model)
        assert merged == len(adapters)
        np.testing.assert_allclose(model.forward(x), adapted, atol=1e-5)
        # merged model exposes full parameters again
        assert any(
            n.endswith("attn.wq.weight") for n in model.named_parameters()
        )

    def test_unknown_projection_raises(self):
        model = small_model()
        with pytest.raises(ValueError):
            apply_lora(model, LoRAConfig(target_projections=("bogus",)))
