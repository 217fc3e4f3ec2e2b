"""Training framework tests: optimizer, schedules, packing, trainer, CPT, SFT."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import ModelConfig, TransformerLM
from repro.model.precision import bf16_round
from repro.train import (
    AdamW,
    ChatTemplate,
    ContinualPretrainer,
    CosineSchedule,
    CPTConfig,
    PackedDataset,
    SFTConfig,
    SFTExample,
    SupervisedFineTuner,
    Trainer,
    TrainingConfig,
    clip_grad_norm,
    corpus_perplexity,
    pack_documents,
    pad_examples,
)
from repro.tokenizer import WordTokenizer


def tiny_model(vocab=32, seed=0):
    return TransformerLM(
        ModelConfig(vocab_size=vocab, d_model=16, n_layers=1, n_heads=2, max_seq_len=32),
        seed=seed,
    )


class TestOptimizers:
    def test_adamw_reduces_quadratic(self):
        params = {"w": np.array([5.0, -3.0], dtype=np.float32)}
        grads = {"w": np.zeros(2, dtype=np.float32)}
        opt = AdamW(params, grads)
        for _ in range(200):
            grads["w"][...] = 2 * params["w"]
            opt.step(0.1)
        assert np.abs(params["w"]).max() < 0.1

    def test_weight_decay_skips_1d(self):
        params = {
            "w": np.ones((2, 2), dtype=np.float32),
            "gain": np.ones(2, dtype=np.float32),
        }
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        opt = AdamW(params, grads, weight_decay=0.1)
        opt.step(0.5)
        assert params["w"][0, 0] < 1.0  # decayed
        assert params["gain"][0] == pytest.approx(1.0)  # not decayed

    def test_mismatched_keys_raise(self):
        with pytest.raises(KeyError):
            AdamW({"a": np.zeros(1)}, {"b": np.zeros(1)})

    def test_clip_grad_norm(self):
        grads = {"g": np.array([3.0, 4.0], dtype=np.float32)}
        norm = clip_grad_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(grads["g"]) == pytest.approx(1.0, rel=1e-5)

    def test_clip_noop_under_limit(self):
        grads = {"g": np.array([0.3, 0.4], dtype=np.float32)}
        clip_grad_norm(grads, 1.0)
        assert np.linalg.norm(grads["g"]) == pytest.approx(0.5, rel=1e-6)


class TestSchedules:
    def test_cosine_warmup_and_decay(self):
        s = CosineSchedule(peak_lr=1.0, total_steps=100, warmup_ratio=0.1)
        assert s.lr(0) == pytest.approx(0.1)
        assert s.lr(9) == pytest.approx(1.0)
        assert s.lr(99) < 0.01

    def test_cosine_monotone_decay_after_warmup(self):
        s = CosineSchedule(peak_lr=1.0, total_steps=50, warmup_ratio=0.0)
        lrs = [s.lr(i) for i in range(50)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=499))
    @settings(max_examples=50, deadline=None)
    def test_cosine_lr_bounded(self, total, step):
        s = CosineSchedule(peak_lr=1.0, total_steps=total, warmup_ratio=0.03)
        assert 0.0 <= s.lr(step % total) <= 1.0 + 1e-9


class TestPacking:
    def test_pack_shapes(self):
        docs = [[1, 2, 3], [4, 5], [6, 7, 8, 9]]
        windows = pack_documents(docs, seq_len=4, eos_id=0)
        assert windows.shape[1] == 5
        # stream: 1 2 3 0 4 5 0 6 7 8 9 0 -> 12 tokens -> 2 windows + pad
        assert windows.shape[0] >= 2

    def test_eos_separates_documents(self):
        docs = [[1, 2], [3, 4]]
        windows = pack_documents(docs, seq_len=5, eos_id=0)
        flat = windows.reshape(-1).tolist()
        assert flat[:6] == [1, 2, 0, 3, 4, 0]

    def test_short_stream_packs_to_one_padded_window(self):
        windows = pack_documents([[1, 2, 3]], 10, 0)
        assert windows.tolist() == [[1, 2, 3] + [0] * 8]

    def test_every_token_preserved_when_not_dropping(self):
        docs = [[i] * 7 for i in range(1, 6)]
        windows = pack_documents(docs, 8, 0)
        flat = windows.reshape(-1).tolist()
        for i in range(1, 6):
            assert flat.count(i) == 7

    def test_dataset_epoch_reshuffles(self):
        windows = np.arange(80).reshape(20, 4)
        ds = PackedDataset(windows, batch_size=4, seed=1)
        first = [b[0].tolist() for b in ds.batches()]
        second = [b[0].tolist() for b in ds.batches()]
        assert first != second  # different epoch order

    def test_dataset_deterministic_given_seed(self):
        windows = np.arange(80).reshape(20, 4)
        a = PackedDataset(windows, batch_size=4, seed=7)
        b = PackedDataset(windows, batch_size=4, seed=7)
        fa = [x.tolist() for x, _ in a.batches()]
        fb = [x.tolist() for x, _ in b.batches()]
        assert fa == fb


class TestPadExamples:
    def test_mask_covers_response_only(self):
        batch = pad_examples([([1, 2, 3], [4, 5])], pad_id=0)
        # seq = 1 2 3 4 5; inputs = 1 2 3 4; targets = 2 3 4 5
        assert batch.inputs.tolist() == [[1, 2, 3, 4]]
        assert batch.targets.tolist() == [[2, 3, 4, 5]]
        # loss only where target is the response (4 at pos 2, 5 at pos 3)
        assert batch.loss_mask.tolist() == [[0.0, 0.0, 1.0, 1.0]]

    def test_padding_is_masked(self):
        batch = pad_examples([([1], [2]), ([1, 2, 3], [4, 5, 6])], pad_id=0)
        assert batch.inputs.shape == (2, 5)
        assert batch.loss_mask[0, 2:].sum() == 0  # padded tail of short example

    def test_truncation(self):
        batch = pad_examples([(list(range(1, 30)), [30, 31])], pad_id=0, max_len=10)
        assert batch.inputs.shape[1] == 9

    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(1, 20), min_size=1, max_size=8),
                st.lists(st.integers(1, 20), min_size=1, max_size=8),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_mask_token_count_matches_responses(self, examples):
        batch = pad_examples(examples, pad_id=0)
        expected = sum(len(r) for _, r in examples)
        assert int(batch.loss_mask.sum()) == expected


class TestTrainer:
    def _stream(self, vocab=32):
        rng = np.random.default_rng(0)
        def make_batches():
            for _ in range(8):
                x = rng.integers(1, vocab, size=(4, 8))
                yield x, x, None
        return make_batches

    def test_runs_requested_steps(self):
        model = tiny_model()
        trainer = Trainer(model, TrainingConfig(learning_rate=1e-3, total_steps=5))
        hist = trainer.train(self._stream())
        assert hist.steps == 5
        assert len(hist.losses) == 5

    def test_restarts_exhausted_stream(self):
        model = tiny_model()
        trainer = Trainer(model, TrainingConfig(learning_rate=1e-3, total_steps=20))
        hist = trainer.train(self._stream())  # stream has only 8 batches
        assert hist.steps == 20

    def test_grad_accum_equivalence(self):
        """grad_accum=2 on half-batches == one step on the full batch."""
        x = np.arange(16).reshape(2, 8) % 30 + 1
        t = (x + 1) % 30 + 1

        m1 = tiny_model(seed=3)
        tr1 = Trainer(
            m1, TrainingConfig(learning_rate=1e-3, total_steps=1, grad_accum=1, clip_norm=0)
        )
        tr1.train(lambda: iter([(x, t, None)]))

        m2 = tiny_model(seed=3)
        tr2 = Trainer(
            m2, TrainingConfig(learning_rate=1e-3, total_steps=1, grad_accum=2, clip_norm=0)
        )
        halves = [(x[:1], t[:1], None), (x[1:], t[1:], None)]
        tr2.train(lambda: iter(halves))

        p1 = m1.named_parameters()
        p2 = m2.named_parameters()
        for k in p1:
            np.testing.assert_allclose(p1[k], p2[k], rtol=1e-4, atol=1e-6)

    def test_bf16_rounding_applied(self):
        model = tiny_model()
        trainer = Trainer(
            model, TrainingConfig(learning_rate=1e-3, total_steps=2, bf16=True)
        )
        trainer.train(self._stream())
        for p in model.named_parameters().values():
            np.testing.assert_array_equal(p, bf16_round(p))

    def test_loss_decreases_on_fixed_batch(self):
        model = tiny_model()
        x = np.tile(np.arange(1, 9), (4, 1))
        trainer = Trainer(model, TrainingConfig(learning_rate=5e-3, total_steps=60))
        hist = trainer.train(lambda: iter([(x, x, None)] * 1000))
        assert hist.losses[-1] < hist.losses[0] * 0.5

    def test_logits_released_before_backward(self, monkeypatch):
        """Only ``cross_entropy`` reads a microbatch's logits, so the
        trainer must not hold them through ``backward``."""
        import weakref

        refs = []
        alive_at_backward = []
        forward, backward = TransformerLM.forward, TransformerLM.backward

        def tracked_forward(self, *args, **kwargs):
            out = forward(self, *args, **kwargs)
            refs.append(weakref.ref(out))
            return out

        def checked_backward(self, *args, **kwargs):
            alive_at_backward.append(refs[-1]() is not None)
            return backward(self, *args, **kwargs)

        monkeypatch.setattr(TransformerLM, "forward", tracked_forward)
        monkeypatch.setattr(TransformerLM, "backward", checked_backward)
        trainer = Trainer(
            tiny_model(), TrainingConfig(learning_rate=1e-3, total_steps=2, grad_accum=2)
        )
        trainer.train(self._stream())
        assert alive_at_backward == [False] * 4

    def test_span_contract(self, monkeypatch):
        """The benchmark's traced run times the step by the functions it
        calls: ``train_fwd_ms``/``train_bwd_ms`` are ``TransformerLM.forward``/
        ``backward`` spans under ``Trainer.train``, ``step_ms`` and
        ``clip_ms`` are ``AdamW.step`` and the ``clip_grad_norm`` bound in
        ``repro.train.trainer``.  A fused step that skipped one of these
        would read 0 there, so each is called the expected number of times."""
        import repro.train.trainer as trainer_mod

        calls = {}

        def counted(fn, name):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            return wrapper

        for owner, name in [
            (TransformerLM, "forward"),
            (TransformerLM, "backward"),
            (AdamW, "step"),
            (trainer_mod, "clip_grad_norm"),
        ]:
            monkeypatch.setattr(owner, name, counted(getattr(owner, name), name))
        monkeypatch.setattr(
            TransformerLM,
            "cross_entropy",
            staticmethod(counted(TransformerLM.cross_entropy, "cross_entropy")),
        )
        trainer = Trainer(
            tiny_model(), TrainingConfig(learning_rate=1e-3, total_steps=3, grad_accum=2)
        )
        trainer.train(self._stream())
        assert calls == {
            "forward": 6,
            "cross_entropy": 6,
            "backward": 6,
            "step": 3,
            "clip_grad_norm": 3,
        }


class TestCPT:
    def test_runs_one_epoch(self):
        texts = ["the star is bright and hot"] * 30
        tok = WordTokenizer.train(texts, vocab_size=64)
        docs = [tok.encode(t) for t in texts]
        model = TransformerLM(
            ModelConfig(vocab_size=tok.vocab_size, d_model=16, n_layers=1, n_heads=2, max_seq_len=16)
        )
        cpt = ContinualPretrainer(
            CPTConfig(learning_rate=1e-3, total_batch_size=4, max_token_length=16, epochs=1, bf16=False)
        )
        result = cpt.run(model, docs, tok.vocab.eos_id)
        assert result.steps >= 1
        assert result.dataset_tokens > 0

    def test_empty_corpus_raises(self):
        model = tiny_model()
        cpt = ContinualPretrainer(CPTConfig(total_batch_size=4, max_token_length=8))
        with pytest.raises(ValueError):
            cpt.run(model, [], eos_id=2)

    def test_paper_presets(self):
        # the defaults are AstroLLaMA-3-8B's recipe
        cfg = CPTConfig()
        assert cfg.learning_rate == pytest.approx(2e-5)
        assert (cfg.total_batch_size, cfg.max_token_length) == (96, 512)
        assert cfg.warmup_ratio == pytest.approx(0.03)
        assert cfg.epochs == 1.0 and cfg.bf16
        assert CPTConfig.paper_70b().total_batch_size == 160
        assert CPTConfig.paper_70b().max_token_length == 2048
        assert CPTConfig.paper_70b().learning_rate == pytest.approx(2e-5)

    def test_grad_accum_factorization(self):
        cfg = CPTConfig(total_batch_size=96, microbatch_size=24)
        assert cfg.grad_accum == 4
        with pytest.raises(ValueError):
            CPTConfig(total_batch_size=96, microbatch_size=36)


@pytest.mark.parametrize("config_cls", [CPTConfig, SFTConfig])
@pytest.mark.parametrize(
    "bad",
    [
        {"epochs": 0},
        {"epochs": -1.0},
        {"microbatch_size": -4},
        {"total_batch_size": 0},
        {"total_batch_size": -4},
    ],
)
def test_config_rejects_nonpositive_epochs_and_negative_microbatch(config_cls, bad):
    with pytest.raises(ValueError):
        config_cls(**bad)


def _budget_run(driver, epochs):
    """16 samples in microbatches of 2 under total batch 4: 8 microbatches,
    so 4 optimizer steps, per epoch."""
    run = dict(learning_rate=1e-3, total_batch_size=4, microbatch_size=2, epochs=epochs, bf16=False)
    if driver is ContinualPretrainer:
        # each 6-token document plus its EOS fills one 7-token window exactly
        docs = [[3 + (i + j) % 20 for j in range(6)] for i in range(16)]
        cpt = ContinualPretrainer(CPTConfig(max_token_length=6, **run))
        return cpt.run(tiny_model(), docs, eos_id=2)
    examples = [SFTExample(user=f"question {i}", assistant="answer") for i in range(16)]
    texts = [ChatTemplate().render_full(e.user, e.assistant) for e in examples]
    tok = WordTokenizer.train(texts, vocab_size=64)
    tuner = SupervisedFineTuner(
        tok, pad_id=tok.vocab.pad_id, eos_id=tok.vocab.eos_id,
        config=SFTConfig(max_token_length=32, **run),
    )
    return tuner.run(tiny_model(vocab=tok.vocab_size), examples)


@pytest.mark.parametrize("driver", [ContinualPretrainer, SupervisedFineTuner])
def test_step_budget_shared_by_both_drivers(driver):
    # round(4 * 0.1) is 0 steps: the budget still runs one
    result = _budget_run(driver, epochs=0.1)
    assert result.steps == result.history.steps == 1
    # round(4 * 1.4) = 6 steps, looping into a second epoch
    result = _budget_run(driver, epochs=1.4)
    assert result.steps == result.history.steps == round(4 * 1.4) == 6


class TestSFT:
    def _tuner_and_examples(self):
        examples = [
            SFTExample(user="hello there", assistant="general reply", source="ultrachat"),
            SFTExample(user="the mass of x is", assistant="the answer is A", source="astro-qa"),
        ] * 6
        texts = [ChatTemplate().render_full(e.user, e.assistant) for e in examples]
        tok = WordTokenizer.train(texts, vocab_size=128)
        tuner = SupervisedFineTuner(
            tok,
            pad_id=tok.vocab.pad_id,
            eos_id=tok.vocab.eos_id,
            config=SFTConfig(
                learning_rate=1e-3, total_batch_size=4, max_token_length=32, epochs=1, bf16=False
            ),
        )
        return tok, tuner, examples

    def test_tokenize_example_appends_eos(self):
        tok, tuner, examples = self._tuner_and_examples()
        prompt, response = tuner.tokenize_example(examples[0])
        assert response[-1] == tok.vocab.eos_id
        assert prompt[0] == tok.vocab.bos_id

    def test_run_produces_history(self):
        tok, tuner, examples = self._tuner_and_examples()
        model = TransformerLM(
            ModelConfig(vocab_size=tok.vocab_size, d_model=16, n_layers=1, n_heads=2, max_seq_len=64)
        )
        result = tuner.run(model, examples)
        assert result.steps >= 1
        assert result.examples == len(examples)
        assert result.response_tokens > 0

    def test_no_examples_raises(self):
        tok, tuner, _ = self._tuner_and_examples()
        model = TransformerLM(
            ModelConfig(vocab_size=tok.vocab_size, d_model=16, n_layers=1, n_heads=2, max_seq_len=64)
        )
        with pytest.raises(ValueError):
            tuner.run(model, [])

    def test_paper_preset(self):
        # the defaults are the paper's SFT recipe
        cfg = SFTConfig()
        assert cfg.learning_rate == pytest.approx(3e-7)
        assert (cfg.total_batch_size, cfg.max_token_length) == (48, 2048)
        assert cfg.warmup_ratio == pytest.approx(0.03)
        assert cfg.epochs == 1.0 and cfg.bf16

    def test_chat_template_rendering(self):
        t = ChatTemplate()
        prompt = t.render_prompt("question text", system="system text")
        assert prompt.startswith("system text")
        assert prompt.endswith("Assistant :")
        assert "User : question text" in prompt


class TestMetrics:
    def test_perplexity_positive_and_bounded(self):
        texts = ["a b c d"] * 10
        tok = WordTokenizer.train(texts, vocab_size=32)
        docs = [tok.encode(t) for t in texts]
        model = TransformerLM(
            ModelConfig(vocab_size=tok.vocab_size, d_model=16, n_layers=1, n_heads=2, max_seq_len=8)
        )
        ppl = corpus_perplexity(model, docs, tok.vocab.eos_id, seq_len=8)
        assert 1.0 < ppl < tok.vocab_size * 2
