"""Edge-case tests across subsystems (run after the main suites)."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.datasets import CorpusDataset
from repro.eval.runner import BatchedEvaluationRunner
from repro.mcq import build_benchmark
from repro.corpus import make_astro_knowledge
from repro.model import ModelConfig, TransformerLM
from repro.tokenizer import BPETokenizer
from repro.tokenizer.bpe import SPACE_MARKER


class TestBPEInvariants:
    CORPUS = [
        "the star formation rate of the galaxy is high",
        "the galaxy rotation curve is flat in the outskirts",
        "star formation in the galaxy follows the gas surface density",
    ] * 3

    def test_merges_are_prefix_consistent(self):
        """Every merged symbol must be the concatenation of its pair."""
        tok = BPETokenizer.train(self.CORPUS, vocab_size=200)
        for a, b in tok.merges:
            assert (a + b) in tok.vocab

    def test_encoding_is_deterministic_function_of_text(self):
        tok = BPETokenizer.train(self.CORPUS, vocab_size=200)
        a = tok.encode("the galaxy rotation")
        b = tok.encode("the galaxy rotation")
        assert a == b

    def test_cache_does_not_change_results(self):
        tok1 = BPETokenizer.train(self.CORPUS, vocab_size=200)
        tok2 = BPETokenizer(tok1.vocab, tok1.merges, tok1.normalizer)  # cold cache
        text = "star formation rate curve"
        warm = tok1.encode(text)
        warm_again = tok1.encode(text)  # now cached
        cold = tok2.encode(text)
        assert warm == warm_again == cold

    def test_space_marker_roundtrip_boundary(self):
        tok = BPETokenizer.train(self.CORPUS, vocab_size=200)
        # marker must never leak into decoded text
        assert SPACE_MARKER not in tok.decode(tok.encode("the star is far"))


class TestChunkedPrefill:
    def test_cache_prefill_in_chunks_matches_monolithic(self):
        """Prefill the KV cache in two chunks; logits must match a single
        full-sequence forward (the serving-stack invariant)."""
        cfg = ModelConfig(vocab_size=40, d_model=16, n_layers=2, n_heads=2, max_seq_len=32)
        model = TransformerLM(cfg, seed=4)
        tokens = np.array([1, 7, 3, 9, 2, 8, 5])

        full_logits = model.forward(tokens[None, :])[0, -1]

        cache = model.new_cache()
        model.forward(tokens[None, :4], start_pos=0, cache=cache)
        chunk_logits = model.forward(tokens[None, 4:], start_pos=4, cache=cache)[0, -1]
        np.testing.assert_allclose(chunk_logits, full_logits, atol=1e-4)

    def test_single_token_steps_match(self):
        cfg = ModelConfig(vocab_size=40, d_model=16, n_layers=2, n_heads=2, max_seq_len=32)
        model = TransformerLM(cfg, seed=4)
        tokens = [3, 11, 5, 22]
        cache = model.new_cache()
        last = None
        for pos, tok in enumerate(tokens):
            last = model.forward(np.array([[tok]]), start_pos=pos, cache=cache)
        full = model.forward(np.array([tokens]))
        np.testing.assert_allclose(last[0, -1], full[0, -1], atol=1e-4)


def per_question(predict):
    """An evaluator whose ``predict_many`` applies ``predict`` per question."""
    return SimpleNamespace(predict_many=lambda qs: [predict(q) for q in qs])


class TestRunnerEdges:
    @pytest.fixture(scope="class")
    def bench(self):
        kb = make_astro_knowledge(n_facts=120, seed=31)
        return build_benchmark(kb, n_articles=6, dev_size=4, seed=32)

    def test_all_none_predictions_score_zero(self, bench):
        runner = BatchedEvaluationRunner(bench, max_questions=10)
        result = runner.run(per_question(lambda q: None), "m", "null-model")
        assert result.accuracy == 0.0
        assert result.parse_failures == 10

    def test_perfect_predictor(self, bench):
        runner = BatchedEvaluationRunner(bench)
        result = runner.run(per_question(lambda q: q.correct_idx), "m", "oracle")
        assert result.accuracy == 1.0
        assert result.parse_failures == 0

    def test_constant_predictor_near_letter_frequency(self, bench):
        runner = BatchedEvaluationRunner(bench)
        result = runner.run(per_question(lambda q: 0), "m", "always-A")
        # should be near 25% by letter balance
        assert 0.0 <= result.accuracy <= 0.6


class TestCorpusDatasetProperties:
    @given(
        st.lists(
            st.tuples(
                st.text("abcde ", min_size=1, max_size=30),
                st.sets(st.integers(0, 20), max_size=4),
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_truncation_never_gains_coverage(self, docs_and_ids):
        docs = [d for d, _ in docs_and_ids]
        ids = [set(i) for _, i in docs_and_ids]
        dataset = CorpusDataset("x", docs, ids, total_facts_in_world=21)
        for budget in (1, 5, 50):
            t = dataset.truncate_words(budget)
            assert t.coverage <= dataset.coverage + 1e-12
            assert len(t) <= len(dataset)

    def test_mismatched_ids_rejected(self):
        with pytest.raises(ValueError):
            CorpusDataset("x", ["a", "b"], [set()], 5)


class TestTrainerWarmup:
    def test_first_step_uses_warmup_lr(self):
        from repro.train import Trainer, TrainingConfig

        model = TransformerLM(
            ModelConfig(vocab_size=16, d_model=16, n_layers=1, n_heads=2, max_seq_len=8)
        )
        trainer = Trainer(
            model,
            TrainingConfig(learning_rate=1.0, total_steps=100, warmup_ratio=0.1),
        )
        x = np.ones((2, 4), dtype=np.int64)
        hist = trainer.train(lambda: iter([(x, x, None)] * 1000))
        assert hist.lrs[0] == pytest.approx(0.1)  # 1/10th of peak on step 0
        assert max(hist.lrs) == pytest.approx(1.0)
        assert hist.lrs[-1] < 0.01
