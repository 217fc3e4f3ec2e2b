"""Ablation benches A1-A3: substrate throughput baselines.

Not paper artifacts, but the performance envelope of the substrate the
micro experiments run on: tokenizer throughput, model step time per tier,
and collective op cost.  Useful when tuning experiment budgets.
"""

import numpy as np
import pytest

from repro.corpus import make_astro_knowledge
from repro.model.config import scaled_config
from repro.model.transformer import TransformerLM
from repro.parallel import Communicator, DeviceMesh
from repro.tokenizer import BPETokenizer, WordTokenizer

CORPUS_SENTENCES = None


def _corpus():
    global CORPUS_SENTENCES
    if CORPUS_SENTENCES is None:
        kb = make_astro_knowledge(n_facts=200, seed=0)
        CORPUS_SENTENCES = [f.statement(i) for f in kb.facts for i in range(4)]
    return CORPUS_SENTENCES


class TestTokenizerThroughput:
    """A1: tokenizer encode throughput."""

    def test_word_tokenizer_encode(self, benchmark):
        corpus = _corpus()
        tok = WordTokenizer.train(corpus, vocab_size=4000)
        text = " ".join(corpus[:50])

        ids = benchmark(tok.encode, text)
        assert len(ids) > 100

    def test_bpe_tokenizer_encode(self, benchmark):
        corpus = _corpus()
        tok = BPETokenizer.train(corpus[:200], vocab_size=600)
        text = " ".join(corpus[:20])

        ids = benchmark(tok.encode, text)
        assert len(ids) > 50

    def test_bpe_training(self, benchmark):
        corpus = _corpus()[:120]

        tok = benchmark.pedantic(
            BPETokenizer.train,
            args=(corpus, 400),
            rounds=3,
            iterations=1,
        )
        assert len(tok.vocab) <= 400


class TestModelStep:
    """A2: forward+backward step time across the capacity ladder."""

    @pytest.mark.parametrize("tier", ["tiny", "small", "large"])
    def test_train_step(self, benchmark, tier):
        cfg = scaled_config(1000, tier, max_seq_len=128)
        model = TransformerLM(cfg, seed=0)
        rng = np.random.default_rng(0)
        x = rng.integers(1, 1000, size=(8, 128))
        t = rng.integers(1, 1000, size=(8, 128))

        def step():
            model.zero_grad()
            return model.loss_and_backward(x, t)

        loss = benchmark.pedantic(step, rounds=3, iterations=1)
        assert loss > 0

    def test_generation_step(self, benchmark):
        cfg = scaled_config(1000, "small", max_seq_len=128)
        model = TransformerLM(cfg, seed=0)
        from repro.model.sampling import GenerationConfig, generate

        out = benchmark.pedantic(
            generate,
            args=(model, list(range(1, 30)), GenerationConfig(max_new_tokens=16)),
            rounds=3,
            iterations=1,
        )
        assert len(out) == 16


class TestCollectives:
    """A3: collective arithmetic cost (wall time) + simulated time model."""

    def test_all_reduce_wall_time(self, benchmark):
        mesh = DeviceMesh(1, 8)
        comm = Communicator(mesh)
        buffers = [np.random.default_rng(i).normal(size=100_000) for i in range(8)]

        out = benchmark(comm.all_reduce, buffers, "mean")
        assert len(out) == 8

    def test_simulated_scaling_is_sublinear(self):
        """Ring all-reduce: simulated time grows slowly with world size."""
        nbytes = 100 * 2**20
        from repro.parallel import RingCostModel

        cm = RingCostModel()
        t4 = cm.all_reduce_time(nbytes, 4, False)
        t16 = cm.all_reduce_time(nbytes, 16, False)
        assert t16 < t4 * 2  # bandwidth term saturates at 2x(n/B)
