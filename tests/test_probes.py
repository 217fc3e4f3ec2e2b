"""Probe tests: knowledge recall and circuit quality on a trained toy."""

import numpy as np
import pytest

from repro.corpus import make_general_knowledge
from repro.corpus.general import render_mcq_exercise
from repro.eval import circuit_quality, knowledge_recall
from repro.model import ModelConfig, TransformerLM
from repro.tokenizer import WordTokenizer
from repro.train import Trainer, TrainingConfig, PackedDataset, pack_documents
from repro.utils.rng import new_rng

pytestmark = pytest.mark.slow  # every test trains the module-scoped toy


@pytest.fixture(scope="module")
def trained():
    """A model trained to memorize 12 facts + their quiz circuit."""
    kb = make_general_knowledge(n_facts=12, seed=21)
    texts = []
    for f in kb.facts:
        texts.extend(f.statement(i) for i in range(4))
        texts.append(render_mcq_exercise(f, np.random.default_rng(0)))
    tok = WordTokenizer.train(texts, vocab_size=2000)
    eos = tok.vocab.eos_id
    model = TransformerLM(
        ModelConfig(vocab_size=tok.vocab_size, d_model=64, n_layers=2,
                    n_heads=4, max_seq_len=96, tie_embeddings=True),
        seed=0,
    )
    epoch = [0]

    def make_batches():
        e = epoch[0]; epoch[0] += 1
        rng = new_rng(9, "epoch", e)
        docs = []
        for f in kb.facts:
            docs.append(f.statement(int(rng.integers(0, 4))))
            docs.append(render_mcq_exercise(f, rng))
        order = rng.permutation(len(docs))
        token_docs = [tok.encode(docs[i]) for i in order]
        windows = pack_documents(token_docs, 96, eos)
        for x, t in PackedDataset(windows, 8, seed=e).batches():
            yield x, t, None

    trainer = Trainer(model, TrainingConfig(learning_rate=3e-3, total_steps=220))
    trainer.train(make_batches)
    return kb, tok, model


class TestKnowledgeRecall:
    def test_trained_model_recalls(self, trained):
        kb, tok, model = trained
        acc = knowledge_recall(model, tok, kb.facts, prefix_ids=[tok.vocab.eos_id])
        assert acc >= 0.6  # 220 steps: solid recall, not yet saturated

    def test_untrained_model_near_zero(self, trained):
        kb, tok, _ = trained
        fresh = TransformerLM(
            ModelConfig(vocab_size=tok.vocab_size, d_model=32, n_layers=1,
                        n_heads=2, max_seq_len=96),
            seed=3,
        )
        acc = knowledge_recall(fresh, tok, kb.facts)
        assert acc <= 0.3

    def test_empty_facts_raises(self, trained):
        _, tok, model = trained
        with pytest.raises(ValueError):
            knowledge_recall(model, tok, [])


class TestCircuitQuality:
    def test_probe_bounded_and_dissociates_from_recall(self, trained):
        """At 220 steps the circuit has not grokked (DESIGN.md §6: it
        emerges past ~700 steps) — the probe must report that honestly:
        a bounded value, with recall running ahead of circuit quality.
        That dissociation is exactly what the two probes exist to expose."""
        kb, tok, model = trained
        q = circuit_quality(model, tok, kb.facts, n_probes=36,
                            prefix_ids=[tok.vocab.eos_id])
        assert 0.0 <= q <= 1.0
        recall = knowledge_recall(
            model, tok, kb.facts, prefix_ids=[tok.vocab.eos_id]
        )
        assert recall > q

    def test_untrained_model_near_chance(self, trained):
        kb, tok, _ = trained
        fresh = TransformerLM(
            ModelConfig(vocab_size=tok.vocab_size, d_model=32, n_layers=1,
                        n_heads=2, max_seq_len=96),
            seed=3,
        )
        q = circuit_quality(fresh, tok, kb.facts, n_probes=36)
        assert q <= 0.6

    def test_deterministic(self, trained):
        kb, tok, model = trained
        a = circuit_quality(model, tok, kb.facts, n_probes=12, seed=4)
        b = circuit_quality(model, tok, kb.facts, n_probes=12, seed=4)
        assert a == b
