"""Evaluation-engine throughput: naive vs prefix-cached batched scoring.

The paper's Table I scores 8 models x 3 methods over 4,425 MCQs; its
successors (AstroMLab 3/4) make benchmark throughput the binding
constraint on model iteration.  This bench measures the repro's eval
engine on the micro zoo scale:

* **naive** — the seed path: every question re-encodes and re-forwards
  the full two-shot prompt, one question at a time;
* **cached+batched** — the shared scaffold is prefilled once
  (:meth:`TransformerLM.prefill`) and question suffixes are scored in
  padded batches (:meth:`TransformerLM.next_token_logits_many`).

Acceptance target: >= 5x questions/sec, with bit-identical predictions.
"""

import time

import numpy as np
import pytest

from repro.corpus import make_astro_knowledge
from repro.eval import BatchedEvaluationRunner, TokenPredictionEvaluator
from repro.eval.prompts import format_next_token_prompt
from repro.mcq import build_benchmark
from repro.model import ModelConfig, TransformerLM
from repro.tokenizer import WordTokenizer

N_QUESTIONS = 64
# The paper's real MCQs are an order of magnitude longer than the micro
# zoo's synthetic ones, so its two-shot scaffold dominates the prompt.  A
# four-shot scaffold reproduces that scaffold:suffix token ratio at micro
# scale (the pipeline itself stays two-shot, matching Appendix C).
FEW_SHOT = 4
SPEEDUP_TARGET = 5.0


@pytest.fixture(scope="module")
def eval_world():
    astro = make_astro_knowledge(n_facts=160, seed=11)
    bench = build_benchmark(
        astro, n_articles=12, facts_per_article=6, dev_size=4, seed=12
    )
    texts = []
    for f in astro.facts:
        texts.extend(f.statement(i) for i in range(4))
    texts.append(
        "Question : A B C D Answer : Astrophysics and Cosmology "
        "Multiple choice questions Solution set :"
    )
    tok = WordTokenizer.train(texts, vocab_size=4000, space_prefix=False)
    longest = max(
        len(tok.encode(format_next_token_prompt(q, bench.few_shot(FEW_SHOT))))
        for q in bench.test
    )
    # "large"-tier micro-zoo dims (the 70B analogue): big enough that the
    # forward is matmul-dominated, so the measured ratio reflects the
    # engine rather than Python overhead.
    model = TransformerLM(
        ModelConfig(
            vocab_size=len(tok.vocab),
            d_model=128,
            n_layers=4,
            n_heads=4,
            max_seq_len=longest + 8,
        ),
        seed=0,
    )
    return model, tok, bench


def _evaluator(model, tok, bench, batch_size=16):
    return TokenPredictionEvaluator(
        model, tok, bench.few_shot(FEW_SHOT), batch_size=batch_size
    )


class TestEvalThroughput:
    def test_cached_batched_is_faster_and_identical(self, eval_world):
        model, tok, bench = eval_world
        runner = BatchedEvaluationRunner(bench, max_questions=N_QUESTIONS)

        naive_eval = _evaluator(model, tok, bench)
        t0 = time.perf_counter()
        naive = [naive_eval.predict(q) for q in bench.test[:N_QUESTIONS]]
        naive_s = time.perf_counter() - t0

        # fresh evaluator: the timed run includes the one-time prefill
        fast_eval = _evaluator(model, tok, bench)
        t0 = time.perf_counter()
        fast = runner.run(fast_eval, "cached-batched", "micro-lm")
        fast_s = time.perf_counter() - t0

        n = fast.n_questions
        naive_qps, fast_qps = n / naive_s, n / fast_s
        speedup = fast_qps / naive_qps
        print(
            f"\n[eval-throughput] n={n} "
            f"naive={naive_qps:.1f} q/s cached+batched={fast_qps:.1f} q/s "
            f"speedup={speedup:.1f}x"
        )
        assert fast.predictions == naive
        assert speedup >= SPEEDUP_TARGET

    def test_batch_size_sweep_smoke(self, eval_world):
        """Chunked batches agree with one big batch (memory-bounded path)."""
        model, tok, bench = eval_world
        questions = bench.test[:16]
        reference = _evaluator(model, tok, bench, batch_size=16).predict_many(
            questions
        )
        for batch_size in (1, 3, 16):
            preds = _evaluator(
                model, tok, bench, batch_size=batch_size
            ).predict_many(questions)
            assert preds == reference
