"""Evaluation-method tests using controllable fake models.

The fake model lets us verify the paper's Section V machinery exactly:
dynamic answer-token discovery (top-10 scan), letter-logit argmax, the
full-instruct generate-and-parse loop, and the batch runner — without any
training.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.corpus import make_astro_knowledge
from repro.eval import (
    BatchedEvaluationRunner,
    FullInstructEvaluator,
    TokenPredictionEvaluator,
    discover_answer_tokens,
)
from repro.eval.prompts import (
    format_micro_chat_prompt,
    format_next_token_prompt,
    format_paper_full_instruct,
)
from repro.mcq import build_benchmark
from repro.model import ModelConfig, TransformerLM
from repro.tokenizer import WordTokenizer


@pytest.fixture(scope="module")
def astro():
    return make_astro_knowledge(n_facts=160, seed=11)


@pytest.fixture(scope="module")
def bench(astro):
    return build_benchmark(astro, n_articles=8, facts_per_article=6, dev_size=4, seed=12)


def make_tokenizer(astro, space_prefix):
    texts = []
    for f in astro.facts:
        texts.extend(f.statement(i) for i in range(4))
    texts.append("Question : A B C D Answer : Astrophysics and Cosmology "
                 "Multiple choice questions Solution set :")
    texts.append("User : Assistant : the answer is .")
    return WordTokenizer.train(texts, vocab_size=4000, space_prefix=space_prefix)


def per_question(evaluator):
    """A ``predict_many`` over ``evaluator.predict``, for fake models
    that have no batch scoring."""
    return SimpleNamespace(predict_many=lambda qs: [evaluator.predict(q) for q in qs])


class OracleModel:
    """Fake CausalLM that always puts the correct letter's token on top.

    It decodes the prompt, finds the final question block, determines which
    option matches the knowledge base, and returns logits favouring that
    letter under the given convention.
    """

    def __init__(self, tokenizer, astro, convention, accuracy=1.0, seed=0):
        self.tokenizer = tokenizer
        self.astro = {f.question(): f.correct for f in astro.facts}
        self.convention = convention
        self.accuracy = accuracy
        self.rng = np.random.default_rng(seed)

    def next_token_logits(self, tokens):
        vocab_size = len(self.tokenizer.vocab)
        logits = np.zeros(vocab_size, dtype=np.float32)
        text = self.tokenizer.decode(np.asarray(tokens))
        # last question block
        blocks = text.split("Question :")
        last = blocks[-1]
        lines = last.split(" A : ")
        question = lines[0].strip()
        # parse options back out of the flattened text
        rest = "A : " + lines[1] if len(lines) > 1 else ""
        options = {}
        for letter in "ABCD":
            marker = f"{letter} : "
            start = rest.find(marker)
            if start < 0:
                continue
            end = len(rest)
            for nxt in ("B : ", "C : ", "D : ", " Answer"):
                j = rest.find(nxt, start + len(marker))
                if 0 <= j < end:
                    end = j
            options[letter] = rest[start + len(marker) : end].strip()
        correct_value = None
        for q, v in self.astro.items():
            if question.endswith(q) or q in question:
                correct_value = v
                break
        pick = None
        if correct_value is not None and self.rng.random() < self.accuracy:
            for letter, value in options.items():
                if value == correct_value:
                    pick = letter
                    break
        if pick is None:
            pick = "ABCD"[int(self.rng.integers(0, 4))]
        for letter in "ABCD":
            cands = self.tokenizer.answer_token_candidates(letter)
            tid = cands.get(self.convention)
            if tid is not None:
                logits[tid] = 10.0 if letter == pick else 1.0
        return logits


class TestDiscovery:
    @pytest.mark.parametrize("space_prefix,expected", [(False, "bare"), (True, "space-prefixed")])
    def test_single_convention_resolved_from_vocab(self, astro, bench, space_prefix, expected):
        tok = make_tokenizer(astro, space_prefix)
        model = OracleModel(tok, astro, expected)
        amap = discover_answer_tokens(model, tok, bench.dev[:2], bench.few_shot(2))
        assert amap.convention == expected
        assert len(amap.letter_ids()) == 4

    def test_probing_picks_the_live_convention(self, astro, bench):
        """A vocab exposing BOTH conventions: discovery must probe logits."""
        texts = []
        for f in astro.facts:
            texts.extend(f.statement(i) for i in range(4))
        texts.append("Question : Answer : Astrophysics and Cosmology Multiple "
                     "choice questions Solution set :")
        # space_prefix tokenizer whose corpus also contains text-initial
        # letters -> both bare and marker-prefixed forms exist for A-D
        texts.extend(["A B C D", "B C D A", "C D A B", "D A B C"])
        tok = WordTokenizer.train(texts, vocab_size=4000, space_prefix=True)
        for letter in "ABCD":
            assert set(tok.answer_token_candidates(letter)) == {"bare", "space-prefixed"}
        for live in ("bare", "space-prefixed"):
            model = OracleModel(tok, astro, live)
            amap = discover_answer_tokens(model, tok, bench.dev[:3], bench.few_shot(2))
            assert amap.convention == live


def make_dual_tokenizer(astro):
    """A vocab exposing BOTH letter conventions (forces logit probing)."""
    texts = []
    for f in astro.facts:
        texts.extend(f.statement(i) for i in range(4))
    texts.append("Question : Answer : Astrophysics and Cosmology Multiple "
                 "choice questions Solution set :")
    texts.extend(["A B C D", "B C D A", "C D A B", "D A B C"])
    return WordTokenizer.train(texts, vocab_size=4000, space_prefix=True)


class FixedTopModel:
    """Fake CausalLM whose top-10 next-token ids are fixed per call."""

    def __init__(self, vocab_size, top_ids):
        self.vocab_size = vocab_size
        self.top_ids = list(top_ids)

    def next_token_logits(self, tokens):
        logits = np.zeros(self.vocab_size, dtype=np.float32)
        logits[self.top_ids] = 10.0
        return logits


class TestDiscoveryFallbacks:
    def test_zero_hits_falls_back_to_bare(self, astro, bench):
        tok = make_dual_tokenizer(astro)
        candidate_ids = {
            tid
            for letter in "ABCD"
            for tid in tok.answer_token_candidates(letter).values()
        }
        # top-10 never contains any candidate id -> both conventions score 0
        top = [i for i in range(len(tok.vocab)) if i not in candidate_ids][:10]
        model = FixedTopModel(len(tok.vocab), top)
        amap = discover_answer_tokens(model, tok, bench.dev[:3], bench.few_shot(2))
        assert amap.convention == "bare"

    def test_tied_hits_prefer_bare(self, astro, bench):
        tok = make_dual_tokenizer(astro)
        # every letter's ids from BOTH conventions in the top-10 -> tie
        top = [
            tid
            for letter in "ABCD"
            for tid in tok.answer_token_candidates(letter).values()
        ]
        model = FixedTopModel(len(tok.vocab), top)
        amap = discover_answer_tokens(model, tok, bench.dev[:3], bench.few_shot(2))
        assert amap.convention == "bare"

    def test_probe_prompt_excludes_probed_question(self, astro, bench):
        """Regression: a probe drawn from the few-shot pool must not see
        itself as a solved example in its own prompt (answer leakage)."""
        import dataclasses

        tok = make_dual_tokenizer(astro)
        # force distinct correct letters so the leak is unambiguous
        few_shot = [
            dataclasses.replace(q, correct_idx=i)
            for i, q in enumerate(bench.few_shot(2))
        ]

        seen_prompts = []

        class RecordingModel(FixedTopModel):
            def next_token_logits(self, tokens):
                seen_prompts.append(tok.decode(np.asarray(tokens)))
                return super().next_token_logits(tokens)

        model = RecordingModel(len(tok.vocab), range(10))
        discover_answer_tokens(model, tok, few_shot, few_shot)
        assert len(seen_prompts) == len(few_shot)
        for prompt, probe in zip(seen_prompts, few_shot):
            lowered = prompt.lower()
            # one fewer solved example than the full shot pool...
            assert lowered.count("answer :") == len(few_shot)
            # ...and the probe's own answer is nowhere in its prompt
            assert f"answer : {probe.correct_letter.lower()}" not in lowered


class TestTokenPrediction:
    def test_oracle_scores_perfectly(self, astro, bench):
        tok = make_tokenizer(astro, False)
        model = OracleModel(tok, astro, "bare", accuracy=1.0)
        evaluator = TokenPredictionEvaluator(model, tok, bench.few_shot(2))
        runner = BatchedEvaluationRunner(bench)
        result = runner.run(per_question(evaluator), "token_base", "oracle")
        assert result.accuracy == 1.0

    def test_partial_oracle_scores_between(self, astro, bench):
        tok = make_tokenizer(astro, False)
        model = OracleModel(tok, astro, "bare", accuracy=0.5, seed=3)
        evaluator = TokenPredictionEvaluator(model, tok, bench.few_shot(2))
        runner = BatchedEvaluationRunner(bench)
        result = runner.run(per_question(evaluator), "token_base", "half-oracle")
        # 0.5 oracle + chance on the rest ~= 0.625
        assert 0.4 < result.accuracy < 0.85

    def test_per_topic_breakdown_partitions(self, astro, bench):
        tok = make_tokenizer(astro, False)
        model = OracleModel(tok, astro, "bare")
        evaluator = TokenPredictionEvaluator(model, tok, bench.few_shot(2))
        result = BatchedEvaluationRunner(bench).run(
            per_question(evaluator), "m", "oracle"
        )
        assert result.per_topic
        for acc in result.per_topic.values():
            assert acc == 1.0

    def test_max_questions_limits(self, astro, bench):
        tok = make_tokenizer(astro, False)
        model = OracleModel(tok, astro, "bare")
        evaluator = TokenPredictionEvaluator(model, tok, bench.few_shot(2))
        result = BatchedEvaluationRunner(bench, max_questions=7).run(
            per_question(evaluator), "m", "oracle"
        )
        assert result.n_questions == 7


class TestPromptFormats:
    def test_next_token_prompt_structure(self, bench):
        prompt = format_next_token_prompt(bench.test[0], bench.few_shot(2))
        assert prompt.startswith("Astrophysics and Cosmology")
        assert prompt.count("Question :") == 3
        assert prompt.endswith("Answer :")
        # few-shot answers included, test answer absent
        assert prompt.count("Answer :") == 3
        for ex in bench.few_shot(2):
            assert f"Answer : {ex.correct_letter}" in prompt

    def test_paper_prompt_contains_contract(self, bench):
        q = bench.test[0]
        prompt = format_paper_full_instruct(q)
        assert "You are an expert in general astrophysics" in prompt
        assert '"ANSWER"' in prompt and '"EXPLANATION"' in prompt
        assert q.question in prompt
        for opt in q.options:
            assert opt in prompt

    def test_micro_chat_prompt(self, bench):
        prompt = format_micro_chat_prompt(bench.test[0])
        assert prompt.startswith("User :")
        assert prompt.endswith("Assistant :")


class TestFullInstructEvaluator:
    def test_generate_and_parse_with_trained_echo_model(self, astro, bench):
        """A tiny model overfit to echo 'the answer is X' for one question
        exercises the real generate->parse loop end to end."""
        tok = make_tokenizer(astro, False)
        q = bench.test[0]
        prompt = format_micro_chat_prompt(q)
        target = f"the answer is {q.correct_letter} ."
        model = TransformerLM(
            ModelConfig(vocab_size=len(tok.vocab), d_model=32, n_layers=2,
                        n_heads=4, max_seq_len=192),
            seed=0,
        )
        from repro.train import Trainer, TrainingConfig

        ids = tok.encode(prompt + " " + target) + [tok.vocab.eos_id]
        x = np.asarray([ids[:-1]])
        t = np.asarray([ids[1:]])
        trainer = Trainer(model, TrainingConfig(learning_rate=5e-3, total_steps=80))
        trainer.train(lambda: iter([(x, t, None)] * 1000))

        evaluator = FullInstructEvaluator(
            model, tok, eos_id=tok.vocab.eos_id
        )
        outcome = evaluator.answer(q)
        assert outcome.parsed
        assert outcome.answer_idx == q.correct_idx
        assert evaluator.records[0].response  # transcript retained


def make_real_model(tok, bench, seed=0):
    """A random-weight TransformerLM big enough for the two-shot prompts."""
    from repro.eval.prompts import format_next_token_prompt

    longest = max(
        len(tok.encode(format_next_token_prompt(q, bench.few_shot(2))))
        for q in bench.test
    )
    cfg = ModelConfig(
        vocab_size=len(tok.vocab), d_model=32, n_layers=2, n_heads=4,
        max_seq_len=longest + 8,
    )
    return TransformerLM(cfg, seed=seed)


class TestBatchedPrediction:
    def test_batched_matches_sequential_on_full_benchmark(self, astro, bench):
        """Acceptance: prefix-cached batched scoring is bit-identical to
        the per-question path over the whole micro benchmark."""
        tok = make_tokenizer(astro, False)
        model = make_real_model(tok, bench, seed=5)
        evaluator = TokenPredictionEvaluator(
            model, tok, bench.few_shot(2), batch_size=7
        )
        sequential = [evaluator.predict(q) for q in bench.test]
        batched = evaluator.predict_many(bench.test)
        assert batched == sequential
        # the shared scaffold really was prefilled (and only once)
        assert evaluator._prefix_cache is not None
        assert evaluator._prefix_cache.length > 0

    def test_batched_runner_matches_sequential_runner(self, astro, bench):
        tok = make_tokenizer(astro, False)
        model = make_real_model(tok, bench, seed=6)
        evaluator = TokenPredictionEvaluator(
            model, tok, bench.few_shot(2), batch_size=16
        )
        slow = BatchedEvaluationRunner(bench).run(per_question(evaluator), "m", "lm")
        fast = BatchedEvaluationRunner(bench).run(evaluator, "m", "lm")
        assert fast.predictions == slow.predictions
        assert fast.accuracy == slow.accuracy
        assert fast.per_topic == slow.per_topic

    def test_batched_runner_rejects_misaligned_batch(self, bench):
        # wrong length: one prediction for N questions
        broken = SimpleNamespace(predict_many=lambda questions: [0])
        runner = BatchedEvaluationRunner(bench)
        with pytest.raises(ValueError):
            runner.run(broken, "m", "broken")

    def test_empty_question_list(self, astro, bench):
        tok = make_tokenizer(astro, False)
        model = make_real_model(tok, bench)
        evaluator = TokenPredictionEvaluator(model, tok, bench.few_shot(2))
        assert evaluator.predict_many([]) == []


class TestFullInstructPrefixReuse:
    def test_reuse_matches_cold_path(self, astro, bench):
        """Scaffold-cached generation must not change any transcript."""
        tok = make_tokenizer(astro, False)
        model = make_real_model(tok, bench, seed=7)
        questions = bench.test[:4]
        cold = FullInstructEvaluator(
            model, tok, eos_id=tok.vocab.eos_id, reuse_prefix=False
        )
        warm = FullInstructEvaluator(
            model, tok, eos_id=tok.vocab.eos_id, reuse_prefix=True
        )
        cold_preds = cold.predict_many(questions)
        warm_preds = warm.predict_many(questions)
        assert warm_preds == cold_preds
        assert [r.response for r in warm.records] == [
            r.response for r in cold.records
        ]
        # the scaffold cache was built exactly once and then re-hit
        assert len(warm._prefix_store) == 1
        assert warm._prefix_store.hits == len(questions) - 1
        assert cold._prefix_store is None

        # a prompt past the context window is left-truncated before the
        # store sees it, with reuse on or off
        overlong = bench.test[4]
        max_seq_len = model.config.max_seq_len
        padding = overlong.question
        while len(tok.encode(padding)) <= max_seq_len:
            padding += " " + overlong.question
        for evaluator in (cold, warm):
            evaluator.prompt_builder = (
                lambda q: padding + " " + format_micro_chat_prompt(q)
            )
            evaluator.answer(overlong)
        assert warm.records[-1].response == cold.records[-1].response


class BoundaryMergingTokenizer:
    """Word tokenizer wrapper that merges chosen adjacent token pairs.

    Emulates a BPE whose learned merges cross the ``Answer :`` boundary
    (e.g. the trailing few-shot answer letter fusing with the next
    question's first word, or ``:`` fusing with the answer letter).  Such
    merges mean ``encode(scaffold) + encode(suffix)`` is NOT the encoding
    of the concatenated prompt, so the batched evaluator must detect the
    mismatch and fall back to the exact longest-common-prefix split.
    """

    def __init__(self, base, pairs):
        self.base = base
        self.vocab = base.vocab  # predict_many reads .vocab.pad_id
        self._pair_to_id = {}
        self._id_to_pair = {}
        next_id = len(base.vocab)
        for a, b in pairs:
            key = (base.vocab.strict_id_of(a), base.vocab.strict_id_of(b))
            self._pair_to_id[key] = next_id
            self._id_to_pair[next_id] = key
            next_id += 1

    @property
    def vocab_size(self):
        return len(self.base.vocab) + len(self._pair_to_id)

    def encode(self, text, **kwargs):
        ids = self.base.encode(text, **kwargs)
        out = []
        i = 0
        while i < len(ids):
            if i + 1 < len(ids) and (ids[i], ids[i + 1]) in self._pair_to_id:
                out.append(self._pair_to_id[(ids[i], ids[i + 1])])
                i += 2
            else:
                out.append(ids[i])
                i += 1
        return out

    def decode(self, ids, **kwargs):
        expanded = []
        for idx in ids:
            pair = self._id_to_pair.get(int(idx))
            if pair is not None:
                expanded.extend(pair)
            else:
                expanded.append(int(idx))
        return self.base.decode(expanded, **kwargs)

    def answer_token_candidates(self, letter):
        return self.base.answer_token_candidates(letter)

    def token_ids_for_answer_letter(self, letter):
        return self.base.token_ids_for_answer_letter(letter)


class TestBoundaryMergingDifferential:
    """predict_many must equal per-question predict even when answer
    tokens merge across the Answer:/question boundary."""

    def _evaluator(self, tok, bench, seed):
        few_shot = bench.few_shot(2)
        longest = max(
            len(tok.encode(format_next_token_prompt(q, few_shot)))
            for q in bench.test
        )
        model = TransformerLM(
            ModelConfig(
                vocab_size=tok.vocab_size, d_model=32, n_layers=2, n_heads=4,
                max_seq_len=longest + 8,
            ),
            seed=seed,
        )
        from repro.eval.token_pred import AnswerTokenMap

        answer_map = AnswerTokenMap(
            ids={l: tok.vocab.strict_id_of(l) for l in "ABCD"},
            convention="bare",
        )
        return TokenPredictionEvaluator(
            model, tok, few_shot, answer_map=answer_map, batch_size=5
        )

    def test_merge_across_scaffold_suffix_boundary(self, astro, bench):
        base = make_tokenizer(astro, False)
        last_letter = bench.few_shot(2)[-1].correct_letter
        # the final few-shot answer letter fuses with the next question's
        # first word — exactly the scaffold/suffix seam
        tok = BoundaryMergingTokenizer(base, [(last_letter, "Question")])
        evaluator = self._evaluator(tok, bench, seed=21)

        from repro.eval.prompts import (
            format_next_token_scaffold,
            format_next_token_suffix,
        )

        scaffold_ids = tok.encode(format_next_token_scaffold(bench.few_shot(2)))
        suffix_ids = tok.encode(format_next_token_suffix(bench.test[0]))
        full_ids = evaluator._prompt_ids(bench.test[0])
        assert scaffold_ids + suffix_ids != full_ids  # seam really merged

        sequential = [evaluator.predict(q) for q in bench.test]
        assert evaluator.predict_many(bench.test) == sequential

    def test_merge_of_colon_and_answer_letter(self, astro, bench):
        base = make_tokenizer(astro, False)
        # ":" fuses with every answer letter, changing the scaffold's
        # solved blocks (fast path stays valid: merges are seam-local)
        tok = BoundaryMergingTokenizer(base, [(":", l) for l in "ABCD"])
        evaluator = self._evaluator(tok, bench, seed=22)
        assert tok.encode("Answer : A") != base.encode("Answer : A")

        sequential = [evaluator.predict(q) for q in bench.test]
        assert evaluator.predict_many(bench.test) == sequential

    def test_space_prefix_convention_differential(self, astro, bench):
        # the built-in marker convention also breaks concat-stability at
        # the seam; the fallback split must stay bit-compatible
        tok = make_tokenizer(astro, True)
        model = make_real_model(tok, bench, seed=23)
        from repro.eval.token_pred import AnswerTokenMap

        answer_map = AnswerTokenMap(
            ids={l: tok.vocab.strict_id_of("Ġ" + l) for l in "ABCD"},
            convention="space-prefixed",
        )
        evaluator = TokenPredictionEvaluator(
            model, tok, bench.few_shot(2), answer_map=answer_map, batch_size=4
        )
        sequential = [evaluator.predict(q) for q in bench.test]
        assert evaluator.predict_many(bench.test) == sequential
