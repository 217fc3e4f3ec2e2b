"""Property-based tokenizer round-trip tests (stdlib randomness only).

Seeded :class:`random.Random` drives text generation — no third-party
property-testing dependency — so every failure reproduces from its seed.
Three property families:

* **round-trip idempotence** — for any generated text, the ids produced by
  ``encode`` survive a decode/re-encode cycle bit-identically
  (``encode(decode(ids)) == ids``) for both word conventions;
* **boundary stability** — tokens never cross a whitespace boundary, so
  encoding a concatenation equals concatenating encodings (exactly for the
  bare-word convention; up to the leading space marker otherwise), which
  is the property the batched evaluator's scaffold/suffix split depends
  on;
* **scaffold/suffix split coverage** — ``TokenPredictionEvaluator
  ._split_prompts`` takes its verified fast path for concat-stable
  tokenizers and falls back to the exact longest-common-prefix split when
  the space marker breaks concat-stability, and in both branches
  ``shared + suffix`` reconstructs every full prompt encoding.
"""

import random

import pytest

from repro.corpus import make_astro_knowledge
from repro.eval.prompts import (
    format_next_token_prompt,
    format_next_token_scaffold,
    format_next_token_suffix,
)
from repro.eval.token_pred import AnswerTokenMap, TokenPredictionEvaluator
from repro.mcq import build_benchmark
from repro.tokenizer import WordTokenizer

N_CASES = 40  # generated texts per property

WORD_POOL = (
    "the quasar redshift of spectrum galaxy emits at luminosity answer "
    "question dark matter halo virial mass accretion disk supernova "
    "remnant neutron star pulsar period cosmology baryon acoustic "
    "oscillation inflation epoch reionization metallicity dust torus "
    "0 1 2 3 42 1999 Answer Question A B C D : . , ? ( )"
).split()


def make_text(rng: random.Random, max_words: int = 24) -> str:
    """A random astronomy-flavoured text with mixed separators."""
    n = rng.randint(1, max_words)
    words = [rng.choice(WORD_POOL) for _ in range(n)]
    seps = [rng.choice([" ", " ", " ", "\n", "  "]) for _ in range(n - 1)]
    out = words[0]
    for sep, word in zip(seps, words[1:]):
        out += sep + word
    return out


@pytest.fixture(scope="module")
def training_corpus():
    rng = random.Random(1234)
    return [make_text(rng) for _ in range(200)] + [" ".join(WORD_POOL)]


@pytest.fixture(scope="module")
def word_bare(training_corpus):
    return WordTokenizer.train(training_corpus, vocab_size=4000, space_prefix=False)


@pytest.fixture(scope="module")
def word_marked(training_corpus):
    return WordTokenizer.train(training_corpus, vocab_size=4000, space_prefix=True)


def all_tokenizers(word_bare, word_marked):
    return [("word-bare", word_bare), ("word-marked", word_marked)]


class TestRoundTripIdempotence:
    def test_encode_decode_encode_is_identity(self, word_bare, word_marked):
        rng = random.Random(7)
        for name, tok in all_tokenizers(word_bare, word_marked):
            for case in range(N_CASES):
                text = make_text(rng)
                ids = tok.encode(text)
                again = tok.encode(tok.decode(ids))
                assert again == ids, f"{name} case {case}: {text!r}"

    def test_decode_restores_normalized_text(self, word_bare, word_marked):
        # vocabularies cover the whole pool, so decode must reproduce the
        # normalizer's view of the text (whitespace collapsed) exactly
        rng = random.Random(11)
        for name, tok in all_tokenizers(word_bare, word_marked):
            for case in range(N_CASES):
                text = make_text(rng)
                expected = tok.normalizer(text)
                assert tok.decode(tok.encode(text)) == expected, f"{name} case {case}"

    def test_unknown_ids_do_not_crash_decode(self, word_bare):
        ids = word_bare.encode("quasar redshift")
        assert word_bare.decode(ids + [word_bare.vocab.unk_id])

    def test_specials_skipped_on_decode(self, word_marked):
        text = "dark matter halo"
        ids = word_marked.encode(text, add_bos=True, add_eos=True)
        assert word_marked.decode(ids) == text
        assert word_marked.encode(word_marked.decode(ids)) == word_marked.encode(text)


class TestMergeBoundaryStability:
    """Token sequences split/concat stably at whitespace boundaries."""

    def _split_case(self, rng):
        left = make_text(rng, max_words=10)
        right = make_text(rng, max_words=10)
        return left, right

    def test_bare_words_concat_exact(self, word_bare):
        rng = random.Random(23)
        for case in range(N_CASES):
            left, right = self._split_case(rng)
            joined = word_bare.encode(left + " " + right)
            assert joined == word_bare.encode(left) + word_bare.encode(right), (
                f"case {case}: {left!r} + {right!r}"
            )

    @pytest.mark.parametrize("tok_name", ["word_marked"])
    def test_marked_concat_differs_only_in_space_marker(self, request, tok_name):
        # With the GPT-2 space marker the suffix's first word encodes
        # differently in isolation (no preceding space) — exactly the case
        # the evaluator's fast-path verification must catch.  Re-encoding
        # the suffix behind a sentinel word restores concat-exactness.
        tok = request.getfixturevalue(tok_name)
        rng = random.Random(29)
        sentinel = "the"
        sentinel_len = len(tok.encode(sentinel))
        for case in range(N_CASES):
            left, right = self._split_case(rng)
            joined = tok.encode(left + " " + right)
            marked_right = tok.encode(sentinel + " " + right)[sentinel_len:]
            assert joined == tok.encode(left) + marked_right, f"case {case}"


class TestScaffoldSuffixSplit:
    """TokenPredictionEvaluator._split_prompts takes its fast path for every
    tokenizer here; ``TestBoundaryMergingDifferential`` in
    ``test_eval_methods.py`` forces the fallback."""

    @pytest.fixture(scope="class")
    def bench(self):
        astro = make_astro_knowledge(n_facts=60, seed=5)
        return build_benchmark(
            astro, n_articles=4, facts_per_article=5, dev_size=2, seed=6
        )

    def _evaluator(self, tokenizer, bench):
        letters = "ABCD"
        ids = {
            letter: tokenizer.vocab.id_of(letter) for letter in letters
        }
        return TokenPredictionEvaluator(
            model=object(),  # predict() never called in these tests
            tokenizer=tokenizer,
            few_shot=bench.dev[:2],
            answer_map=AnswerTokenMap(ids=ids, convention="bare"),
        )

    def _corpus_tokenizer(self, bench, space_prefix):
        texts = [format_next_token_prompt(q, bench.dev[:2]) for q in bench.test]
        return WordTokenizer.train(texts, vocab_size=4000, space_prefix=space_prefix)

    def test_fast_path_taken_when_concat_stable(self, bench):
        tok = self._corpus_tokenizer(bench, space_prefix=False)
        ev = self._evaluator(tok, bench)
        questions = bench.test[:6]
        shared, suffixes = ev._split_prompts(questions)
        scaffold_ids = tok.encode(format_next_token_scaffold(bench.dev[:2]))
        assert shared == scaffold_ids  # fast path: shared IS the scaffold
        for q, suffix in zip(questions, suffixes):
            assert shared + suffix == ev._prompt_ids(q)

    def test_fast_path_taken_for_the_marker_convention(self, bench):
        tok = self._corpus_tokenizer(bench, space_prefix=True)
        ev = self._evaluator(tok, bench)
        questions = bench.test[:6]
        scaffold_ids = tok.encode(format_next_token_scaffold(bench.dev[:2]))
        # encoded alone, a tail's first word loses its space marker
        naive = scaffold_ids + tok.encode(format_next_token_suffix(questions[0]))
        assert naive != ev._prompt_ids(questions[0])
        shared, suffixes = ev._split_prompts(questions)
        assert shared == scaffold_ids
        for q, suffix in zip(questions, suffixes):
            assert shared + suffix == ev._prompt_ids(q)
