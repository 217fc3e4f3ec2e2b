"""Tokenizer tests: vocabulary, pretokenizer, word tokenizer conventions."""

import re
import string
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tokenizer import TextNormalizer, Vocabulary, WordTokenizer
from repro.tokenizer.word import SPACE_MARKER, pretokenize

CORPUS = [
    "the star is a bright sun in the night sky",
    "the planet orbits the star every ninety two days",
    "astronomers measure the brightness of the star",
    "the night sky is full of bright stars and planets",
    "Answer : A Answer : B Answer : C Answer : D",
]

# Every character class the pretokenizer treats differently, plus the
# Unicode whitespace that ``str.isspace`` accepts beyond ASCII.
_WHITESPACE = "\t\n\x0b\x0c\r\x1c\x1f\x85\xa0 \u3000"
_CHARS = st.one_of(
    st.sampled_from(string.ascii_letters + string.digits),
    st.sampled_from(string.punctuation + SPACE_MARKER),
    st.characters(min_codepoint=0x80, whitelist_categories=("Lu", "Ll", "Lo")),
    st.sampled_from(_WHITESPACE),
)
_SPACED_TEXT = st.builds(
    lambda head, body, tail: head + body + tail,
    st.text(alphabet=_WHITESPACE, max_size=3),
    st.text(alphabet=_CHARS, max_size=60),
    st.text(alphabet=_WHITESPACE, max_size=3),
)
_REFERENCE_WORD_RE = re.compile(r"[A-Za-z0-9]+|[^\sA-Za-z0-9]")


def _reference_pretokenize(text):
    """The two-step pretokenizer: find each word, then look one character
    back for whitespace."""
    words = []
    for match in _REFERENCE_WORD_RE.finditer(text):
        word = match.group(0)
        if match.start() > 0 and text[match.start() - 1].isspace():
            word = SPACE_MARKER + word
        words.append(word)
    return words


class TestVocabulary:
    def test_specials_occupy_first_ids(self):
        v = Vocabulary()
        assert v.pad_id == 0 and v.bos_id == 1 and v.eos_id == 2 and v.unk_id == 3

    def test_add_is_idempotent(self):
        v = Vocabulary()
        a = v.add("star")
        b = v.add("star")
        assert a == b and len(v) == 5

    def test_unknown_falls_back_to_unk(self):
        v = Vocabulary()
        assert v.id_of("nonexistent") == v.unk_id
        with pytest.raises(KeyError):
            v.strict_id_of("nonexistent")


class TestPretokenize:
    def test_marks_space_prefixed_words(self):
        words = pretokenize("the star shines")
        assert words[0] == "the"
        assert words[1] == SPACE_MARKER + "star"

    def test_punctuation_is_separate(self):
        words = pretokenize("star: bright")
        assert SPACE_MARKER not in words[0]
        assert words[1] == ":"

    def test_empty_text(self):
        assert pretokenize("") == []

    def test_long_trailing_whitespace_is_linear(self):
        # A whitespace run with no word after it must not be rescanned from
        # each of its characters: one pass over 20,000 spaces takes well
        # under a millisecond, the quadratic rescan about ten seconds.
        start = time.perf_counter()
        assert pretokenize("star" + " " * 20_000) == ["star"]
        assert time.perf_counter() - start < 1.0

    @given(_SPACED_TEXT)
    @settings(max_examples=400, deadline=None)
    def test_matches_lookbehind_reference(self, text):
        assert pretokenize(text) == _reference_pretokenize(text)

    @given(_SPACED_TEXT)
    @settings(max_examples=200, deadline=None)
    def test_word_split_conventions(self, text):
        # the bare convention keeps each word as matched; the space-prefix
        # convention is exactly the pretokenizer
        assert WordTokenizer._split(text, False) == _REFERENCE_WORD_RE.findall(text)
        assert WordTokenizer._split(text, True) == _reference_pretokenize(text)


class TestWordTokenizer:
    def test_roundtrip_bare(self):
        tok = WordTokenizer.train(CORPUS, vocab_size=500, space_prefix=False)
        text = "the star is bright"
        assert tok.decode(tok.encode(text)) == text

    def test_roundtrip_space_prefix(self):
        tok = WordTokenizer.train(CORPUS, vocab_size=500, space_prefix=True)
        text = "the star is bright"
        assert tok.decode(tok.encode(text)) == text

    def test_conventions_differ_in_answer_tokens(self):
        bare = WordTokenizer.train(CORPUS, vocab_size=500, space_prefix=False)
        spaced = WordTokenizer.train(CORPUS, vocab_size=500, space_prefix=True)
        assert "bare" in bare.answer_token_candidates("A")
        assert "space-prefixed" in spaced.answer_token_candidates("A")
        # the bare tokenizer has no space-prefixed letters at all
        assert "space-prefixed" not in bare.answer_token_candidates("A")

    def test_vocab_cap(self):
        tok = WordTokenizer.train(CORPUS, vocab_size=10)
        assert len(tok.vocab) <= 10

    def test_oov_maps_to_unk(self):
        tok = WordTokenizer.train(CORPUS, vocab_size=500)
        ids = tok.encode("zebra quantum")
        assert ids == [tok.vocab.unk_id, tok.vocab.unk_id]

    def test_deterministic_vocab(self):
        a = WordTokenizer.train(CORPUS, vocab_size=500)
        b = WordTokenizer.train(list(CORPUS), vocab_size=500)
        assert a.encode(CORPUS[2]) == b.encode(CORPUS[2])


class TestNormalizer:
    def test_collapse_whitespace(self):
        n = TextNormalizer()
        assert n("a   b\n\nc") == "a b c"

    def test_lowercase(self):
        n = TextNormalizer(lowercase=True)
        assert n("The STAR") == "the star"

    def test_strip_control(self):
        n = TextNormalizer()
        assert n("a\x00b") == "a b"
