"""Tokenization substrate.

:class:`~repro.tokenizer.word.WordTokenizer` is a word-level tokenizer used
by the micro model zoo, where a compact semantic vocabulary lets tiny
models learn knowledge-recall tasks.  It exposes ``encode`` / ``decode`` /
``vocab`` and supports two *answer-token conventions*: some families emit
option letters as bare tokens (``"A"``) and some as space-prefixed tokens
(``" A"``).  The paper's next-token benchmarking method discovers the
convention dynamically (Section V-B); the two conventions reproduce that
variation so the discovery code path is exercised for real.
"""

from repro.tokenizer.vocab import SpecialTokens, Vocabulary
from repro.tokenizer.normalize import TextNormalizer
from repro.tokenizer.word import WordTokenizer

__all__ = [
    "SpecialTokens",
    "Vocabulary",
    "TextNormalizer",
    "WordTokenizer",
]
