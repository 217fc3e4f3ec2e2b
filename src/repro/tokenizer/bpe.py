"""Byte-pair encoding tokenizer, trained from scratch.

The implementation follows the classic Sennrich-style word-internal BPE:

1. Pre-tokenize text into "words" (maximal runs of letters/digits, or single
   punctuation marks).  A word that was preceded by a space is prefixed with
   the space marker ``Ġ`` (the GPT-2 convention), so that spacing
   survives a decode round-trip and so that ``"A"`` and ``" A"`` are distinct
   tokens — the property the paper's answer-token discovery relies on.
2. Each word starts as a sequence of characters; training repeatedly merges
   the most frequent adjacent symbol pair until the vocabulary budget is
   reached.
3. Encoding applies the learned merges in rank order (lowest rank first),
   then maps symbols to vocabulary ids.

Training complexity is kept manageable by operating on the *word frequency
table* rather than the raw corpus, and by incrementally updating pair counts
after each merge (only words containing the merged pair are touched).
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.tokenizer.normalize import TextNormalizer
from repro.tokenizer.vocab import SpecialTokens, Vocabulary

SPACE_MARKER = "Ġ"  # 'Ġ', marks a word that follows a space

# One match per word: (the whitespace run before it, the word itself).
_WORD_RE = re.compile(r"(\s*)([A-Za-z0-9]+|[^\sA-Za-z0-9])")

Pair = Tuple[str, str]


def spaced_words(text: str) -> List[Tuple[str, str]]:
    """``(whitespace before, word)`` for each word of ``text``, in one pass.

    Trailing whitespace is stripped first: with no word after it, the
    pattern would rescan the run from each of its characters (quadratic).
    """
    return _WORD_RE.findall(text.rstrip())


def pretokenize(text: str) -> List[str]:
    """Split text into marker-prefixed words.

    A word is prefixed with :data:`SPACE_MARKER` exactly when whitespace
    comes right before it, so a first word carries the marker only if the
    text starts with whitespace.
    """
    return [
        SPACE_MARKER + word if space else word
        for space, word in spaced_words(text)
    ]


def _count_pairs(
    word_symbols: Dict[str, List[str]], word_freq: Dict[str, int]
) -> Dict[Pair, int]:
    counts: Dict[Pair, int] = {}
    for word, freq in word_freq.items():
        symbols = word_symbols[word]
        for a, b in zip(symbols, symbols[1:]):
            counts[(a, b)] = counts.get((a, b), 0) + freq
    return counts


def _merge_word(symbols: List[str], pair: Pair, merged: str) -> List[str]:
    out: List[str] = []
    i = 0
    n = len(symbols)
    while i < n:
        if i + 1 < n and symbols[i] == pair[0] and symbols[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


class BPETokenizer:
    """Trainable BPE tokenizer.

    Parameters
    ----------
    vocab:
        Vocabulary holding specials + characters + merged symbols.
    merges:
        Ordered list of merge pairs; the index is the merge rank.
    normalizer:
        Applied to every input text before pre-tokenization.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        merges: Sequence[Pair],
        normalizer: Optional[TextNormalizer] = None,
    ) -> None:
        self.vocab = vocab
        self.merges: List[Pair] = list(merges)
        self.merge_ranks: Dict[Pair, int] = {p: i for i, p in enumerate(self.merges)}
        self.normalizer = normalizer or TextNormalizer()
        self._encode_cache: Dict[str, List[str]] = {}

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    @classmethod
    def train(
        cls,
        texts: Iterable[str],
        vocab_size: int,
        normalizer: Optional[TextNormalizer] = None,
        specials: Optional[SpecialTokens] = None,
        min_pair_freq: int = 2,
    ) -> "BPETokenizer":
        """Learn merges from ``texts`` until ``len(vocab) == vocab_size``.

        ``vocab_size`` must leave room for the specials and the base
        character alphabet; training stops early if no pair reaches
        ``min_pair_freq``.
        """
        normalizer = normalizer or TextNormalizer()
        word_freq: Dict[str, int] = {}
        for text in texts:
            for word in pretokenize(normalizer(text)):
                word_freq[word] = word_freq.get(word, 0) + 1

        vocab = Vocabulary(specials)
        alphabet = sorted({ch for word in word_freq for ch in word})
        vocab.add_all(alphabet)
        if vocab_size < len(vocab):
            raise ValueError(
                f"vocab_size={vocab_size} is smaller than specials+alphabet "
                f"({len(vocab)})"
            )

        word_symbols: Dict[str, List[str]] = {w: list(w) for w in word_freq}
        pair_counts = _count_pairs(word_symbols, word_freq)
        # Words indexed by the symbols they contain, so a merge only revisits
        # words that could change.
        words_with_symbol: Dict[str, set] = {}
        for word, symbols in word_symbols.items():
            for s in symbols:
                words_with_symbol.setdefault(s, set()).add(word)

        merges: List[Pair] = []
        while len(vocab) < vocab_size and pair_counts:
            # Deterministic tie-break: highest count, then lexicographic.
            best = max(pair_counts.items(), key=lambda kv: (kv[1], kv[0]))
            (a, b), freq = best
            if freq < min_pair_freq:
                break
            merged = a + b
            merges.append((a, b))
            vocab.add(merged)

            candidates = words_with_symbol.get(a, set()) & words_with_symbol.get(
                b, set()
            )
            for word in candidates:
                old = word_symbols[word]
                new = _merge_word(old, (a, b), merged)
                if new == old:
                    continue
                f = word_freq[word]
                for p in zip(old, old[1:]):
                    pair_counts[p] -= f
                    if pair_counts[p] <= 0:
                        del pair_counts[p]
                for p in zip(new, new[1:]):
                    pair_counts[p] = pair_counts.get(p, 0) + f
                word_symbols[word] = new
                for s in new:
                    words_with_symbol.setdefault(s, set()).add(word)
        return cls(vocab, merges, normalizer)

    # ------------------------------------------------------------------
    # encode / decode
    # ------------------------------------------------------------------
    def _bpe_word(self, word: str) -> List[str]:
        cached = self._encode_cache.get(word)
        if cached is not None:
            return cached
        symbols = list(word)
        while len(symbols) > 1:
            ranked = [
                (self.merge_ranks.get((a, b)), i)
                for i, (a, b) in enumerate(zip(symbols, symbols[1:]))
            ]
            ranked = [(r, i) for r, i in ranked if r is not None]
            if not ranked:
                break
            rank, i = min(ranked)
            symbols = (
                symbols[:i] + [symbols[i] + symbols[i + 1]] + symbols[i + 2 :]
            )
        self._encode_cache[word] = symbols
        return symbols

    def encode(
        self, text: str, add_bos: bool = False, add_eos: bool = False
    ) -> List[int]:
        """Tokenize ``text`` into vocabulary ids (unknown symbols -> unk)."""
        ids: List[int] = []
        if add_bos:
            ids.append(self.vocab.bos_id)
        for word in pretokenize(self.normalizer(text)):
            for symbol in self._bpe_word(word):
                ids.append(self.vocab.id_of(symbol))
        if add_eos:
            ids.append(self.vocab.eos_id)
        return ids

    def decode(self, ids: Sequence[int], skip_special: bool = True) -> str:
        """Map ids back to text, turning space markers into spaces."""
        special = set(self.vocab.special_ids)
        parts: List[str] = []
        for idx in ids:
            if skip_special and idx in special:
                continue
            parts.append(self.vocab.token_of(idx))
        text = "".join(parts)
        return text.replace(SPACE_MARKER, " ").strip()

    # ------------------------------------------------------------------
    # introspection used by the evaluation harness
    # ------------------------------------------------------------------
    def answer_token_candidates(self, letter: str) -> Dict[str, int]:
        """Map convention name -> token id for ``letter``, when in vocab."""
        out: Dict[str, int] = {}
        if letter in self.vocab:
            out["bare"] = self.vocab.strict_id_of(letter)
        if SPACE_MARKER + letter in self.vocab:
            out["space-prefixed"] = self.vocab.strict_id_of(SPACE_MARKER + letter)
        return out
