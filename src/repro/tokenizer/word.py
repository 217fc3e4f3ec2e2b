"""Word-level tokenizer for the micro model zoo.

Tiny transformers learn knowledge-recall tasks far more readily over a
compact semantic vocabulary than over subwords, so the micro zoo trains on
word tokens.  Two *conventions* are supported to mirror the real-world
tokenizer variation the paper's evaluation must cope with:

* ``space_prefix=False`` ("llama-2 style" here): every word is a bare token;
  the answer letter after ``Answer:`` is the token ``"A"``.
* ``space_prefix=True`` ("llama-3 style" here): words that follow whitespace
  are distinct, marker-prefixed tokens; the answer letter is ``"ĠA"``
  (rendered ``" A"``).

The evaluation harness must discover which convention a model uses by
probing the logits (paper Section V-B); these two modes give that code a
real behavioural difference to discover.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.tokenizer.bpe import SPACE_MARKER, BPETokenizer, pretokenize, spaced_words
from repro.tokenizer.normalize import TextNormalizer
from repro.tokenizer.vocab import SpecialTokens, Vocabulary


class WordTokenizer:
    """Frequency-capped word-level tokenizer."""

    def __init__(
        self,
        vocab: Vocabulary,
        normalizer: Optional[TextNormalizer] = None,
        space_prefix: bool = False,
    ) -> None:
        self.vocab = vocab
        self.normalizer = normalizer or TextNormalizer()
        self.space_prefix = space_prefix

    # ------------------------------------------------------------------
    @classmethod
    def train(
        cls,
        texts: Iterable[str],
        vocab_size: int = 8192,
        normalizer: Optional[TextNormalizer] = None,
        specials: Optional[SpecialTokens] = None,
        space_prefix: bool = False,
        min_freq: int = 1,
    ) -> "WordTokenizer":
        """Build a vocabulary from the ``vocab_size`` most frequent words.

        Ties are broken lexicographically so training is deterministic for a
        given corpus regardless of iteration order.
        """
        normalizer = normalizer or TextNormalizer()
        freq: Dict[str, int] = {}
        for text in texts:
            for word in cls._split(normalizer(text), space_prefix):
                freq[word] = freq.get(word, 0) + 1
        vocab = Vocabulary(specials)
        budget = vocab_size - len(vocab)
        if budget < 0:
            raise ValueError(f"vocab_size={vocab_size} cannot hold specials")
        ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
        for word, count in ranked[:budget]:
            if count < min_freq:
                break
            vocab.add(word)
        return cls(vocab, normalizer, space_prefix)

    @staticmethod
    def _split(text: str, space_prefix: bool) -> List[str]:
        if space_prefix:
            return pretokenize(text)
        return [word for _, word in spaced_words(text)]

    # ------------------------------------------------------------------
    def encode(
        self, text: str, add_bos: bool = False, add_eos: bool = False
    ) -> List[int]:
        ids: List[int] = []
        if add_bos:
            ids.append(self.vocab.bos_id)
        for word in self._split(self.normalizer(text), self.space_prefix):
            ids.append(self.vocab.id_of(word))
        if add_eos:
            ids.append(self.vocab.eos_id)
        return ids

    def decode(self, ids: Sequence[int], skip_special: bool = True) -> str:
        special = set(self.vocab.special_ids)
        parts: List[str] = []
        for idx in ids:
            if skip_special and idx in special:
                continue
            parts.append(self.vocab.token_of(idx))
        if self.space_prefix:
            return "".join(parts).replace(SPACE_MARKER, " ").strip()
        return " ".join(parts)

    # one implementation for both tokenizers: it reads only ``self.vocab``
    answer_token_candidates = BPETokenizer.answer_token_candidates

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)
