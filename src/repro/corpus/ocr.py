"""OCR pipeline simulation (the Nougat analogue).

The paper replaced algorithmically cleaned LaTeX extraction with Nougat OCR
of ADS-downloaded PDFs, because the LaTeX pipeline "did not fully provide
excellent data quality".  We model both sides:

* :class:`OCRNoiseModel` — a configurable corruption process (character
  substitutions, word drops, hyphenation splits, ligature garbling) applied
  to ground-truth text, standing in for the rendering + recognition chain;
* :class:`NougatOCR` — a *good* OCR engine: low noise rates;
* :func:`clean_ocr_text` — the post-OCR cleaning pass (de-hyphenation,
  whitespace repair, control-character stripping).

Corruption hits fact sentences too, so noisy pipelines measurably reduce
effective fact coverage — the mechanism behind the paper's data-quality
observations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from repro.utils.rng import new_rng

# plausible OCR confusions (symmetric-ish pairs)
_CONFUSIONS = {
    "o": "0",
    "l": "1",
    "i": "1",
    "e": "c",
    "a": "o",
    "s": "5",
    "n": "m",
    "u": "v",
    "0": "o",
    "1": "l",
    "5": "s",
}


@dataclass(frozen=True)
class OCRNoiseModel:
    """Corruption rates, all per-word probabilities."""

    char_sub_rate: float = 0.02  # substitute one character inside the word
    word_drop_rate: float = 0.002  # drop the word entirely
    hyphenation_rate: float = 0.01  # split the word with "- "
    garble_rate: float = 0.002  # replace the word with glyph soup
    seed: int = 0

    def corrupt(self, text: str, stream: int = 0) -> str:
        rng = new_rng(self.seed, "ocr", stream)
        out: List[str] = []
        for word in text.split():
            r = rng.random()
            if r < self.word_drop_rate:
                continue
            if r < self.word_drop_rate + self.garble_rate:
                out.append("".join(rng.choice(list("#@~^*")) for _ in range(3)))
                continue
            if rng.random() < self.char_sub_rate and len(word) > 2:
                pos = int(rng.integers(0, len(word)))
                ch = word[pos]
                sub = _CONFUSIONS.get(ch.lower())
                if sub is not None:
                    word = word[:pos] + sub + word[pos + 1 :]
            if rng.random() < self.hyphenation_rate and len(word) > 5:
                cut = int(rng.integers(2, len(word) - 2))
                word = word[:cut] + "- " + word[cut:]
            out.append(word)
        return " ".join(out)


class NougatOCR:
    """A high-quality OCR engine: low corruption rates.

    ``legacy_latex_pipeline`` builds the noisier comparator that the paper
    moved away from.
    """

    def __init__(self, seed: int = 0) -> None:
        self.noise = OCRNoiseModel(
            char_sub_rate=0.004,
            word_drop_rate=0.0005,
            hyphenation_rate=0.003,
            garble_rate=0.0002,
            seed=seed,
        )

    def transcribe(self, text: str, stream: int = 0) -> str:
        return clean_ocr_text(self.noise.corrupt(text, stream))

    @staticmethod
    def legacy_latex_pipeline(seed: int = 0) -> OCRNoiseModel:
        return OCRNoiseModel(
            char_sub_rate=0.03,
            word_drop_rate=0.01,
            hyphenation_rate=0.02,
            garble_rate=0.01,
            seed=seed,
        )


_HYPHEN_RE = re.compile(r"(\w)- (\w)")
_GLYPH_RE = re.compile(r"[#@~^*]{2,}")
_WS_RE = re.compile(r"\s+")


def clean_ocr_text(text: str) -> str:
    """Post-OCR cleanup: re-join hyphenations, drop glyph soup, fix spaces."""
    text = _HYPHEN_RE.sub(r"\1\2", text)
    text = _GLYPH_RE.sub(" ", text)
    return _WS_RE.sub(" ", text).strip()


def word_error_rate(reference: str, hypothesis: str) -> float:
    """Word-level Levenshtein distance over reference length (0 = perfect)."""
    ref = reference.split()
    hyp = hypothesis.split()
    if not ref:
        return 0.0 if not hyp else 1.0
    prev = list(range(len(hyp) + 1))
    for i, rw in enumerate(ref, 1):
        cur = [i] + [0] * len(hyp)
        for j, hw in enumerate(hyp, 1):
            cost = 0 if rw == hw else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
        prev = cur
    return prev[-1] / len(ref)
