"""Diagnostic probes separating knowledge from format skill.

The benchmark score conflates two capabilities; these probes measure them
independently, which is how the reproduction's mechanism experiments tell
*what* a training stage changed:

* :func:`knowledge_recall` — statement-completion accuracy: given the
  canonical statement prefix, does greedy decoding produce the fact's
  value?  Pure parametric recall, no MCQ machinery.
* :func:`circuit_quality` — single-question MCQ accuracy on freshly
  shuffled renderings: the match-the-value-and-emit-its-letter circuit,
  measured on whatever facts the caller chooses (e.g. general-world facts
  the model has certainly seen, isolating format skill from knowledge).

Both were instrumental during bring-up (see DESIGN.md §6): CPT-induced
degradation shows up as circuit decay with knowledge intact, while
coverage gaps show up as knowledge misses with the circuit intact.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence

import numpy as np

from repro.corpus.general import render_mcq_exercise
from repro.corpus.knowledge import ANSWER_LETTERS, Fact
from repro.model.sampling import GenerationConfig, generate
from repro.model.transformer import TransformerLM
from repro.utils.rng import new_rng


class ProbeTokenizer(Protocol):
    def encode(self, text: str, add_bos: bool = ..., add_eos: bool = ...) -> List[int]: ...
    def decode(self, ids: Sequence[int], skip_special: bool = ...) -> str: ...
    def answer_token_candidates(self, letter: str) -> dict: ...


def knowledge_recall(
    model: TransformerLM,
    tokenizer: ProbeTokenizer,
    facts: Sequence[Fact],
    prefix_ids: Sequence[int] = (),
    max_new_tokens: int = 3,
) -> float:
    """Fraction of facts whose value greedy decoding completes correctly.

    Matches on the value's first token (the number), which suffices to
    distinguish the correct value from all distractors by construction.
    """
    if not facts:
        raise ValueError("no facts to probe")
    hits = 0
    for fact in facts:
        ids = list(prefix_ids) + tokenizer.encode(fact.question())
        out = generate(model, ids, GenerationConfig(max_new_tokens=max_new_tokens))
        completion = tokenizer.decode(out).split()
        if completion[:1] == [fact.correct.split()[0]]:
            hits += 1
    return hits / len(facts)


def circuit_quality(
    model: TransformerLM,
    tokenizer: ProbeTokenizer,
    facts: Sequence[Fact],
    n_probes: int = 48,
    prefix_ids: Sequence[int] = (),
    seed: int = 0,
) -> float:
    """Single-block MCQ accuracy on fresh option shuffles.

    Picks the answer by argmax over the four letter-token logits under the
    tokenizer's available convention (preferring marker-prefixed when both
    exist, matching how letters appear after ``Answer :`` mid-text).
    """
    if not facts:
        raise ValueError("no facts to probe")
    rng = new_rng(seed, "circuit-probe")
    letter_ids = {}
    for letter in ANSWER_LETTERS:
        candidates = tokenizer.answer_token_candidates(letter)
        if not candidates:
            raise ValueError(f"letter {letter} missing from vocabulary")
        letter_ids[letter] = candidates.get(
            "space-prefixed", next(iter(candidates.values()))
        )
    hits = 0
    for i in range(n_probes):
        fact = facts[i % len(facts)]
        text = render_mcq_exercise(fact, rng, include_answer=False)
        ids = list(prefix_ids) + tokenizer.encode(text)
        logits = model.next_token_logits(np.asarray(ids, dtype=np.int64))
        pick = max(ANSWER_LETTERS, key=lambda L: logits[letter_ids[L]])
        correct_letter: Optional[str] = None
        for letter, line in zip(ANSWER_LETTERS, text.split("\n")[1:5]):
            value = line.partition(" : ")[2]
            if value == fact.correct:
                correct_letter = letter
        hits += pick == correct_letter
    return hits / n_probes
