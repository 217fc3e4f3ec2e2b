"""The full-instruct benchmarking method (Section V-A).

Prompts the instruct model conversationally, generates a response (up to
512 tokens in the paper), and runs the two-stage answer parser.  Prompt
style is pluggable: the paper's Appendix B JSON prompt for JSON-capable
models, or the micro chat format for the micro zoo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Protocol, Sequence

import numpy as np

from repro.eval.parsing import FallbackInterpreter, ParseOutcome, parse_model_answer
from repro.eval.prompts import format_micro_chat_prompt, format_paper_full_instruct
from repro.mcq.generation import MCQuestion
from repro.model.kv_cache import PrefixCacheStore
from repro.model.sampling import GenerationConfig, generate
from repro.model.transformer import TransformerLM

PromptBuilder = Callable[[MCQuestion], str]


class DecoderLike(Protocol):
    def encode(self, text: str, add_bos: bool = ..., add_eos: bool = ...) -> List[int]: ...
    def decode(self, ids: Sequence[int], skip_special: bool = ...) -> str: ...


@dataclass
class FullInstructRecord:
    """One question's full-instruct transcript."""

    question_id: int
    response: str
    outcome: ParseOutcome


class FullInstructEvaluator:
    """Generate-and-parse evaluation of an instruct model."""

    def __init__(
        self,
        model: TransformerLM,
        tokenizer: DecoderLike,
        prompt_builder: Optional[PromptBuilder] = None,
        generation: Optional[GenerationConfig] = None,
        interpreter: Optional[FallbackInterpreter] = None,
        eos_id: Optional[int] = None,
        prefix_ids: Sequence[int] = (),
        reuse_prefix: bool = True,
    ) -> None:
        self.model = model
        self.tokenizer = tokenizer
        self.prompt_builder = prompt_builder or format_micro_chat_prompt
        stop = (eos_id,) if eos_id is not None else ()
        self.generation = generation or GenerationConfig(
            max_new_tokens=48, temperature=0.0, stop_token_ids=stop
        )
        self.interpreter = interpreter or FallbackInterpreter()
        self.prefix_ids = list(prefix_ids)
        # every question's prompt opens through this store, so the chat
        # scaffold they share is prefilled once and then forked
        self._prefix_store = PrefixCacheStore(max_entries=2) if reuse_prefix else None
        self.records: List[FullInstructRecord] = []

    def answer(self, question: MCQuestion) -> ParseOutcome:
        """Prompt, generate, parse; records the transcript."""
        prompt = self.prompt_builder(question)
        prompt_ids = self.prefix_ids + self.tokenizer.encode(prompt)
        out_ids = generate(
            self.model, prompt_ids, self.generation, store=self._prefix_store
        )
        response = self.tokenizer.decode(out_ids)
        outcome = parse_model_answer(response, question.options, self.interpreter)
        self.records.append(
            FullInstructRecord(question.question_id, response, outcome)
        )
        return outcome

    def predict(self, question: MCQuestion) -> Optional[int]:
        return self.answer(question).answer_idx

    def predict_many(self, questions: Sequence[MCQuestion]) -> List[Optional[int]]:
        return [self.predict(q) for q in questions]

    @property
    def parse_failure_rate(self) -> float:
        if not self.records:
            return 0.0
        failed = sum(1 for r in self.records if not r.outcome.parsed)
        return failed / len(self.records)

    @property
    def interpreter_usage_rate(self) -> float:
        """How often the regex stage failed and the interpreter stepped in."""
        if not self.records:
            return 0.0
        used = sum(1 for r in self.records if r.outcome.stage == "interpreter")
        return used / len(self.records)
