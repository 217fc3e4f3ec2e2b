"""Evaluation harness: the paper's three benchmarking methods (Section V).

* :class:`~repro.eval.full_instruct.FullInstructEvaluator` — chat-style
  question answering with chain-of-thought, regex answer extraction and an
  interpreter fallback (the GPT-4o analogue);
* :class:`~repro.eval.token_pred.TokenPredictionEvaluator` — the two-shot
  next-token method with dynamic answer-token discovery, applicable to base
  models (method 2) and instruct models (method 3);
* :class:`~repro.eval.runner.BatchedEvaluationRunner` — the one way to
  run a method over a benchmark: it calls the evaluator's
  ``predict_many`` on the test split and folds the predictions into an
  accuracy with per-topic breakdowns.

Full-instruct generation opens every prompt through one prefix store
(:func:`repro.model.sampling.open_prompt`, the call the serving engine
makes), so the chat scaffold shared by all questions is prefilled once.
Its decoding settings are the caller's ``GenerationConfig``; the
interpreter's overlap threshold, the answer-token probe's top ten and its
four probe questions are fixed constants.
"""

from repro.eval.prompts import (
    PAPER_FULL_INSTRUCT_TEMPLATE,
    format_paper_full_instruct,
    format_micro_chat_prompt,
    format_next_token_prompt,
)
from repro.eval.parsing import (
    FallbackInterpreter,
    ParseOutcome,
    extract_answer_freeform,
    extract_answer_json,
    parse_model_answer,
)
from repro.eval.token_pred import (
    AnswerTokenMap,
    TokenPredictionEvaluator,
    discover_answer_tokens,
)
from repro.eval.full_instruct import FullInstructEvaluator
from repro.eval.runner import (
    BatchedEvaluationRunner,
    EvaluationResult,
    assemble_result,
)

__all__ = [
    "PAPER_FULL_INSTRUCT_TEMPLATE",
    "format_paper_full_instruct",
    "format_micro_chat_prompt",
    "format_next_token_prompt",
    "ParseOutcome",
    "extract_answer_json",
    "extract_answer_freeform",
    "parse_model_answer",
    "FallbackInterpreter",
    "AnswerTokenMap",
    "discover_answer_tokens",
    "TokenPredictionEvaluator",
    "FullInstructEvaluator",
    "BatchedEvaluationRunner",
    "EvaluationResult",
    "assemble_result",
]
