"""Prompt templates from the paper's appendices.

Two prompt families:

* **Paper style** — the exact Appendix B full-instruct prompt (role-play,
  chain-of-thought request, JSON output contract) and the Appendix C
  two-shot next-token prompt.  Used verbatim against any model that can
  follow them (and by the parsing tests).
* **Micro style** — the chat-template rendering the micro zoo's SFT
  taught; small word-level models cannot emit JSON, so their full-instruct
  analogue asks for a natural-language answer in the trained chat format.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.mcq.generation import MCQuestion
from repro.train.sft import ChatTemplate

PAPER_FULL_INSTRUCT_TEMPLATE = """You are an expert in general astrophysics. Your task is to answer and explain the following multiple-choice question on astrophysics, sourced from a dataset. The question is:
Question: {question}
Options:
A: {option_a}
B: {option_b}
C: {option_c}
D: {option_d}
Determine the correct answer using your astrophysics knowledge and provide a detailed explanation for why this answer is correct.
Ensure your explanation is thorough, clearly articulating your thought process based on astrophysical principles.
Output format:
{{
"ANSWER": "[The choice you decide to choose]",
"EXPLANATION": "[Provide a valid explanation for the answer mentioned in ANSWER]"
}}
Give only one answer, either A, B, C or D, but not more than one, and always give an answer. Provide your response in valid JSON format only. Begin your output with the JSON structure immediately, without any preceding text. Strictly adhere to the specified output format."""


def format_paper_full_instruct(question: MCQuestion) -> str:
    """Render the Appendix B prompt for one benchmark item."""
    return PAPER_FULL_INSTRUCT_TEMPLATE.format(
        question=question.question,
        option_a=question.options[0],
        option_b=question.options[1],
        option_c=question.options[2],
        option_d=question.options[3],
    )


def format_micro_chat_prompt(question: MCQuestion) -> str:
    """The micro zoo's full-instruct analogue: the trained chat format."""
    body = f"Question : {question.question}\n{question.option_block()}"
    return ChatTemplate().render_prompt(body)


def _question_block(question: MCQuestion, answer: Optional[str]) -> str:
    lines = [f"Question : {question.question}", question.option_block()]
    lines.append(f"Answer : {answer}" if answer is not None else "Answer :")
    return "\n".join(lines)


NEXT_TOKEN_HEADER = (
    "Astrophysics and Cosmology Multiple choice questions Solution set :"
)


def format_next_token_scaffold(few_shot: Sequence[MCQuestion] = ()) -> str:
    """The question-independent part of the next-token prompt.

    Header plus solved few-shot blocks — identical for every question in
    a benchmark run, which is what makes it prefix-cacheable.
    """
    parts: List[str] = [NEXT_TOKEN_HEADER]
    for ex in few_shot:
        parts.append(_question_block(ex, ex.correct_letter))
    return "\n".join(parts)


def format_next_token_suffix(question: MCQuestion) -> str:
    """The per-question tail of the next-token prompt (incl. separator)."""
    return "\n" + _question_block(question, None)


def format_next_token_prompt(
    question: MCQuestion, few_shot: Sequence[MCQuestion] = ()
) -> str:
    """Render the Appendix C two-shot next-token prompt.

    ``few_shot`` questions are included with their correct answers; the
    test question ends with a bare ``Answer :`` so the next token is the
    model's choice.
    """
    return format_next_token_scaffold(few_shot) + format_next_token_suffix(question)
