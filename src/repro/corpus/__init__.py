"""Synthetic corpus substrate.

The paper's training data (arXiv astro-ph LaTeX sources, Nougat OCR of ADS
PDFs, LLM summaries) is replaced by a *generative astronomy world*:

* :mod:`repro.corpus.knowledge` — a knowledge base of atomic facts, each
  with a correct value and equal-form distractors.  MCQs and training text
  are generated from the same fact base, so "knowledge recall" is a closed,
  measurable quantity.
* :mod:`repro.corpus.generator` — synthetic papers with abstract /
  introduction / conclusion / body sections of controlled fact density.
* :mod:`repro.corpus.arxiv` — a dated archive of generated papers
  (the astro-ph stand-in).
* :mod:`repro.corpus.ocr` — a Nougat-like OCR pipeline with a
  configurable noise model and cleaning passes.
* :mod:`repro.corpus.summarize` — the Qwen/LLaMA-3.1 summarizer analogue:
  compresses full text to a dense 1k-4k-token digest.
* :mod:`repro.corpus.datasets` — the three CPT dataset builders from the
  paper (Abstract / AIC / Summary) with coverage statistics.
* :mod:`repro.corpus.general` — the MCQ-format exercises and everyday
  filler that base-model pretraining mixes with general facts.
"""

from repro.corpus.knowledge import (
    Fact,
    KnowledgeBase,
    make_astro_knowledge,
    make_general_knowledge,
)
from repro.corpus.generator import PaperGenerator, SyntheticPaper
from repro.corpus.arxiv import ArxivArchive
from repro.corpus.ocr import NougatOCR, OCRNoiseModel, clean_ocr_text
from repro.corpus.summarize import Summarizer
from repro.corpus.datasets import (
    CorpusDataset,
    build_abstract_dataset,
    build_aic_dataset,
    build_summary_dataset,
    with_qa_bridge,
)

__all__ = [
    "Fact",
    "KnowledgeBase",
    "make_astro_knowledge",
    "make_general_knowledge",
    "PaperGenerator",
    "SyntheticPaper",
    "ArxivArchive",
    "OCRNoiseModel",
    "NougatOCR",
    "clean_ocr_text",
    "CorpusDataset",
    "build_abstract_dataset",
    "build_aic_dataset",
    "build_summary_dataset",
    "with_qa_bridge",
]
