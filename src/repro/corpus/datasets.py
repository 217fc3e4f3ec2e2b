"""CPT dataset builders: Abstract / AIC / Summary.

These mirror the paper's three continual-pretraining corpora:

* **Abstract** — abstracts only (the original AstroLLaMA recipe);
* **AIC** — abstract + introduction + conclusion (AstroLLaMA-Chat and this
  paper's -AIC models), built from the LaTeX pipeline up to 2023-07;
* **Summary** — LLM summaries of OCR'd full text up to 2024-01
  (AstroLLaMA-3-8B-Summary).

Every builder returns a :class:`CorpusDataset` carrying coverage statistics
so experiments can verify the density ordering
``Abstract < AIC < Summary`` that the paper's findings rest on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.corpus.arxiv import ArchiveCutoffs, ArxivArchive
from repro.corpus.ocr import NougatOCR
from repro.corpus.summarize import Summarizer


@dataclass
class CorpusDataset:
    """A named list of training documents plus provenance statistics.

    ``doc_fact_ids`` is parallel to ``documents``: the fact ids realized in
    each document, so truncated views recompute coverage honestly.
    """

    name: str
    documents: List[str]
    doc_fact_ids: List[Set[int]] = field(default_factory=list)
    total_facts_in_world: int = 0

    def __post_init__(self) -> None:
        if self.doc_fact_ids and len(self.doc_fact_ids) != len(self.documents):
            raise ValueError("doc_fact_ids must parallel documents")
        if not self.doc_fact_ids:
            self.doc_fact_ids = [set() for _ in self.documents]

    def __len__(self) -> int:
        return len(self.documents)

    @property
    def fact_ids(self) -> Set[int]:
        out: Set[int] = set()
        for ids in self.doc_fact_ids:
            out.update(ids)
        return out

    @property
    def word_count(self) -> int:
        return sum(len(d.split()) for d in self.documents)

    @property
    def coverage(self) -> float:
        """Fraction of the knowledge world whose facts appear here."""
        if self.total_facts_in_world == 0:
            return 0.0
        return len(self.fact_ids) / self.total_facts_in_world

    @property
    def facts_per_kiloword(self) -> float:
        """Information density: distinct facts per 1000 words."""
        wc = self.word_count
        return 1000.0 * len(self.fact_ids) / wc if wc else 0.0

    def truncate_words(self, budget: int) -> "CorpusDataset":
        """Clip the dataset to at most ``budget`` words (whole documents).

        Used to compare dataset *quality* at a fixed token budget, the
        comparison the paper's Summary-vs-AIC experiment makes.
        """
        docs: List[str] = []
        ids: List[Set[int]] = []
        used = 0
        for d, f in zip(self.documents, self.doc_fact_ids):
            w = len(d.split())
            if used + w > budget and docs:
                break
            docs.append(d)
            ids.append(set(f))
            used += w
        return CorpusDataset(
            name=f"{self.name}[{budget}w]",
            documents=docs,
            doc_fact_ids=ids,
            total_facts_in_world=self.total_facts_in_world,
        )


def with_qa_bridge(
    dataset: CorpusDataset,
    knowledge,
    fraction: float,
    seed: int = 0,
) -> CorpusDataset:
    """Append quiz-form recaps for a fraction of each document's facts.

    **Substitution note** (see DESIGN.md): at real scale, declarative CPT
    text becomes MCQ-answerable through the model's general QA transfer;
    micro models lack that transfer, so the micro corpus realization
    bridges it explicitly by rendering ``fraction`` of a document's facts
    in quiz form (fresh option shuffles, never benchmark renderings).
    ``fraction=0`` recovers the purely declarative corpus.
    """
    from repro.corpus.general import render_mcq_exercise
    from repro.utils.rng import new_rng

    if not 0 <= fraction <= 1:
        raise ValueError("fraction must be in [0, 1]")
    fact_by_id = {f.fact_id: f for f in knowledge.facts}
    rng = new_rng(seed, "qa-bridge", dataset.name)
    docs: List[str] = []
    ids: List[Set[int]] = []
    for doc, fids in zip(dataset.documents, dataset.doc_fact_ids):
        parts = [doc]
        for fid in sorted(fids):
            if fid in fact_by_id and rng.random() < fraction:
                parts.append(render_mcq_exercise(fact_by_id[fid], rng))
        docs.append("\n".join(parts))
        ids.append(set(fids))
    return CorpusDataset(
        name=f"{dataset.name}+bridge{fraction:g}",
        documents=docs,
        doc_fact_ids=ids,
        total_facts_in_world=dataset.total_facts_in_world,
    )


def build_abstract_dataset(
    archive: ArxivArchive, cutoffs: Optional[ArchiveCutoffs] = None
) -> CorpusDataset:
    """Abstracts only, LaTeX-pipeline cutoff (2023-07)."""
    cutoffs = cutoffs or ArchiveCutoffs()
    papers = archive.until(*cutoffs.aic)
    docs = [p.abstract for p in papers]
    ids = [set(p.abstract_fact_ids) for p in papers]
    return CorpusDataset("abstract", docs, ids, len(archive.knowledge))


def build_aic_dataset(
    archive: ArxivArchive, cutoffs: Optional[ArchiveCutoffs] = None
) -> CorpusDataset:
    """Abstract + introduction + conclusion, LaTeX-pipeline cutoff."""
    cutoffs = cutoffs or ArchiveCutoffs()
    papers = archive.until(*cutoffs.aic)
    docs = [p.aic_text for p in papers]
    ids = [set(p.aic_fact_ids) for p in papers]
    return CorpusDataset("aic", docs, ids, len(archive.knowledge))


def build_summary_dataset(
    archive: ArxivArchive,
    summarizer: Optional[Summarizer] = None,
    ocr: Optional[NougatOCR] = None,
    cutoffs: Optional[ArchiveCutoffs] = None,
) -> CorpusDataset:
    """Summarize each paper up to the 2024-01 cutoff; OCR only as fallback.

    A paper's document is its summary.  When the summary has five words or
    fewer, the document is instead the Nougat OCR transcript of the full
    text, made only then, on OCR stream ``i`` (the paper's index), so each
    fallback document is the same whichever other papers fall back.
    """
    cutoffs = cutoffs or ArchiveCutoffs()
    summarizer = summarizer or Summarizer()
    ocr = ocr or NougatOCR()
    papers = archive.until(*cutoffs.ocr)
    docs = []
    ids = []
    for i, p in enumerate(papers):
        # the summarizer runs on the OCR output in the real pipeline; our
        # simulated summarizer keys on sentence structure, so feed it the
        # paper object but measure coverage from the realized fact set
        summary = summarizer.summarize(p)
        if len(summary.split()) > 5:
            docs.append(summary)
        else:
            docs.append(ocr.transcribe(p.full_text, stream=i))
        ids.append(set(p.fact_ids))
    return CorpusDataset("summary", docs, ids, len(archive.knowledge))
