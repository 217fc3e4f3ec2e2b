"""Corpus substrate tests: knowledge, papers, archive, OCR, summaries, datasets."""

import hashlib

import numpy as np
import pytest

from repro.corpus import (
    ArxivArchive,
    GeneralCorpusConfig,
    NougatOCR,
    OCRNoiseModel,
    build_abstract_dataset,
    build_aic_dataset,
    build_general_corpus,
    build_summary_dataset,
    clean_ocr_text,
    make_astro_knowledge,
    make_general_knowledge,
    with_qa_bridge,
)
from repro.core.world import MicroWorld, WorldConfig
from repro.corpus.arxiv import ArchiveCutoffs
from repro.corpus.generator import PaperGenerator
from repro.corpus.general import render_mcq_exercise
from repro.corpus.knowledge import ANSWER_LETTERS
from repro.corpus.ocr import word_error_rate
from repro.corpus.summarize import Summarizer, looks_informative, split_sentences


@pytest.fixture(scope="module")
def astro():
    return make_astro_knowledge(n_facts=80, seed=3)


@pytest.fixture(scope="module")
def general():
    return make_general_knowledge(n_facts=40, seed=3)


@pytest.fixture(scope="module")
def archive(astro):
    return ArxivArchive(astro, n_papers=60, seed=4)


class TestKnowledge:
    def test_fact_count_and_ids(self, astro):
        assert len(astro) == 80
        assert sorted(f.fact_id for f in astro.facts) == list(range(80))

    def test_deterministic(self):
        a = make_astro_knowledge(n_facts=30, seed=9)
        b = make_astro_knowledge(n_facts=30, seed=9)
        assert [f.correct for f in a.facts] == [f.correct for f in b.facts]

    def test_different_seeds_differ(self):
        a = make_astro_knowledge(n_facts=30, seed=1)
        b = make_astro_knowledge(n_facts=30, seed=2)
        assert [f.subject for f in a.facts] != [f.subject for f in b.facts] or [
            f.correct for f in a.facts
        ] != [f.correct for f in b.facts]

    def test_distractors_distinct_and_same_unit(self, astro):
        for f in astro.facts:
            options = f.all_options()
            assert len(set(options)) == 4
            unit = f.correct.split(" ", 1)[1]
            for d in f.distractors:
                assert d.split(" ", 1)[1] == unit

    def test_statement_variants_contain_value(self, astro):
        f = astro.facts[0]
        for v in range(4):
            assert f.correct in f.statement(v)
            assert f.subject in f.statement(v)

    def test_question_is_statement_prefix(self, astro):
        # the cloze design: question + correct value == statement variant 0
        f = astro.facts[0]
        assert f.statement(0).startswith(f.question())

    def test_option_shuffle_tracks_correct(self, astro):
        rng = np.random.default_rng(0)
        for f in astro.facts[:10]:
            options, idx = f.option_values_shuffled(rng)
            assert options[idx] == f.correct

    def test_too_many_facts_raises(self):
        with pytest.raises(ValueError):
            make_astro_knowledge(n_facts=10**6, subject_multiplier=1)

    def test_split_partitions(self, astro):
        a, b = astro.split(0.25, seed=5)
        assert len(a) + len(b) == len(astro)
        ids_a = {f.fact_id for f in a.facts}
        ids_b = {f.fact_id for f in b.facts}
        assert not ids_a & ids_b

    def test_topics_nonempty(self, astro, general):
        assert len(astro.topics) == 8
        assert len(general.topics) == 4
        for t in astro.topics:
            assert astro.facts_for_topic(t)


class TestPaperGenerator:
    def test_paper_sections_realize_facts(self, astro):
        gen = PaperGenerator(astro, seed=1)
        paper = gen.generate(0, 2005, 6)
        fact_by_id = {f.fact_id: f for f in astro.facts}
        for fid in paper.abstract_fact_ids:
            assert fact_by_id[fid].correct in paper.abstract
        assert paper.aic_fact_ids
        assert set(paper.abstract_fact_ids) <= set(paper.aic_fact_ids)
        assert set(paper.aic_fact_ids) <= set(paper.fact_ids)

    def test_single_topic_per_paper(self, astro):
        gen = PaperGenerator(astro, seed=1)
        paper = gen.generate(3, 2010, 2)
        fact_by_id = {f.fact_id: f for f in astro.facts}
        topics = {fact_by_id[fid].topic for fid in paper.fact_ids}
        assert topics == {paper.topic}

    def test_deterministic(self, astro):
        g1 = PaperGenerator(astro, seed=1).generate(5, 2000, 1)
        g2 = PaperGenerator(astro, seed=1).generate(5, 2000, 1)
        assert g1.abstract == g2.abstract
        assert g1.fact_ids == g2.fact_ids

    def test_full_text_longer_than_aic(self, astro):
        paper = PaperGenerator(astro, seed=1).generate(0, 2005, 6)
        assert len(paper.full_text.split()) > len(paper.aic_text.split())


class TestArchive:
    def test_cutoff_query(self, archive):
        early = archive.until(2000, 12)
        late = archive.until(2024, 1)
        assert 0 < len(early) < len(late) == len(archive)
        assert all((p.year, p.month) <= (2000, 12) for p in early)

    def test_dates_monotone(self, archive):
        dates = [(p.year, p.month) for p in archive.papers]
        assert dates == sorted(dates)

    def test_coverage_ordering(self, archive):
        ab = archive.coverage_fraction("abstract")
        aic = archive.coverage_fraction("aic")
        full = archive.coverage_fraction("full")
        assert ab <= aic <= full

    def test_bad_sections_raises(self, archive):
        with pytest.raises(ValueError):
            archive.fact_coverage("bogus")


class TestOCR:
    def test_clean_rejoins_hyphenation(self):
        assert clean_ocr_text("tem- perature") == "temperature"

    def test_clean_drops_glyph_soup(self):
        assert "##" not in clean_ocr_text("value ##@ here")

    def test_noise_rates_order(self):
        text = " ".join(["temperature measurement of the cluster"] * 50)
        nougat = NougatOCR(seed=1)
        legacy = NougatOCR.legacy_latex_pipeline(seed=1)
        wer_nougat = word_error_rate(text, nougat.transcribe(text))
        wer_legacy = word_error_rate(text, clean_ocr_text(legacy.corrupt(text)))
        assert wer_nougat < wer_legacy

    def test_corruption_deterministic(self):
        model = OCRNoiseModel(seed=3)
        text = "the quick brown fox jumps over the lazy dog" * 5
        assert model.corrupt(text, 1) == model.corrupt(text, 1)
        assert model.corrupt(text, 1) != model.corrupt(text, 2)

    def test_wer_bounds(self):
        assert word_error_rate("a b c", "a b c") == 0.0
        assert word_error_rate("a b c", "") == 1.0
        assert word_error_rate("", "") == 0.0


class TestSummarizer:
    def test_keeps_facts_drops_filler(self, astro):
        paper = PaperGenerator(astro, seed=1).generate(0, 2005, 6)
        summary = Summarizer(seed=1).summarize(paper)
        fact_by_id = {f.fact_id: f for f in astro.facts}
        kept = sum(
            1 for fid in paper.fact_ids if fact_by_id[fid].correct in summary
        )
        assert kept >= len(paper.fact_ids) * 0.6

    def test_compression(self, astro):
        paper = PaperGenerator(astro, seed=1).generate(0, 2005, 6)
        ratio = Summarizer(seed=1).compression_ratio(paper)
        assert 0.1 < ratio < 0.95

    def test_split_sentences(self):
        assert split_sentences("a b . c d . ") == ["a b .", "c d ."]

    def test_looks_informative(self, astro):
        f = astro.facts[0]
        assert looks_informative(f.statement(0))
        assert not looks_informative(
            "further observations are required to constrain these findings ."
        )


class TestDatasets:
    def test_budget_coverage_ordering(self, astro):
        """Summary beats AIC in fact coverage at a fixed word budget."""
        archive = ArxivArchive(astro, n_papers=120, seed=4)
        aic = build_aic_dataset(archive)
        summary = build_summary_dataset(archive)
        budget = 10000
        assert (
            summary.truncate_words(budget).coverage
            >= aic.truncate_words(budget).coverage
        )

    def test_abstract_subset_of_aic_coverage(self, archive):
        ab = build_abstract_dataset(archive)
        aic = build_aic_dataset(archive)
        assert ab.fact_ids <= aic.fact_ids

    def test_truncate_respects_budget(self, archive):
        aic = build_aic_dataset(archive)
        t = aic.truncate_words(2000)
        assert t.word_count <= 2000 + 400  # one doc tolerance
        assert len(t) < len(aic)

    def test_qa_bridge_appends_quizzes(self, astro, archive):
        aic = build_aic_dataset(archive)
        bridged = with_qa_bridge(aic, astro, fraction=1.0, seed=0)
        assert any("Answer :" in d for d in bridged.documents)
        assert bridged.coverage == aic.coverage

    def test_qa_bridge_zero_noop(self, astro, archive):
        aic = build_aic_dataset(archive)
        bridged = with_qa_bridge(aic, astro, fraction=0.0, seed=0)
        assert bridged.documents == aic.documents

    def test_qa_bridge_validates_fraction(self, astro, archive):
        aic = build_aic_dataset(archive)
        with pytest.raises(ValueError):
            with_qa_bridge(aic, astro, fraction=1.5)


class _ShortFor(Summarizer):
    """Summarizes as usual, but gives a five-word summary for chosen papers."""

    def __init__(self, paper_ids):
        super().__init__()
        self.paper_ids = set(paper_ids)

    def summarize(self, paper):
        if paper.paper_id in self.paper_ids:
            return "too short to use here"
        return super().summarize(paper)


class _CountingOCR(NougatOCR):
    def __init__(self):
        super().__init__()
        self.calls = []

    def transcribe(self, text, stream=0):
        self.calls.append((text, stream))
        return super().transcribe(text, stream)


def _sha256(items):
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


class TestSummaryFallback:
    """The OCR transcript is the document only where the summary is too
    short, and OCR runs for those papers alone."""

    FALLBACK = (0, 3, 7)

    @pytest.fixture
    def papers(self, archive):
        return archive.until(*ArchiveCutoffs().ocr)

    def test_short_summaries_fall_back_to_ocr(self, archive, papers):
        chosen = [papers[i].paper_id for i in self.FALLBACK]
        ds = build_summary_dataset(archive, summarizer=_ShortFor(chosen))
        for i, (p, doc) in enumerate(zip(papers, ds.documents)):
            if i in self.FALLBACK:
                assert doc == NougatOCR().transcribe(p.full_text, stream=i)
            else:
                assert doc == Summarizer().summarize(p)
            assert ds.doc_fact_ids[i] == set(p.fact_ids)

    def test_ocr_runs_only_for_fallbacks(self, archive, papers):
        chosen = [papers[i].paper_id for i in self.FALLBACK]
        ocr = _CountingOCR()
        build_summary_dataset(archive, summarizer=_ShortFor(chosen), ocr=ocr)
        assert ocr.calls == [(papers[i].full_text, i) for i in self.FALLBACK]
        ocr = _CountingOCR()
        build_summary_dataset(archive, ocr=ocr)
        assert ocr.calls == []

    def test_default_world_bits_pinned(self):
        """Documents, fact ids and llama-2 ids of the default world's Summary
        set, pinned from the build that OCR'd every paper."""
        world = MicroWorld.build(WorldConfig())
        ds = build_summary_dataset(world.archive)
        tok = world.tokenizers["llama-2"]
        assert len(ds) == 120
        assert _sha256(ds.documents) == (
            "68627a7b118ea2f3c6d877270498afe6df3f865d2c445c68ae1e7d00929e4667"
        )
        assert _sha256(sorted(ids) for ids in ds.doc_fact_ids) == (
            "02fc4d9f6265664287469cba737d768cf6c5114a5826f1a69dac47a9c9b8f1c5"
        )
        assert _sha256(tok.encode(d) for d in ds.documents) == (
            "f7f39bc3155122b23269940700ae9331cd8d3e9462b513418a1a0f9a787b71e4"
        )


class TestGeneralCorpus:
    def test_mcq_exercise_format(self, general):
        rng = np.random.default_rng(0)
        text = render_mcq_exercise(general.facts[0], rng)
        lines = text.split("\n")
        assert lines[0].startswith("Question :")
        for letter, line in zip(ANSWER_LETTERS, lines[1:5]):
            assert line.startswith(f"{letter} :")
        assert lines[5].startswith("Answer :")
        assert lines[5].split(" : ")[1] in ANSWER_LETTERS

    def test_exercise_answer_marks_correct_option(self, general):
        rng = np.random.default_rng(0)
        f = general.facts[0]
        for _ in range(10):
            text = render_mcq_exercise(f, rng)
            lines = text.split("\n")
            answer = lines[5].split(" : ")[1]
            option_line = lines[1 + ANSWER_LETTERS.index(answer)]
            assert option_line.endswith(f.correct)

    def test_corpus_includes_astro_fraction(self, general, astro):
        cfg = GeneralCorpusConfig(astro_coverage=0.5, seed=1)
        docs = build_general_corpus(general, astro, cfg)
        astro_subjects = {f.subject for f in astro.facts}
        hits = sum(1 for d in docs if any(s in d for s in astro_subjects))
        assert hits > 0

    def test_zero_astro_coverage(self, general, astro):
        cfg = GeneralCorpusConfig(astro_coverage=0.0, seed=1)
        docs = build_general_corpus(general, astro, cfg)
        astro_values = {f.correct for f in astro.facts}
        # value strings may coincide with general values; check subjects
        astro_subjects = {f.subject for f in astro.facts}
        assert not any(any(s in d for s in astro_subjects) for d in docs)

    def test_deterministic(self, general, astro):
        cfg = GeneralCorpusConfig(seed=2)
        assert build_general_corpus(general, astro, cfg) == build_general_corpus(
            general, astro, cfg
        )
