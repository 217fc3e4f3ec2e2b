"""SFT dataset generator tests: components and the paper-ratio mixture."""

import pytest

from repro.corpus import ArxivArchive, make_astro_knowledge, make_general_knowledge
from repro.sft_data import (
    AstroQAGenerator,
    LimaGenerator,
    MixtureSpec,
    OpenOrcaGenerator,
    UltraChatGenerator,
    build_paper_mixture,
)


@pytest.fixture(scope="module")
def astro():
    return make_astro_knowledge(n_facts=80, seed=5)


@pytest.fixture(scope="module")
def general():
    return make_general_knowledge(n_facts=40, seed=5)


@pytest.fixture(scope="module")
def archive(astro):
    return ArxivArchive(astro, n_papers=40, seed=6)


class TestAstroQA:
    def test_generates_requested_count(self, archive, astro):
        examples = AstroQAGenerator(archive, astro, seed=1).generate(25)
        assert len(examples) == 25
        assert all(ex.source == "astro-qa" for ex in examples)
        assert all(ex.is_astronomy() for ex in examples)

    def test_questions_about_abstract_facts(self, archive, astro):
        examples = AstroQAGenerator(archive, astro, seed=1).generate(10)
        subjects = {f.subject for f in astro.facts}
        for ex in examples:
            assert "Question :" in ex.user
            assert any(s in ex.user for s in subjects)

    def test_answer_states_letter_and_fact(self, archive, astro):
        examples = AstroQAGenerator(archive, astro, seed=1).generate(10)
        for ex in examples:
            assert ex.assistant.startswith("the answer is ")
            assert ex.assistant[len("the answer is ")] in "ABCD"

    def test_answer_letter_matches_option(self, archive, astro):
        fact_by_value = {f.correct: f for f in astro.facts}
        for ex in AstroQAGenerator(archive, astro, seed=2).generate(20):
            letter = ex.assistant[len("the answer is ")]
            option_line = [
                l for l in ex.user.split("\n") if l.startswith(f"{letter} :")
            ][0]
            value = option_line.partition(" : ")[2]
            assert value in fact_by_value
            # the stated fact in the answer carries the same value
            assert value in ex.assistant

    def test_deterministic(self, archive, astro):
        a = AstroQAGenerator(archive, astro, seed=3).generate(5)
        b = AstroQAGenerator(archive, astro, seed=3).generate(5)
        assert [(x.user, x.assistant) for x in a] == [(y.user, y.assistant) for y in b]


class TestGeneralGenerators:
    def test_lima_long_form(self, general):
        examples = LimaGenerator(general, seed=1).generate(10)
        assert all(ex.source == "lima" for ex in examples)
        assert all(len(ex.assistant.split()) > 15 for ex in examples)

    def test_openorca_step_by_step(self, general):
        examples = OpenOrcaGenerator(general, seed=1).generate(20)
        assert all("step by step" in ex.assistant for ex in examples)
        mcq = [ex for ex in examples if "Question :" in ex.user]
        assert 0 < len(mcq) < len(examples)  # mixed formats

    def test_ultrachat_is_knowledge_free(self, general):
        examples = UltraChatGenerator(seed=1).generate(10)
        values = {f.correct for f in general.facts}
        for ex in examples:
            assert not any(v in ex.assistant for v in values)

    def test_empty_knowledge_raises(self):
        from repro.corpus.knowledge import KnowledgeBase

        empty = KnowledgeBase([], "general")
        with pytest.raises(ValueError):
            LimaGenerator(empty).generate(5)


class TestMixture:
    def test_paper_spec_defaults(self):
        spec = MixtureSpec()
        assert spec.astro_qa == 10356
        assert spec.lima == 1030
        assert spec.open_orca == 10000
        assert spec.ultrachat == 10000
        # "only one-third of the samples being astronomy-focused"
        assert spec.astronomy_fraction == pytest.approx(1 / 3, abs=0.01)

    def test_scaled_preserves_ratio(self):
        spec = MixtureSpec().scaled(0.01)
        assert spec.astronomy_fraction == pytest.approx(1 / 3, abs=0.03)
        assert spec.total < 350

    def test_scaled_validates(self):
        with pytest.raises(ValueError):
            MixtureSpec().scaled(0)

    def test_build_mixture_composition(self, archive, astro, general):
        mixture = build_paper_mixture(
            archive, astro, general, spec=MixtureSpec().scaled(0.005), seed=1
        )
        counts = mixture.counts_by_source()
        assert set(counts) == {"astro-qa", "lima", "open-orca", "ultrachat"}
        assert mixture.astronomy_fraction == pytest.approx(1 / 3, abs=0.05)

    def test_mixture_shuffled_but_deterministic(self, archive, astro, general):
        a = build_paper_mixture(archive, astro, general, MixtureSpec().scaled(0.003), seed=2)
        b = build_paper_mixture(archive, astro, general, MixtureSpec().scaled(0.003), seed=2)
        assert [x.user for x in a.examples] == [y.user for y in b.examples]
        sources = [ex.source for ex in a.examples]
        # shuffled: astronomy samples not all at the front
        first_chunk = sources[: len(sources) // 4]
        assert len(set(first_chunk)) > 1
