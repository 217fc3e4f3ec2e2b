"""MCQ bench tests: review articles, extraction, quality rules, container."""

import pytest

from repro.corpus import make_astro_knowledge
from repro.mcq import (
    MCQBenchmark,
    MCQExtractor,
    MCQuestion,
    build_benchmark,
    check_letter_balance,
    check_option_lengths,
    check_option_uniqueness,
    generate_review_articles,
    validate_benchmark,
)
from repro.mcq.quality import check_standalone


@pytest.fixture(scope="module")
def astro():
    return make_astro_knowledge(n_facts=120, seed=7)


@pytest.fixture(scope="module")
def bench(astro):
    return build_benchmark(astro, n_articles=30, dev_size=6, seed=8)


class TestReviewArticles:
    def test_count_and_topics_cycle(self, astro):
        articles = generate_review_articles(astro, n_articles=16, seed=1)
        assert len(articles) == 16
        topics = [a.topic for a in articles]
        assert topics[: len(astro.topics)] == sorted(astro.topics)

    def test_text_realizes_facts(self, astro):
        articles = generate_review_articles(astro, n_articles=4, seed=1)
        fact_by_id = {f.fact_id: f for f in astro.facts}
        for a in articles:
            for fid in a.fact_ids:
                assert fact_by_id[fid].correct in a.text

    def test_deterministic(self, astro):
        a = generate_review_articles(astro, n_articles=5, seed=3)
        b = generate_review_articles(astro, n_articles=5, seed=3)
        assert [x.text for x in a] == [y.text for y in b]

    def test_article_id_format(self, astro):
        articles = generate_review_articles(astro, n_articles=2, seed=1)
        assert "ARAA" in articles[0].article_id


class TestExtraction:
    def test_five_per_article(self, astro):
        articles = generate_review_articles(astro, n_articles=6, facts_per_article=8, seed=1)
        questions = MCQExtractor(astro, questions_per_article=5, seed=2).extract(articles)
        assert len(questions) == 30
        per_article = {}
        for q in questions:
            per_article[q.article_id] = per_article.get(q.article_id, 0) + 1
        assert all(v == 5 for v in per_article.values())

    def test_correct_option_is_fact_value(self, astro, bench):
        fact_by_id = {f.fact_id: f for f in astro.facts}
        for q in bench.questions[:50]:
            assert q.options[q.correct_idx] == fact_by_id[q.fact_id].correct

    def test_no_duplicate_fact_within_article(self, bench):
        by_article = {}
        for q in bench.questions:
            by_article.setdefault(q.article_id, []).append(q.fact_id)
        for fids in by_article.values():
            assert len(fids) == len(set(fids))

    def test_insufficient_facts_raises(self, astro):
        articles = generate_review_articles(astro, n_articles=2, facts_per_article=3, seed=1)
        with pytest.raises(ValueError):
            MCQExtractor(astro, questions_per_article=5).extract(articles)


class TestQuality:
    def test_full_validation_passes(self, bench):
        report = validate_benchmark(bench.questions)
        assert report.passed
        assert report.n_questions == len(bench.questions)

    def test_letter_balance(self, bench):
        assert check_letter_balance(bench.questions, max_skew=0.15)

    def test_option_length_check_flags_outliers(self):
        q = MCQuestion(
            question_id=0,
            article_id="x",
            topic="t",
            fact_id=0,
            question="the mass of x is",
            options=("1 kg", "2 kg", "3 kg", "an extremely long answer option with many words"),
            correct_idx=0,
            explanation="",
        )
        assert not check_option_lengths(q)

    def test_uniqueness_check(self):
        q = MCQuestion(0, "x", "t", 0, "q", ("a", "a", "b", "c"), 0, "")
        assert not check_option_uniqueness(q)

    def test_standalone_check(self):
        q = MCQuestion(0, "x", "t", 0, "as shown in this article the mass is", ("a", "b", "c", "d"), 0, "")
        assert not check_standalone(q)


class TestBenchmarkContainer:
    def test_dev_test_disjoint(self, bench):
        dev_ids = {q.question_id for q in bench.dev}
        test_ids = {q.question_id for q in bench.test}
        assert not dev_ids & test_ids
        assert len(dev_ids) == 6
        assert len(dev_ids) + len(test_ids) == len(bench)

    def test_few_shot_limits(self, bench):
        assert len(bench.few_shot(2)) == 2
        with pytest.raises(ValueError):
            bench.few_shot(100)

    def test_accuracy_counts_none_as_wrong(self, bench):
        qs = bench.test[:4]
        preds = [qs[0].correct_idx, None, None, None]
        assert MCQBenchmark.accuracy(qs, preds) == pytest.approx(0.25)

    def test_accuracy_validates_lengths(self, bench):
        with pytest.raises(ValueError):
            MCQBenchmark.accuracy(bench.test[:3], [0, 1])

    def test_paper_scale_build(self, astro):
        bench = build_benchmark(astro, n_articles=885, dev_size=8, seed=0)
        assert len(bench) == 4425  # 885 articles x 5 questions

    def test_dev_size_validation(self, bench):
        with pytest.raises(ValueError):
            MCQBenchmark(bench.questions[:3], dev_size=3)
