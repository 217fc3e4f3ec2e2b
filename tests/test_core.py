"""Core orchestration tests: zoo, world, scorecards, cost report."""

import pytest

from repro.core import (
    Arrow,
    ScoreCard,
    TableOne,
    arrow_for,
    get_entry,
    paper_cost_accounting,
    zoo_entries,
)
from repro.core.scorecards import METHODS
from repro.core.world import MicroWorld


class TestZoo:
    def test_eight_entries_in_paper_order(self):
        entries = zoo_entries()
        assert len(entries) == 8
        assert entries[0].name == "LLaMA-2-7B"
        assert entries[-1].name == "AstroLLaMA-2-70B-AIC"

    def test_native_vs_specialized_partition(self):
        natives = [e for e in zoo_entries() if e.is_native]
        assert {e.name for e in natives} == {
            "LLaMA-2-7B",
            "LLaMA-3-8B",
            "LLaMA-2-70B",
        }

    def test_base_name_resolution(self):
        assert get_entry("AstroLLaMA-2-7B-AIC").base_name == "LLaMA-2-7B"
        assert get_entry("AstroLLaMA-3-8B-Summary").base_name == "LLaMA-3-8B"
        assert get_entry("AstroLLaMA-2-70B-AIC").base_name == "LLaMA-2-70B"

    def test_only_abstract_model_uses_lora(self):
        lora = [e.name for e in zoo_entries() if e.cpt_lora]
        assert lora == ["AstroLLaMA-2-7B-Abstract"]

    def test_family_conventions_differ(self):
        assert not get_entry("LLaMA-2-7B").family.space_prefix_tokens
        assert get_entry("LLaMA-3-8B").family.space_prefix_tokens

    def test_unknown_entry(self):
        with pytest.raises(KeyError):
            get_entry("GPT-5")

    def test_paper_scores_recorded(self):
        entry = get_entry("AstroLLaMA-2-70B-AIC")
        assert entry.paper_token_base == 76.0
        # lint: disable=R4 (stored paper literal; same double on both sides)
        assert entry.paper_full_instruct == 64.7


class TestWorld:
    @pytest.fixture(scope="class")
    def world(self):
        return MicroWorld.build_test(seed=0)

    def test_components_present(self, world):
        assert len(world.astro) > 0
        assert len(world.general) > 0
        assert len(world.archive) > 0
        assert len(world.benchmark) > 0
        assert set(world.tokenizers) == {"llama-2", "llama-3"}

    def test_tokenizer_conventions(self, world):
        assert not world.tokenizer_for("llama-2").space_prefix
        assert world.tokenizer_for("llama-3").space_prefix
        with pytest.raises(KeyError):
            world.tokenizer_for("mistral")

    def test_vocab_covers_benchmark(self, world):
        """Every benchmark question must tokenize without <unk>."""
        for family in ("llama-2", "llama-3"):
            tok = world.tokenizer_for(family)
            unk = tok.vocab.unk_id
            for q in world.benchmark.questions:
                text = f"Question : {q.question}\n{q.option_block()}\nAnswer :"
                assert unk not in tok.encode(text), (family, q.question)

    def test_vocab_covers_corpus_datasets(self, world):
        from repro.corpus.datasets import build_aic_dataset, build_summary_dataset

        tok = world.tokenizer_for("llama-2")
        unk = tok.vocab.unk_id
        for builder in (build_aic_dataset, build_summary_dataset):
            dataset = builder(world.archive)
            bad = sum(unk in tok.encode(d) for d in dataset.documents)
            assert bad == 0, f"{dataset.name}: {bad} docs with unknown tokens"

    def test_coverage_subset_semantics(self, world):
        small = set(world.covered_fact_ids(0.3, stream="llama-2"))
        large = set(world.covered_fact_ids(0.6, stream="llama-2"))
        assert small <= large
        assert len(large) == round(0.6 * len(world.astro))

    def test_coverage_validation(self, world):
        with pytest.raises(ValueError):
            world.covered_fact_ids(1.5)

    def test_deterministic_rebuild(self):
        a = MicroWorld.build_test(seed=3)
        b = MicroWorld.build_test(seed=3)
        assert [f.correct for f in a.astro.facts] == [
            f.correct for f in b.astro.facts
        ]
        assert a.benchmark.questions[0] == b.benchmark.questions[0]


class TestScorecards:
    def _table(self, scores):
        table = TableOne()
        for name, s in scores.items():
            table.add(ScoreCard(entry=get_entry(name), scores=s))
        return table

    def test_arrow_for(self):
        assert arrow_for(50.0, 45.0) == Arrow.UP
        assert arrow_for(40.0, 45.0) == Arrow.DOWN
        assert arrow_for(45.5, 45.0) == Arrow.SIMILAR

    def test_native_rows_carry_no_arrow(self):
        table = self._table(
            {"LLaMA-2-7B": {m: 50.0 for m in METHODS}}
        )
        assert table.arrow("LLaMA-2-7B", "token_base") == Arrow.NONE

    def test_arrow_relative_to_baseline(self):
        table = self._table(
            {
                "LLaMA-2-70B": {m: 70.0 for m in METHODS},
                "AstroLLaMA-2-70B-AIC": {m: 76.0 for m in METHODS},
            }
        )
        assert table.arrow("AstroLLaMA-2-70B-AIC", "token_base") == Arrow.UP

    def test_missing_baseline_no_arrow(self):
        table = self._table(
            {"AstroLLaMA-2-70B-AIC": {m: 76.0 for m in METHODS}}
        )
        assert table.arrow("AstroLLaMA-2-70B-AIC", "token_base") == Arrow.NONE

    def test_render_contains_all_added_models(self):
        table = self._table(
            {
                "LLaMA-2-70B": {m: 70.0 for m in METHODS},
                "AstroLLaMA-2-70B-AIC": {m: 76.0 for m in METHODS},
            }
        )
        art = table.render()
        assert "LLaMA-2-70B" in art and "AstroLLaMA-2-70B-AIC" in art

    def test_shape_checks_skip_missing_rows(self):
        table = self._table({"LLaMA-2-7B": {m: 50.0 for m in METHODS}})
        # insufficient rows -> no checks claiming success spuriously
        assert "70b_cpt_improves_base_token" not in table.shape_checks()


class TestCostReport:
    def test_report_ratios(self):
        report = paper_cost_accounting()
        for key in report.estimates:
            assert 0.5 <= report.ratio(key) <= 2.0

    def test_render_has_all_rows(self):
        text = paper_cost_accounting().render()
        for key in ("cpt_8b", "cpt_70b", "sft_8b", "sft_70b", "inference_70b"):
            assert key in text
