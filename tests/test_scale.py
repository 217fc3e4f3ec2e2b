"""Scale surrogate tests: calibration closure, mechanism behaviour, trade-off."""

import pytest

from repro.core.zoo import get_entry, zoo_entries
from repro.scale import (
    CALIBRATED_PARAMS,
    FLAGSHIP_SCORES,
    PAPER_TABLE_ONE,
    ScorePriceFrontier,
    SurrogateModel,
    calibration_error,
    cost_ratio_for_points,
    points_for_cost_ratio,
)
from repro.scale.surrogate import knowledge_from_score, score_from_knowledge


class TestCalibration:
    def test_reproduces_every_table_one_cell(self):
        errors = calibration_error(tolerance=0.5)
        assert max(errors.values()) <= 0.5

    def test_tight_tolerance(self):
        # fitted by construction: should be far tighter than 0.5
        errors = calibration_error(tolerance=0.05)
        assert max(errors.values()) <= 0.05

    def test_paper_table_complete(self):
        for entry in zoo_entries():
            assert entry.name in PAPER_TABLE_ONE
            assert PAPER_TABLE_ONE[entry.name]["token_base"] is not None

    def test_phi_falls_with_capacity(self):
        phi = CALIBRATED_PARAMS.phi
        assert phi["tiny"] > phi["small"] > phi["large"] > 0


class TestMechanisms:
    def setup_method(self):
        self.model = SurrogateModel()

    def test_native_scores_passthrough(self):
        for name in ("LLaMA-2-7B", "LLaMA-3-8B", "LLaMA-2-70B"):
            entry = get_entry(name)
            assert self.model.token_base(entry) == pytest.approx(
                PAPER_TABLE_ONE[name]["token_base"]
            )

    def test_cpt_gain_at_70b_loss_at_7b(self):
        assert self.model.cpt_delta(get_entry("AstroLLaMA-2-70B-AIC")) > 0
        assert self.model.cpt_delta(get_entry("AstroLLaMA-2-7B-AIC")) < -5

    def test_knowledge_score_inversion(self):
        for s in (25.0, 50.0, 75.0, 100.0):
            assert score_from_knowledge(knowledge_from_score(s)) == pytest.approx(s)

    def test_knowledge_clipped(self):
        assert knowledge_from_score(10.0) == 0.0
        assert knowledge_from_score(200.0) == 1.0

    def test_better_dataset_quality_raises_score(self):
        entry = get_entry("AstroLLaMA-3-8B-AIC")
        base = self.model.token_base(entry)
        better = self.model.with_params(
            dataset_quality={"abstract": 0.45, "aic": 0.95, "summary": 0.99}
        )
        assert better.token_base(entry) > base

    def test_zero_forgetting_means_pure_gain(self):
        entry = get_entry("AstroLLaMA-2-7B-AIC")
        no_forget = self.model.with_params(
            phi={"tiny": 0.0, "small": 0.0, "large": 0.0}
        )
        assert no_forget.cpt_delta(entry) > 0

    def test_abstract_row_has_no_instruct_scores(self):
        entry = get_entry("AstroLLaMA-2-7B-Abstract")
        scores = self.model.scores(entry)
        assert scores.token_instruct is None
        assert scores.full_instruct is None
        assert scores.token_base == pytest.approx(43.5, abs=0.5)

    def test_astro_focused_sft_closes_the_gap(self):
        """The paper's remedy: a large astronomy SFT set fixes full-instruct."""
        entry = get_entry("AstroLLaMA-2-70B-AIC")
        default = self.model.full_instruct(entry)
        remedied = self.model.full_instruct(entry, sft_astro_fraction=1.0)
        assert remedied > default
        # near-closure of the gap
        ti = self.model.token_instruct(entry)
        assert ti - remedied < (ti - default) * 0.3

    def test_native_models_unaffected_by_sft_fraction(self):
        entry = get_entry("LLaMA-2-70B")
        assert self.model.full_instruct(entry, sft_astro_fraction=1.0) == (
            self.model.full_instruct(entry)
        )


class TestTradeoff:
    def test_ten_fold_rule(self):
        assert cost_ratio_for_points(3.5) == pytest.approx(10.0)
        assert points_for_cost_ratio(10.0) == pytest.approx(3.5)

    def test_roundtrip(self):
        for pts in (0.5, 2.1, 7.0):
            assert points_for_cost_ratio(cost_ratio_for_points(pts)) == pytest.approx(pts)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            points_for_cost_ratio(0.0)

    def test_paper_claims(self):
        claims = ScorePriceFrontier().paper_claims()
        assert claims["cpt_gain_points"] == pytest.approx(2.1, abs=1e-6)
        # "quite notable": ~4x value gain
        assert 3.5 < claims["cpt_gain_value_ratio"] < 4.5
        assert claims["fraction_of_class_gap"] == pytest.approx(2 / 3, abs=1e-6)

    def test_flagship_comparison(self):
        frontier = ScorePriceFrontier()
        comp = frontier.flagship_comparison(76.0)
        # AstroLLaMA-2-70B (76.0) sits between GLM-4 (75.1) and Claude-Sonnet (76.7)
        names = [name for name, _ in comp]
        assert names[0] in ("Claude-3.0-Sonnet", "GLM-4-0520")
        assert FLAGSHIP_SCORES["Gemini-1.5-Pro-001"] > 76.0
