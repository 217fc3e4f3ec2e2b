"""The Ting et al. (2024) score/price trade-off and flagship comparisons.

Section VI: "an improvement of about 3.5 points is equivalent to
approximately a 10-fold increase in value", so the 70B model's +2.1-point
gain is "comparable to two-thirds of the performance gain observed between
models like Claude-Haiku to Claude-Sonnet or GPT-4o-mini to GPT-4o".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

# Flagship full-instruct scores quoted in Section VI of the paper.
FLAGSHIP_SCORES: Dict[str, float] = {
    "Gemini-1.5-Pro-001": 77.6,
    "Claude-3.0-Sonnet": 76.7,
    "GLM-4-0520": 75.1,
}

# The paper's rule: 3.5 points per 10x value.
POINTS_PER_DECADE: float = 3.5


def cost_ratio_for_points(delta_points: float, points_per_decade: float = POINTS_PER_DECADE) -> float:
    """Value multiplier equivalent to a score improvement."""
    return 10.0 ** (delta_points / points_per_decade)


def points_for_cost_ratio(ratio: float, points_per_decade: float = POINTS_PER_DECADE) -> float:
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    return points_per_decade * math.log10(ratio)


@dataclass
class ScorePriceFrontier:
    """A log-linear score-vs-price frontier with the paper's slope.

    Expresses score gains as cost-efficiency factors and places a score
    among the flagships.
    """

    points_per_decade: float = POINTS_PER_DECADE

    def value_gain(self, old_score: float, new_score: float) -> float:
        """Cost-efficiency multiplier of moving old -> new at fixed price."""
        return cost_ratio_for_points(
            new_score - old_score, self.points_per_decade
        )

    # ------------------------------------------------------------------
    def paper_claims(self) -> Dict[str, float]:
        """The quantitative claims of Section VI, recomputed.

        * the 2.1-point CPT gain as a value multiplier;
        * the fraction of a Haiku->Sonnet-class gap it represents (the
          paper calls 2.1 points "two-thirds" of that gap, implying a
          ~3.15-point class gap).
        """
        gain = 76.0 - 73.9
        class_gap = gain / (2.0 / 3.0)
        return {
            "cpt_gain_points": gain,
            "cpt_gain_value_ratio": self.value_gain(73.9, 76.0),
            "implied_class_gap_points": class_gap,
            "fraction_of_class_gap": gain / class_gap,
            "ten_fold_points": self.points_per_decade,
        }

    def flagship_comparison(self, score: float) -> List[Tuple[str, float]]:
        """(flagship, score difference) sorted by closeness to ``score``."""
        return sorted(
            ((name, score - s) for name, s in FLAGSHIP_SCORES.items()),
            key=lambda kv: abs(kv[1]),
        )
