"""Rule modules; importing this package registers every built-in rule."""

from repro.lint.rules.cache_mutation import CacheMutationRule
from repro.lint.rules.collective_symmetry import CollectiveSymmetryRule
from repro.lint.rules.rng_hygiene import RngHygieneRule
from repro.lint.rules.float_equality import FloatEqualityRule
from repro.lint.rules.export_drift import ExportDriftRule
from repro.lint.rules.fault_registry import FaultRegistryRule
from repro.lint.rules.wall_clock import WallClockRule
from repro.lint.rules.scalar_promotion import ScalarPromotionRule

__all__ = [
    "CacheMutationRule",
    "CollectiveSymmetryRule",
    "RngHygieneRule",
    "FloatEqualityRule",
    "ExportDriftRule",
    "FaultRegistryRule",
    "WallClockRule",
    "ScalarPromotionRule",
]
