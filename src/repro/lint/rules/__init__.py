"""Rule modules; importing this package registers every built-in rule."""

from repro.lint.rules.cache_mutation import CacheMutationRule
from repro.lint.rules.collective_symmetry import CollectiveSymmetryRule
from repro.lint.rules.rng_hygiene import RngHygieneRule
from repro.lint.rules.float_equality import FloatEqualityRule
from repro.lint.rules.export_drift import ExportDriftRule
from repro.lint.rules.fault_registry import FaultRegistryRule
from repro.lint.rules.wall_clock import WallClockRule
from repro.lint.rules.scalar_promotion import ScalarPromotionRule
from repro.lint.rules.unused_import import UnusedImportRule
from repro.lint.rules.inference_purity import InferencePurityRule
from repro.lint.rules.workspace_escape import WorkspaceEscapeRule
from repro.lint.rules.shard_order import ShardOrderRule

__all__ = [
    "CacheMutationRule",
    "CollectiveSymmetryRule",
    "RngHygieneRule",
    "FloatEqualityRule",
    "ExportDriftRule",
    "FaultRegistryRule",
    "WallClockRule",
    "ScalarPromotionRule",
    "UnusedImportRule",
    "InferencePurityRule",
    "WorkspaceEscapeRule",
    "ShardOrderRule",
]
