"""``repro.lint`` — AST-based invariant checker for the repro stack.

The stack's correctness rests on contracts that ordinary tests cannot
guard exhaustively: forked KV caches are shared read-only views (R1),
simulated ranks issue symmetric collective sequences (R2), all
randomness flows through seeded, namespaced generators (R3), floating
point results are never compared with ``==`` (R4), ``__all__`` tracks
the real public surface (R5), faults fire only through the injector
(R6), serving code reads time only from the injected clock (R7), model
math never makes float64 NumPy scalars (R8), no import goes unused (R9)
and no workspace view outlives its scope (R11).  This package
machine-checks them; every finding fails the run (exit status 1):

    PYTHONPATH=src python -m repro.lint src tests
    PYTHONPATH=src python -m repro.lint --format json src
    PYTHONPATH=src python -m repro.lint --list-rules

Deliberate exceptions are written next to the code they waive::

    x = approx()  # lint: disable=R4 (bit-identity check, same fp ops)

See ``docs/lint_rules.md`` for the rule reference.
"""

import repro.lint.rules  # noqa: F401  (registers the built-in rules)
from repro.lint.config import LintConfig
from repro.lint.core import Finding, ParsedModule, Rule, all_rules, register
from repro.lint.engine import LintResult, collect_files, lint_source, run_lint
from repro.lint.reporters import json_report, text_report
from repro.lint.suppress import Suppressions, parse_suppressions

__all__ = [
    "Finding",
    "LintConfig",
    "LintResult",
    "ParsedModule",
    "Rule",
    "Suppressions",
    "all_rules",
    "collect_files",
    "json_report",
    "lint_source",
    "parse_suppressions",
    "register",
    "run_lint",
    "text_report",
]
