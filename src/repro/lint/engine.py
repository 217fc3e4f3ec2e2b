"""The lint engine: collect files, parse once, run rules, filter, sort.

Each rule runs only on the files its declared ``paths``/``exempt`` scope
covers.  Parse failures are not crashes — a file that does not parse
yields a single ``E999`` finding so CI fails loudly with a location
instead of a traceback.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.lint.config import LintConfig
from repro.lint.core import Finding, ParsedModule
from repro.lint.suppress import parse_suppressions

PARSE_ERROR_RULE = "E999"
#: files under these directories are never linted
EXCLUDED_PARTS = ("/.git/", "/__pycache__/", "/.venv/")


@dataclass
class LintResult:
    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return dict(sorted(counts.items()))

    def exit_code(self) -> int:
        """0 when clean, 1 on any finding."""
        return int(bool(self.findings))


def _norm(path: str) -> str:
    return path.replace(os.sep, "/")


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    files: List[str] = []
    seen = set()
    for path in paths:
        if os.path.isfile(path):
            candidates = [path]
        elif os.path.isdir(path):
            candidates = []
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if not d.startswith(".") and d != "__pycache__"
                )
                candidates.extend(
                    os.path.join(root, n) for n in sorted(names) if n.endswith(".py")
                )
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
        for cand in candidates:
            norm = _norm(cand)
            rooted = "/" + norm.lstrip("/")
            if norm in seen or any(part in rooted for part in EXCLUDED_PARTS):
                continue
            seen.add(norm)
            files.append(cand)
    return files


def lint_source(
    source: str,
    path: str = "<snippet>",
    config: Optional[LintConfig] = None,
) -> List[Finding]:
    """Lint one in-memory module; the unit used by both engine and tests."""
    config = config or LintConfig()
    norm_path = _norm(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                rule=PARSE_ERROR_RULE,
                name="parse-error",
                path=norm_path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"syntax error: {exc.msg}",
            )
        ]
    module = ParsedModule(path=norm_path, source=source, tree=tree)
    supp = parse_suppressions(source)
    findings: List[Finding] = []
    for rule in config.enabled_rules():
        if not rule.applies_to(norm_path):
            continue
        findings.extend(
            f for f in rule.check(module) if not supp.is_suppressed(f.rule, f.line)
        )
    findings.sort(key=lambda f: f.sort_key)
    return findings


def run_lint(
    paths: Sequence[str], config: Optional[LintConfig] = None
) -> LintResult:
    """Lint every python file under ``paths``."""
    config = config or LintConfig()
    result = LintResult()
    for filename in collect_files(paths):
        with open(filename, "r", encoding="utf-8") as handle:
            source = handle.read()
        result.findings.extend(lint_source(source, path=filename, config=config))
        result.files_checked += 1
    result.findings.sort(key=lambda f: f.sort_key)
    return result
