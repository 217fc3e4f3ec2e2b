"""The lint engine: collect files, parse once, run rules, filter, sort.

Parse failures are not crashes — a file that does not parse yields a
single ``E999`` finding (severity error) so CI fails loudly with a
location instead of a traceback.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.lint.config import LintConfig
from repro.lint.core import Finding, ParsedModule, Severity
from repro.lint.suppress import parse_suppressions

PARSE_ERROR_RULE = "E999"


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

    def exit_code(self, fail_on: Severity) -> int:
        return int(any(f.severity >= fail_on for f in self.findings))


def _norm(path: str) -> str:
    return path.replace(os.sep, "/")


def collect_files(paths: Sequence[str], config: LintConfig) -> List[str]:
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
            if norm in seen or config.excludes("/" + norm.lstrip("/")):
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
                severity=Severity.ERROR,
                path=norm_path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"syntax error: {exc.msg}",
            )
        ]
    module = ParsedModule(path=norm_path, source=source, tree=tree)
    supp = parse_suppressions(source)
    findings: List[Finding] = []
    for rule, options in config.enabled_rules():
        for finding in rule.check(module, options):
            if supp.is_suppressed(finding.rule, finding.line):
                continue
            severity = config.severity_for(finding.rule, finding.severity)
            if severity is not finding.severity:
                finding = Finding(
                    rule=finding.rule,
                    name=finding.name,
                    severity=severity,
                    path=finding.path,
                    line=finding.line,
                    col=finding.col,
                    message=finding.message,
                )
            findings.append(finding)
    findings.sort(key=lambda f: f.sort_key)
    return findings


def run_lint(
    paths: Sequence[str], config: Optional[LintConfig] = None
) -> LintResult:
    """Lint every python file under ``paths``."""
    config = config or LintConfig()
    result = LintResult()
    for filename in collect_files(paths, config):
        with open(filename, "r", encoding="utf-8") as handle:
            source = handle.read()
        result.findings.extend(lint_source(source, path=filename, config=config))
        result.files_checked += 1
    result.findings.sort(key=lambda f: f.sort_key)
    return result
