"""Finding reporters: human-readable text and machine-readable JSON.

Both orderings are deterministic (findings are pre-sorted by the engine)
so the JSON form can be snapshot-tested and diffed across CI runs.
"""

from __future__ import annotations

import json
from typing import Dict

from repro.lint.engine import LintResult

JSON_SCHEMA_VERSION = 2


def text_report(result: LintResult) -> str:
    """One line per finding plus a summary tail."""
    lines = [
        f"{f.path}:{f.line}:{f.col + 1}: {f.rule} {f.message} [{f.name}]"
        for f in result.findings
    ]
    if result.findings:
        by_rule = ", ".join(
            f"{rule}={count}" for rule, count in result.counts_by_rule.items()
        )
        lines.append(
            f"{len(result.findings)} finding"
            f"{'s' if len(result.findings) != 1 else ''} "
            f"({by_rule}) in {result.files_checked} files"
        )
    else:
        lines.append(f"clean: 0 findings in {result.files_checked} files")
    return "\n".join(lines)


def json_report(result: LintResult, indent: int = 2) -> str:
    payload: Dict[str, object] = {
        "version": JSON_SCHEMA_VERSION,
        "files_checked": result.files_checked,
        "findings": [f.to_dict() for f in result.findings],
        "summary": {
            "total": len(result.findings),
            "by_rule": result.counts_by_rule,
        },
    }
    return json.dumps(payload, indent=indent, sort_keys=True)
