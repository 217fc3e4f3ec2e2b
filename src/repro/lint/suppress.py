"""Inline suppression comments.

Two forms, parsed from real COMMENT tokens (so strings that merely look
like comments never suppress anything):

* ``# lint: disable=R1,R4 (reason)`` — trailing on a line suppresses
  those rules on that line; on a line of its own it suppresses the next
  source line (the one the comment annotates).
* ``# lint: disable-file=R3 (reason)`` — anywhere in the file, suppresses
  the rules for the whole file.

Rules may be named by code ("R1") or slug ("cache-mutation"), and
``all`` matches every rule.  The parenthesized reason is optional for the
parser but required by convention — reviews should be able to see *why*
an invariant is deliberately waived.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Set

from repro.lint.core import resolve_rule_id

_DIRECTIVE = re.compile(
    r"#\s*lint:\s*(?P<kind>disable(?:-file)?)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)"
    r"(?:\s*\((?P<reason>[^)]*)\))?"
)


@dataclass
class Suppressions:
    """Parsed suppression directives for one file."""

    by_line: Dict[int, Set[str]] = field(default_factory=dict)
    file_wide: Set[str] = field(default_factory=set)

    def is_suppressed(self, rule_code: str, line: int) -> bool:
        if "all" in self.file_wide or rule_code in self.file_wide:
            return True
        rules = self.by_line.get(line)
        return rules is not None and ("all" in rules or rule_code in rules)


def _resolve(idents: str) -> Set[str]:
    """The rule codes a directive names; an unknown name suppresses nothing."""
    resolved: Set[str] = set()
    for ident in idents.split(","):
        ident = ident.strip()
        if not ident:
            continue
        if ident.lower() == "all":
            resolved.add("all")
            continue
        code = resolve_rule_id(ident)
        if code is not None:
            resolved.add(code)
    return resolved


def parse_suppressions(source: str) -> Suppressions:
    """Collect suppression directives from ``source``'s comment tokens."""
    supp = Suppressions()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return supp
    lines = source.splitlines()
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _DIRECTIVE.search(tok.string)
        if match is None:
            continue
        rules = _resolve(match.group("rules"))
        if not rules:
            continue
        if match.group("kind") == "disable-file":
            supp.file_wide |= rules
            continue
        row, col = tok.start
        prefix = lines[row - 1][:col] if row - 1 < len(lines) else ""
        # A standalone comment annotates the line below it; a trailing
        # comment annotates its own line.
        target = row + 1 if not prefix.strip() else row
        supp.by_line.setdefault(target, set()).update(rules)
    return supp
