"""Linter configuration: which rules run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Set

from repro.lint.core import Rule, all_rules, resolve_rule_id


@dataclass
class LintConfig:
    """Which rules run.

    ``select``/``disable`` accept rule codes ("R1") or slugs
    ("cache-mutation"); ``select=None`` means all registered rules.
    """

    select: Optional[Set[str]] = None
    disable: Set[str] = field(default_factory=set)

    @staticmethod
    def _canonical(idents: Iterable[str]) -> Set[str]:
        codes = set()
        for ident in idents:
            code = resolve_rule_id(ident)
            if code is None:
                raise ValueError(f"unknown rule {ident!r}")
            codes.add(code)
        return codes

    @classmethod
    def from_cli(
        cls,
        select: Optional[Iterable[str]] = None,
        disable: Optional[Iterable[str]] = None,
    ) -> "LintConfig":
        return cls(
            select=cls._canonical(select) if select else None,
            disable=cls._canonical(disable) if disable else set(),
        )

    def enabled_rules(self) -> List[Rule]:
        """Instantiated, enabled rules, ordered by code."""
        return [
            rule_cls()
            for rule_cls in all_rules()
            if (self.select is None or rule_cls.code in self.select)
            and rule_cls.code not in self.disable
        ]
