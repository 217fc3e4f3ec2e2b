"""Core types for the invariant linter: findings, rules, the registry.

The linter exists because the stack's safety contracts live in prose —
``kv_cache.py`` promises that attention *rebinds* ``cache["k"]``/``cache["v"]``
and never writes into the existing tensors, the ``parallel`` package assumes
every rank issues the same collective sequence, and the benchmark's
bit-exact comparability assumes disciplined RNG seeding.  Each contract
becomes a :class:`Rule` that walks a module's AST and yields
:class:`Finding`\\ s.

Rules self-register via :func:`register`; the engine instantiates every
registered rule unless a :class:`~repro.lint.config.LintConfig` narrows the
selection, and runs each only on the files its declared scope covers.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Type


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location; every finding fails the run."""

    rule: str  # rule code, e.g. "R1"
    name: str  # rule slug, e.g. "cache-mutation"
    path: str
    line: int
    col: int
    message: str

    @property
    def sort_key(self):
        return (self.path, self.line, self.col, self.rule, self.message)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "name": self.name,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class ParsedModule:
    """A parsed source file handed to every rule."""

    path: str  # as given on the command line, '/'-normalized
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()


class Rule:
    """Base class for lint rules.

    Subclasses set ``code`` / ``name`` / ``description`` and implement
    :meth:`check`.  A rule's scope is declared, not coded: ``paths`` lists
    path fragments (``"/serve/"``) of which a file must contain one (empty:
    every file), and ``exempt`` lists path suffixes (``"serve/clock.py"``)
    the rule skips.  The engine applies both before calling :meth:`check`.
    """

    code: str = ""
    name: str = ""
    description: str = ""
    paths: Tuple[str, ...] = ()
    exempt: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        """True when the '/'-normalized ``path`` is in this rule's scope."""
        rooted = "/" + path.lstrip("/")
        if self.paths and not any(frag in rooted for frag in self.paths):
            return False
        return not any(path.endswith(suffix) for suffix in self.exempt)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ParsedModule, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.code,
            name=self.name,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.code or not rule_cls.name:
        raise ValueError(f"rule {rule_cls.__name__} needs a code and a name")
    if rule_cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule_cls.code}")
    _REGISTRY[rule_cls.code] = rule_cls
    return rule_cls


def all_rules() -> List[Type[Rule]]:
    """Registered rule classes ordered by code number (R1 ... R9, R11)."""
    return [_REGISTRY[code] for code in sorted(_REGISTRY, key=lambda c: int(c[1:]))]


def resolve_rule_id(ident: str) -> Optional[str]:
    """Map a code ("R1") or slug ("cache-mutation") to a canonical code."""
    ident = ident.strip()
    upper = ident.upper()
    if upper in _REGISTRY:
        return upper
    lower = ident.lower()
    for code, cls in _REGISTRY.items():
        if cls.name == lower:
            return code
    return None


def iter_names(node: ast.AST) -> Iterable[str]:
    """Every identifier mentioned anywhere inside ``node``.

    Attribute terminals are included (``self.rank`` yields ``self`` and
    ``rank``), which is what the rank/cache name heuristics need.
    """
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
