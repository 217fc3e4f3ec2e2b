"""R5 export-drift: ``__all__`` must match what the module actually offers.

A stale ``__all__`` breaks ``from repro.X import *`` at a distance and —
worse — silently narrows the public API a downstream pins against.  For
every module that declares a literal ``__all__`` this rule checks both
directions:

* every name listed in ``__all__`` is defined or imported in the module;
* every public (non-underscore) top-level ``def``/``class`` appears in
  ``__all__``.

Modules with a dynamic ``__all__`` (computed, starred imports) are
skipped rather than guessed at.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.lint.core import Finding, ParsedModule, Rule, register


def _literal_all(
    tree: ast.Module,
) -> Optional[List[Tuple[str, ast.AST]]]:
    """(name, node) pairs from literal ``__all__`` assignments, else None."""
    entries: List[Tuple[str, ast.AST]] = []
    found = False
    for stmt in tree.body:
        values: List[ast.AST] = []
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            values.append(stmt.value)
        elif (
            isinstance(stmt, ast.AugAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == "__all__"
        ):
            values.append(stmt.value)
        for value in values:
            found = True
            if not isinstance(value, (ast.List, ast.Tuple)):
                return None  # dynamic __all__
            for elt in value.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    entries.append((elt.value, elt))
                else:
                    return None
    return entries if found else None


def _defined_names(tree: ast.Module) -> Tuple[Set[str], bool]:
    """Top-level bindings (defs, classes, assignments, imports).

    The bool is True when a ``from x import *`` makes the set unknowable.
    """
    names: Set[str] = set()
    star = False
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        names.add(node.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(stmt, ast.ImportFrom):
            for alias in stmt.names:
                if alias.name == "*":
                    star = True
                else:
                    names.add(alias.asname or alias.name)
        elif isinstance(stmt, (ast.If, ast.Try)):
            # common conditional-import pattern: scan one level down
            bodies = [stmt.body, stmt.orelse]
            if isinstance(stmt, ast.Try):
                bodies.extend(handler.body for handler in stmt.handlers)
                bodies.append(stmt.finalbody)
            for body in bodies:
                for sub in body:
                    if isinstance(sub, ast.Import):
                        for alias in sub.names:
                            names.add(alias.asname or alias.name.split(".")[0])
                    elif isinstance(sub, ast.ImportFrom):
                        for alias in sub.names:
                            if alias.name != "*":
                                names.add(alias.asname or alias.name)
                    elif isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                    ):
                        names.add(sub.name)
                    elif isinstance(sub, ast.Assign):
                        for target in sub.targets:
                            for node in ast.walk(target):
                                if isinstance(node, ast.Name):
                                    names.add(node.id)
    return names, star


@register
class ExportDriftRule(Rule):
    code = "R5"
    name = "export-drift"
    description = (
        "__all__ out of sync with the module: phantom exports or public "
        "defs missing from __all__"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        entries = _literal_all(module.tree)
        if entries is None:
            return iter(())
        defined, star = _defined_names(module.tree)
        findings: List[Finding] = []
        listed = {name for name, _ in entries}
        seen: Set[str] = set()
        for name, node in entries:
            if name in seen:
                findings.append(
                    self.finding(
                        module, node, f"duplicate __all__ entry {name!r}"
                    )
                )
                continue
            seen.add(name)
            if not star and name not in defined:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"__all__ lists {name!r} but the module neither "
                        f"defines nor imports it",
                    )
                )
        for stmt in module.tree.body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                if not stmt.name.startswith("_") and stmt.name not in listed:
                    kind = "class" if isinstance(stmt, ast.ClassDef) else "def"
                    findings.append(
                        self.finding(
                            module,
                            stmt,
                            f"public {kind} {stmt.name!r} missing from "
                            f"__all__ (export it or prefix with '_')",
                        )
                    )
        return iter(findings)
