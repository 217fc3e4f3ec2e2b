"""R9 unused-import: a module-level import that nothing in the module uses.

Imports outlive the code that needed them: a deleted helper or a narrowed
signature leaves its ``from typing import Dict`` or ``import numpy as np``
behind, and nothing else notices.  The dead line still costs an import at
load time and misleads a reader about what the module depends on.

The rule looks at imports at module scope (including those inside a
top-level ``if``/``try``) and flags each bound name that the module never
reads: not as a plain name, not as the root of an attribute chain, and not
inside a quoted annotation.  Names listed in ``__all__`` count as read
(a deliberate re-export), ``from __future__`` imports are skipped, and
``__init__.py`` files are exempt, since importing for re-export is what a
package's ``__init__`` is for.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Union

from repro.lint.core import Finding, ParsedModule, Rule, register
from repro.lint.rules.export_drift import _literal_all

ImportNode = Union[ast.Import, ast.ImportFrom]


def _module_imports(tree: ast.Module) -> Iterator[ImportNode]:
    """Import statements at module scope, one level into ``if``/``try``."""
    for stmt in tree.body:
        bodies = [[stmt]]
        if isinstance(stmt, ast.If):
            bodies = [stmt.body, stmt.orelse]
        elif isinstance(stmt, ast.Try):
            bodies = [stmt.body, stmt.orelse, stmt.finalbody]
            bodies.extend(handler.body for handler in stmt.handlers)
        for body in bodies:
            for sub in body:
                if isinstance(sub, (ast.Import, ast.ImportFrom)):
                    yield sub


def _annotation_strings(tree: ast.Module) -> Iterator[str]:
    """String constants inside annotations (quoted forward references)."""
    for node in ast.walk(tree):
        annotations: List[ast.AST] = []
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield sub.value


def _read_names(tree: ast.Module) -> Set[str]:
    """Every name the module reads, quoted annotations included."""
    names = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Load, ast.Del))
    }
    for text in _annotation_strings(tree):
        try:
            parsed = ast.parse(text, mode="eval")
        except SyntaxError:
            continue
        names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


@register
class UnusedImportRule(Rule):
    code = "R9"
    name = "unused-import"
    description = (
        "module-level import that the module never uses (left behind when "
        "the code that needed it was deleted)"
    )

    exempt = ("__init__.py",)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        read = _read_names(module.tree)
        read.update(name for name, _ in _literal_all(module.tree) or [])
        findings: List[Finding] = []
        for stmt in _module_imports(module.tree):
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                if isinstance(stmt, ast.Import):
                    bound = alias.asname or alias.name.split(".")[0]
                else:
                    bound = alias.asname or alias.name
                if bound not in read:
                    findings.append(
                        self.finding(
                            module,
                            stmt,
                            f"{bound!r} is imported but never used in this "
                            f"module; delete the import",
                        )
                    )
        return iter(findings)
