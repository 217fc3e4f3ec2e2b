"""R2 collective-symmetry: collectives must be issued symmetrically.

The simulated mesh (``repro.parallel``) — like any MPI/NCCL program —
deadlocks or corrupts reductions when ranks disagree about the sequence
of collectives.  A collective call under an ``if rank == 0:`` branch, in
a ``while`` whose condition is rank-dependent, or in a loop whose trip
count depends on the rank, is exactly that bug.

Scope is limited to the distributed layers (``parallel``/``train`` path
fragments) so ordinary code may branch on whatever it likes.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional

from repro.lint.core import Finding, ParsedModule, Rule, iter_names, register

COLLECTIVES = {"all_reduce", "all_gather", "reduce_scatter", "broadcast", "barrier"}
#: names that hold a rank
RANK_NAME_PATTERN = re.compile(r"(?:^|_)ranks?$|^world_rank$|^group_rank$", re.I)


def _collective_name(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in COLLECTIVES:
        return func.attr
    if isinstance(func, ast.Name) and func.id in COLLECTIVES:
        return func.id
    return None


@register
class CollectiveSymmetryRule(Rule):
    code = "R2"
    name = "collective-symmetry"
    description = (
        "collective call inside a rank-dependent branch or loop "
        "(every rank must issue the same collective sequence)"
    )
    paths = ("/parallel/", "/train/")

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        findings: List[Finding] = []

        def rank_dependent(node: ast.AST) -> bool:
            return any(RANK_NAME_PATTERN.search(name) for name in iter_names(node))

        def describe(ctrl: ast.stmt) -> str:
            kind = {ast.If: "if", ast.While: "while", ast.For: "for"}.get(
                type(ctrl), "branch"
            )
            return f"rank-dependent {kind} at line {ctrl.lineno}"

        def report(expr: ast.AST, ctrl: ast.stmt) -> None:
            for node in ast.walk(expr):
                if isinstance(node, ast.Call):
                    name = _collective_name(node)
                    if name is not None:
                        findings.append(
                            self.finding(
                                module,
                                node,
                                f"collective {name}() under {describe(ctrl)}",
                            )
                        )

        def walk(body: List[ast.stmt], ctrl: Optional[ast.stmt]) -> None:
            for stmt in body:
                if isinstance(stmt, ast.If):
                    inner = stmt if rank_dependent(stmt.test) else ctrl
                    if ctrl is not None:
                        report(stmt.test, ctrl)
                    walk(stmt.body, inner)
                    walk(stmt.orelse, inner)
                elif isinstance(stmt, ast.While):
                    inner = stmt if rank_dependent(stmt.test) else ctrl
                    if inner is not None:
                        report(stmt.test, inner)
                    walk(stmt.body, inner)
                    walk(stmt.orelse, ctrl)
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    inner = (
                        stmt
                        if isinstance(stmt, ast.For) and rank_dependent(stmt.iter)
                        else ctrl
                    )
                    if ctrl is not None:
                        report(stmt.iter, ctrl)
                    walk(stmt.body, inner)
                    walk(stmt.orelse, ctrl)
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    walk(stmt.body, None)  # a new symmetric context
                elif isinstance(stmt, ast.ClassDef):
                    walk(stmt.body, None)
                elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                    if ctrl is not None:
                        for item in stmt.items:
                            report(item.context_expr, ctrl)
                    walk(stmt.body, ctrl)
                elif isinstance(stmt, ast.Try):
                    walk(stmt.body, ctrl)
                    for handler in stmt.handlers:
                        walk(handler.body, ctrl)
                    walk(stmt.orelse, ctrl)
                    walk(stmt.finalbody, ctrl)
                else:
                    if ctrl is not None:
                        report(stmt, ctrl)

        walk(module.tree.body, None)
        return iter(findings)
