"""R11 workspace-escape: no workspace view outlives its scope.

Batched scoring and prefill run their temporaries in the calling
thread's :class:`~repro.model.workspace.Workspace`: a scope bump-allocates
views of one flat buffer and rewinds on exit, so the next scope (the next
phase, the next call, another model) reuses the same bytes.  A view that
leaves its scope aliases memory the next take overwrites: a returned
logits row, a stored K/V tensor or a kept activation would change under
its holder without any write to it.

The rule reuses R1's per-scope taint walk with two kinds of taint:

* **workspace** — a name ``ws`` or ``workspace``, a parameter annotated
  ``Workspace``, a ``workspace()``/``Workspace()`` call, a ``.scope()`` of
  one (and its ``with ... as`` target);
* **view** — a ``.take(...)`` of a workspace; a reshape, transpose,
  ``.T``, slice or other view (R1's view functions, plus ``ravel``,
  ``ascontiguousarray``, ``moveaxis``) of a view; the result of a call
  whose ``out=`` is a view; the result of a call handed a workspace (the
  callee may return one of its views); a tuple, list or dict display
  holding a view.  A helper that writes into a buffer it is handed and
  returns it (``rows.pad(x, out=k)``) must take that buffer as ``out=``:
  the rule does not follow a view passed positionally.

Arithmetic, ``.copy()`` and every other call produce fresh arrays, which
clear the taint.  Flagged, for a view:

* ``return``/``yield`` from a public function (a name without a leading
  underscore, or a dunder such as ``__call__``); private helpers may hand
  views to their caller inside the scope;
* assignment to an attribute (``self.h = view``, ``setattr``);
* a store into a dict, a list or a KV cache: a subscript store with a
  string key (``layer["k"] = view``), into a name bound to a dict or list
  display or constructor, or into a cache (R1's cache roots), and
  ``append``/``insert``/``extend``/``add``/``setdefault``/``update``.

Writing *into* a view (``view[...] = x``, ``out=view``) is how the
workspace is meant to be used and is never flagged; a subscript store
into an array copies and is not flagged either.  The runtime twin is in
``tests/test_inference_purity.py``: no entry point's result, stored K/V
or ``last_logits`` shares memory with the thread's workspace buffer.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.core import Finding, ParsedModule, register
from repro.lint.rules.cache_mutation import (
    _VIEW_FUNCS,
    CONTAINER,
    PREFIX,
    CacheMutationRule,
    _str_index,
    _terminal_name,
)

WORKSPACE = "workspace"
VIEW = "view"
#: a name bound to a dict or list display or constructor
COLLECTION = "collection"

_VIEWS = _VIEW_FUNCS | {"ravel", "ascontiguousarray", "asanyarray", "moveaxis"}
#: methods that put their arguments into a list, set or dict
_INSERTS = {"append", "insert", "extend", "add", "setdefault", "update"}
_COLLECTION_CALLS = {"dict", "list", "defaultdict", "OrderedDict"}
#: names that hold the thread's workspace without a seeding assignment
_WS_NAMES = {"ws", "workspace"}


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


@register
class WorkspaceEscapeRule(CacheMutationRule):
    code = "R11"
    name = "workspace-escape"
    description = (
        "a view of a workspace take escapes its scope: returned from a "
        "public function, assigned to an attribute, or stored in a dict, "
        "list or KV cache"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        self._public: List[bool] = [False]
        return super().check(module)

    # -- taint -------------------------------------------------------------
    def _taint_of_expr(self, node: ast.AST, taint: Dict[str, str]) -> Optional[str]:
        if isinstance(node, ast.Name):
            kind = taint.get(node.id)
            if kind in (WORKSPACE, VIEW):
                return kind
            if kind is None and node.id in _WS_NAMES:
                return WORKSPACE
            return None
        if isinstance(node, ast.Attribute):
            if node.attr == "T" and self._taint_of_expr(node.value, taint) == VIEW:
                return VIEW
            return None
        if isinstance(node, ast.Subscript):
            return VIEW if self._taint_of_expr(node.value, taint) == VIEW else None
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return VIEW if self._holds_view(node.elts, taint) else None
        if isinstance(node, ast.Dict):
            return VIEW if self._holds_view(node.values, taint) else None
        if isinstance(node, ast.IfExp):
            return VIEW if self._holds_view([node.body, node.orelse], taint) else None
        if isinstance(node, ast.Call):
            return self._call_taint(node, taint)
        return None

    def _holds_view(self, nodes, taint: Dict[str, str]) -> bool:
        return any(
            n is not None and self._taint_of_expr(n, taint) == VIEW for n in nodes
        )

    def _call_taint(self, node: ast.Call, taint: Dict[str, str]) -> Optional[str]:
        fn = node.func
        name = _terminal_name(fn)
        if name in ("workspace", "Workspace"):
            return WORKSPACE
        if isinstance(fn, ast.Attribute):
            base = self._taint_of_expr(fn.value, taint)
            if base == WORKSPACE:
                return {"take": VIEW, "scope": WORKSPACE}.get(fn.attr)
            if base == VIEW and fn.attr in _VIEWS:
                return VIEW
        if name in _VIEWS and self._holds_view(node.args, taint):
            return VIEW
        if any(
            kw.arg == "out" and self._taint_of_expr(kw.value, taint) == VIEW
            for kw in node.keywords
        ):
            return VIEW
        handed = list(node.args) + [kw.value for kw in node.keywords]
        if any(self._taint_of_expr(arg, taint) == WORKSPACE for arg in handed):
            return VIEW
        return None

    def _assign_taint(
        self, targets: List[ast.AST], value: ast.AST, taint: Dict[str, str]
    ) -> None:
        super()._assign_taint(targets, value, taint)
        is_collection = isinstance(
            value, (ast.Dict, ast.List, ast.DictComp, ast.ListComp)
        ) or (
            isinstance(value, ast.Call) and _terminal_name(value.func) in _COLLECTION_CALLS
        )
        if is_collection:
            for target in targets:
                if isinstance(target, ast.Name) and taint.get(target.id) is None:
                    taint[target.id] = COLLECTION

    def _seed_params(self, fn: ast.AST, taint: Dict[str, str]) -> None:
        super()._seed_params(fn, taint)
        args = fn.args  # type: ignore[attr-defined]
        for param in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            if param.annotation is not None and "Workspace" in ast.dump(param.annotation):
                taint[param.arg] = WORKSPACE

    # -- sinks -------------------------------------------------------------
    def _escape_target(self, target: ast.AST, taint: Dict[str, str]) -> Optional[str]:
        """Where storing a view into ``target`` lets it escape, if it does."""
        if isinstance(target, ast.Attribute):
            return f"assigned to attribute {target.attr!r}"
        if not isinstance(target, ast.Subscript):
            return None
        container = target.value
        if self._taint_of_expr(container, taint) == VIEW:
            return None  # a write into the workspace itself
        kind = taint.get(container.id) if isinstance(container, ast.Name) else None
        if _str_index(target.slice) is not None or kind == COLLECTION:
            return "stored into a dict or list"
        if kind in (CONTAINER, PREFIX) or self._is_cache_root(container, taint):
            return "stored into a KV cache"
        return None

    def _call_sink(
        self, node: ast.Call, taint: Dict[str, str]
    ) -> Optional[str]:
        fn = node.func
        args = list(node.args) + [kw.value for kw in node.keywords]
        if isinstance(fn, ast.Name) and fn.id == "setattr" and len(node.args) == 3:
            if self._taint_of_expr(node.args[2], taint) == VIEW:
                return "workspace view assigned to an attribute via setattr()"
        if (
            isinstance(fn, ast.Attribute)
            and fn.attr in _INSERTS
            and self._taint_of_expr(fn.value, taint) != VIEW
            and self._holds_view(args, taint)
        ):
            return f"workspace view stored into a container via .{fn.attr}()"
        return None

    # -- R1's walk hooks ----------------------------------------------------
    def _function(
        self, fn: ast.stmt, taint: Dict[str, str], findings: List[Finding]
    ) -> None:
        self._public.append(_is_public(fn.name))  # type: ignore[attr-defined]
        try:
            super()._function(fn, taint, findings)
        finally:
            self._public.pop()

    def _node_violation(
        self, node: ast.AST, taint: Dict[str, str]
    ) -> Optional[str]:
        if isinstance(node, ast.Call):
            return self._call_sink(node, taint)
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            if self._public[-1] and node.value is not None:
                if self._taint_of_expr(node.value, taint) == VIEW:
                    return "public function hands out a workspace view"
        return None

    def _store_violations(
        self, stmt: ast.stmt, taint: Dict[str, str]
    ) -> Iterator[str]:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or stmt.value is None:
            return
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        pairs: List[Tuple[ast.AST, ast.AST]] = []
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)) and isinstance(
                stmt.value, (ast.Tuple, ast.List)
            ) and len(target.elts) == len(stmt.value.elts):
                pairs.extend(zip(target.elts, stmt.value.elts))
            elif isinstance(target, (ast.Tuple, ast.List)):
                pairs.extend((elt, stmt.value) for elt in target.elts)
            else:
                pairs.append((target, stmt.value))
        for target, value in pairs:
            if self._taint_of_expr(value, taint) == VIEW:
                where = self._escape_target(target, taint)
                if where:
                    yield f"workspace view {where}"

    def _bind(self, stmt: ast.stmt, taint: Dict[str, str]) -> None:
        super()._bind(stmt, taint)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if (
                    isinstance(item.optional_vars, ast.Name)
                    and self._taint_of_expr(item.context_expr, taint) == WORKSPACE
                ):
                    taint[item.optional_vars.id] = WORKSPACE
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            if isinstance(stmt.target, ast.Name):
                if self._taint_of_expr(stmt.iter, taint) == VIEW:
                    taint[stmt.target.id] = VIEW  # rows of a view are views
