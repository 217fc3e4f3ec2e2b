"""R1 cache-mutation: no writes into tensors reachable from a KV cache.

The prefix-cache engine (``repro.model.kv_cache``) forks caches as
zero-copy views, which is safe only under the attention contract:
incremental forwards **rebind** ``cache["k"]`` / ``cache["v"]`` to fresh
arrays and never write into the existing ones.  A single in-place write
into a cached tensor silently corrupts every fork sharing its storage.

This rule performs a per-scope taint walk.  Each statement's own
expressions are checked once, with the taint that statement sees; the
bodies of a compound statement are walked as statements of their own.

* **container** taint — values that hold cache storage: parameters
  annotated ``KVCache``, results of ``fork_cache(...)`` / ``.fork(...)`` /
  ``.prefill(...)`` / ``PrefixCache(...)``, the ``.cache`` attribute of a
  tainted prefix, loop variables iterating a tainted container, and any
  name matching the cache-name pattern (``cache``, ``kv_cache``, ``pc``,
  ``prefix`` ...);
* **array** taint — tensors pulled out of a container via the ``"k"`` /
  ``"v"`` keys (subscript or ``.get``) or a prefix's ``last_logits``;
  view-producing calls (``broadcast_to``, ``reshape``, slicing, ...)
  propagate it, copying calls (``concatenate`` etc.) clear it.

Flagged:

* subscript stores that reach *through* a k/v key into the tensor
  (``layer["k"][..., 0] = x`` but not the sanctioned ``layer["k"] = x``);
* augmented assignment landing on a k/v slot or a tainted array
  (``layer["v"] += x``, ``k *= s`` — both mutate in place);
* in-place mutator calls on tainted arrays (``k.fill(0)``,
  ``np.copyto(k, ...)``, ``np.exp(..., out=k)``).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.core import Finding, ParsedModule, Rule, register

CONTAINER = "container"
PREFIX = "prefix"
ARRAY = "array"

#: np.ndarray methods that mutate in place
_MUTATOR_METHODS = {"fill", "sort", "partition", "put", "resize", "setfield"}
#: callables whose first argument is a mutated output buffer
_MUTATOR_FUNCS = {"copyto", "place", "putmask", "put_along_axis"}
#: callables/methods that return a view (or alias) of a tainted argument
_VIEW_FUNCS = {
    "broadcast_to",
    "asarray",
    "atleast_1d",
    "atleast_2d",
    "reshape",
    "transpose",
    "swapaxes",
    "squeeze",
    "expand_dims",
    "view",
    "astype",  # astype(copy=False) may alias; stay conservative
}
#: names treated as cache roots even without a taint-seeding assignment
CACHE_NAME_PATTERN = re.compile(
    r"(?:^|_)(?:kv_?)?caches?$|^pc$|^prefix(?:_cache)?$", re.I
)
#: dict keys under which cached tensors live
KV_KEYS = {"k", "v"}


def _terminal_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _chain(node: ast.AST) -> Tuple[ast.AST, List[Tuple[str, object]]]:
    """Decompose ``root[...].attr[...]`` into (root, steps outward)."""
    steps: List[Tuple[str, object]] = []
    while True:
        if isinstance(node, ast.Subscript):
            steps.append(("sub", node.slice))
            node = node.value
        elif isinstance(node, ast.Attribute):
            steps.append(("attr", node.attr))
            node = node.value
        else:
            break
    steps.reverse()
    return node, steps


def _str_index(index: object) -> Optional[str]:
    if isinstance(index, ast.Constant) and isinstance(index.value, str):
        return index.value
    return None


@register
class CacheMutationRule(Rule):
    code = "R1"
    name = "cache-mutation"
    description = (
        "in-place write into a tensor reachable from a KVCache/PrefixCache "
        "binding (the attention contract rebinds, never mutates)"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        self._module = module
        findings: List[Finding] = []
        self._scope(module.tree.body, {}, findings)
        return iter(findings)

    # -- taint bookkeeping -------------------------------------------------
    def _is_cache_root(self, node: ast.AST, taint: Dict[str, str]) -> bool:
        name = _terminal_name(node)
        if name is None:
            return False
        kind = taint.get(name)
        if kind in (CONTAINER, PREFIX):
            return True
        if kind == ARRAY:
            return False  # array taint is handled separately
        return bool(CACHE_NAME_PATTERN.search(name))

    def _taint_of_expr(self, node: ast.AST, taint: Dict[str, str]) -> Optional[str]:
        """Taint kind produced by evaluating ``node``, if any."""
        if isinstance(node, (ast.Name, ast.Attribute)):
            root, steps = _chain(node)
            name = _terminal_name(node)
            if name is not None and taint.get(name) == ARRAY:
                return ARRAY
            if steps and steps[-1][0] == "attr":
                attr = steps[-1][1]
                base = node.value if isinstance(node, ast.Attribute) else None
                if base is not None and (
                    self._is_cache_root(base, taint)
                    or self._taint_of_expr(base, taint) == PREFIX
                ):
                    if attr == "cache":
                        return CONTAINER
                    if attr == "last_logits":
                        return ARRAY
            if name is not None and taint.get(name) in (CONTAINER, PREFIX):
                return taint[name]
            if name is not None and CACHE_NAME_PATTERN.search(name):
                return CONTAINER
            return None
        if isinstance(node, ast.Subscript):
            # pulling a k/v tensor out of a cache chain => array taint;
            # slicing an array-tainted value stays a view of it
            root, steps = _chain(node)
            if self._is_cache_root(root, taint):
                if any(
                    kind == "sub" and _str_index(idx) in KV_KEYS
                    for kind, idx in steps
                ):
                    return ARRAY
                return CONTAINER  # e.g. cache[0]: a per-layer dict view
            inner = self._taint_of_expr(node.value, taint)
            return ARRAY if inner == ARRAY else None
        if isinstance(node, ast.Call):
            fn = node.func
            fn_name = _terminal_name(fn)
            if fn_name == "fork_cache":
                return CONTAINER
            if fn_name == "fork" and isinstance(fn, ast.Attribute):
                return CONTAINER
            if fn_name in ("PrefixCache", "prefill"):
                return PREFIX
            if fn_name == "get" and isinstance(fn, ast.Attribute) and node.args:
                base_tainted = self._is_cache_root(
                    fn.value, taint
                ) or self._taint_of_expr(fn.value, taint) in (CONTAINER, PREFIX)
                if base_tainted and _str_index(node.args[0]) in KV_KEYS:
                    return ARRAY
            if fn_name in _VIEW_FUNCS:
                for arg in node.args:
                    if self._taint_of_expr(arg, taint) == ARRAY:
                        return ARRAY
                if isinstance(fn, ast.Attribute):
                    if self._taint_of_expr(fn.value, taint) == ARRAY:
                        return ARRAY
            return None
        return None

    @staticmethod
    def _annotation_taint(annotation: Optional[ast.AST]) -> Optional[str]:
        if annotation is None:
            return None
        text = ast.dump(annotation)
        if "KVCache" in text:
            return CONTAINER
        if "PrefixCache" in text:
            return PREFIX
        return None

    # -- violation detection ----------------------------------------------
    def _store_violation(
        self, target: ast.AST, taint: Dict[str, str], augmented: bool
    ) -> Optional[str]:
        """Why a store into ``target`` breaks the contract (None if it doesn't)."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                why = self._store_violation(elt, taint, augmented)
                if why:
                    return why
            return None
        if isinstance(target, ast.Name):
            if augmented and taint.get(target.id) == ARRAY:
                return (
                    f"augmented assignment mutates cache tensor "
                    f"{target.id!r} in place"
                )
            return None
        if not isinstance(target, ast.Subscript):
            return None
        root, steps = _chain(target)
        root_name = _terminal_name(root)
        if root_name is not None and taint.get(root_name) == ARRAY:
            return (
                f"subscript write into cache tensor reached via {root_name!r}"
            )
        if not self._is_cache_root(root, taint):
            # also catch writes through an array-tainted sub-expression,
            # e.g. ``pc.last_logits[0] = x``
            if self._taint_of_expr(target.value, taint) == ARRAY:
                return "subscript write into a cache-derived tensor"
            return None
        kv_positions = [
            i
            for i, (kind, idx) in enumerate(steps)
            if kind == "sub" and _str_index(idx) in KV_KEYS
        ]
        if not kv_positions:
            return None
        last_step_is_kv = kv_positions[-1] == len(steps) - 1
        if augmented and last_step_is_kv:
            return (
                "augmented assignment on a k/v slot mutates the cached "
                "tensor in place (rebind with '=' instead)"
            )
        if not last_step_is_kv:
            return (
                "write reaches through a k/v key into cached tensor "
                "storage (forked caches share these views)"
            )
        return None  # plain rebind of the k/v slot: the sanctioned operation

    def _call_violation(
        self, node: ast.Call, taint: Dict[str, str]
    ) -> Optional[str]:
        fn = node.func
        if isinstance(fn, ast.Attribute) and fn.attr in _MUTATOR_METHODS:
            if self._taint_of_expr(fn.value, taint) == ARRAY:
                return f"in-place method .{fn.attr}() on a cache tensor"
        fn_name = _terminal_name(fn)
        if fn_name in _MUTATOR_FUNCS and node.args:
            if self._taint_of_expr(node.args[0], taint) == ARRAY:
                return f"{fn_name}() writes into a cache tensor"
        for kw in node.keywords:
            if kw.arg == "out" and self._taint_of_expr(kw.value, taint) == ARRAY:
                return "out= targets a cache tensor"
        return None

    # -- scope walk --------------------------------------------------------
    def _seed_params(
        self, fn: ast.AST, taint: Dict[str, str]
    ) -> None:
        args = fn.args  # type: ignore[attr-defined]
        params = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        for extra in (args.vararg, args.kwarg):
            if extra is not None:
                params.append(extra)
        for param in params:
            kind = self._annotation_taint(param.annotation)
            if kind is not None:
                taint[param.arg] = kind

    def _assign_taint(
        self, targets: List[ast.AST], value: ast.AST, taint: Dict[str, str]
    ) -> None:
        kind = self._taint_of_expr(value, taint)
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)) and isinstance(
                value, (ast.Tuple, ast.List)
            ) and len(target.elts) == len(value.elts):
                for t_elt, v_elt in zip(target.elts, value.elts):
                    self._assign_taint([t_elt], v_elt, taint)
                continue
            if isinstance(target, ast.Name):
                if kind is not None:
                    taint[target.id] = kind
                else:
                    taint.pop(target.id, None)

    def _scope(
        self,
        body: List[ast.stmt],
        taint: Dict[str, str],
        findings: List[Finding],
    ) -> None:
        for stmt in body:
            self._statement(stmt, taint, findings)

    def _statement(
        self, stmt: ast.stmt, taint: Dict[str, str], findings: List[Finding]
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._function(stmt, taint, findings)
            return
        if isinstance(stmt, ast.ClassDef):
            self._scope(stmt.body, dict(taint), findings)
            return
        for node in _own_nodes(stmt):
            why = self._node_violation(node, taint)
            if why:
                findings.append(self.finding(self._module, node, why))
        for why in self._store_violations(stmt, taint):
            findings.append(self.finding(self._module, stmt, why))
        self._bind(stmt, taint)
        for body in _bodies(stmt):
            self._scope(body, taint, findings)

    def _function(
        self, fn: ast.stmt, taint: Dict[str, str], findings: List[Finding]
    ) -> None:
        inner = dict(taint)
        self._seed_params(fn, inner)
        self._scope(fn.body, inner, findings)  # type: ignore[attr-defined]

    def _node_violation(
        self, node: ast.AST, taint: Dict[str, str]
    ) -> Optional[str]:
        """Why evaluating ``node``, one node of a statement, breaks the
        contract (None if it doesn't)."""
        if isinstance(node, ast.Call):
            return self._call_violation(node, taint)
        return None

    def _store_violations(
        self, stmt: ast.stmt, taint: Dict[str, str]
    ) -> Iterator[str]:
        """Why the stores ``stmt`` makes break the contract, one reason each."""
        augmented = isinstance(stmt, ast.AugAssign)
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif augmented or (
            isinstance(stmt, ast.AnnAssign)
            and stmt.value is not None
            and not (
                isinstance(stmt.target, ast.Name)
                and self._annotation_taint(stmt.annotation)
            )
        ):
            targets = [stmt.target]  # type: ignore[attr-defined]
        else:
            return
        for target in targets:
            why = self._store_violation(target, taint, augmented)
            if why:
                yield why

    def _bind(self, stmt: ast.stmt, taint: Dict[str, str]) -> None:
        """Update ``taint`` for the names ``stmt`` binds."""
        if isinstance(stmt, ast.Assign):
            self._assign_taint(stmt.targets, stmt.value, taint)
        elif isinstance(stmt, ast.AnnAssign):
            kind = self._annotation_taint(stmt.annotation)
            if isinstance(stmt.target, ast.Name) and kind is not None:
                taint[stmt.target.id] = kind
            elif stmt.value is not None:
                self._assign_taint([stmt.target], stmt.value, taint)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_kind = self._taint_of_expr(stmt.iter, taint)
            if iter_kind in (CONTAINER, PREFIX) or (
                isinstance(stmt.iter, (ast.Name, ast.Attribute))
                and self._is_cache_root(stmt.iter, taint)
            ):
                # iterating a cache container yields per-layer dicts that
                # still hold the shared tensors
                if isinstance(stmt.target, ast.Name):
                    taint[stmt.target.id] = CONTAINER


def _own_nodes(stmt: ast.stmt) -> Iterator[ast.AST]:
    """The nodes ``stmt`` evaluates itself: all of a simple statement,
    only the header of a compound one, whose bodies the walk visits as
    statements of their own, with the taint they see."""
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        exprs: List[Optional[ast.AST]] = [stmt.target, stmt.iter]
    elif isinstance(stmt, (ast.While, ast.If)):
        exprs = [stmt.test]
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        exprs = [e for item in stmt.items for e in (item.context_expr, item.optional_vars)]
    elif isinstance(stmt, ast.Try):
        exprs = [handler.type for handler in stmt.handlers]
    else:
        exprs = [stmt]
    for expr in exprs:
        if expr is not None:
            yield from ast.walk(expr)


def _bodies(stmt: ast.stmt) -> List[List[ast.stmt]]:
    """The statement lists nested in a compound ``stmt``, in order."""
    if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While, ast.If)):
        return [stmt.body, stmt.orelse]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [stmt.body]
    if isinstance(stmt, ast.Try):
        handlers = [handler.body for handler in stmt.handlers]
        return [stmt.body, *handlers, stmt.orelse, stmt.finalbody]
    return []
