"""R13 shard-order: shard results combine in shard order, on the caller.

The training forward and backward split a batch into a fixed number of
row shards and run them on a thread pool (``model/transformer.py``).  The
gradient's bits then depend on the shard count only, never on how many
threads ran the shards or which finished first, because every lane
writes its own buffers and the caller adds them up in shard order once
all are done.  Two constructs break that:

* accumulating inside a pool callback: a ``+=`` into shared state adds
  the shards in whatever order they finish, and float addition is not
  associative;
* ``as_completed``, which hands results over in completion order.

A pool callback is the first argument of a ``.submit(...)`` or
``.map(...)`` call: a lambda, or a function or method of the module
found by name.  When that argument is a parameter of the enclosing
function (a helper that runs a callback it is handed), the callbacks are
the arguments passed for that parameter at each call of the helper in
the module.  Flagged in a callback's own body: an augmented assignment
to an attribute, a subscript or a ``nonlocal``/``global`` name; a
``ufunc.at(...)`` call (``np.add.at``); ``append``/``extend``/``insert``
on a name the callback does not bind.  Writing a shard's result into
its own slot (``out=logits[rows[i]]``) is not accumulation and is not
flagged.  The rule reads the callback's own body, not its callees: a
lane's layers accumulate into that lane's buffers, which is fine.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Union

from repro.lint.core import Finding, ParsedModule, Rule, register

#: executor methods whose first argument runs on a pool thread
POOL_METHODS = {"submit", "map"}
#: hands futures over in completion order
COMPLETION_ORDER = "as_completed"
#: list methods that collect into a shared container
COLLECTS = {"append", "extend", "insert"}

Function = Union[ast.FunctionDef, ast.AsyncFunctionDef]
Callback = Union[Function, ast.Lambda]
_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _params(fn: Function) -> List[str]:
    args = fn.args
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


def _bound(fn: Callback) -> Set[str]:
    """Names the callback binds itself (parameters and assignments)."""
    names = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


@register
class ShardOrderRule(Rule):
    code = "R13"
    name = "shard-order"
    description = (
        "accumulation inside a pool callback, or as_completed "
        "(shard results must combine in shard order)"
    )
    paths = ("/model/", "/train/", "/parallel/")

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        tree = module.tree
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Name) and node.id == COMPLETION_ORDER
            ) or (isinstance(node, ast.Attribute) and node.attr == COMPLETION_ORDER):
                yield self.finding(
                    module, node, "as_completed yields futures in completion order"
                )
            elif isinstance(node, ast.ImportFrom) and any(
                a.name == COMPLETION_ORDER for a in node.names
            ):
                yield self.finding(
                    module, node, "as_completed yields futures in completion order"
                )
        seen: Set[int] = set()
        for callback in self._callbacks(tree):
            if id(callback) not in seen:
                seen.add(id(callback))
                yield from self._accumulations(module, callback)

    # -- which functions run on the pool -----------------------------------
    def _callbacks(self, tree: ast.Module) -> Iterator[Callback]:
        ordered = [n for n in ast.walk(tree) if isinstance(n, _FUNCTION_NODES)]
        functions: Dict[str, List[Function]] = {}
        for fn in ordered:
            functions.setdefault(fn.name, []).append(fn)
        calls: List[ast.Call] = [n for n in ast.walk(tree) if isinstance(n, ast.Call)]
        # the innermost function around each call: ast.walk visits an outer
        # function before the functions nested in it, which overwrite it
        enclosing: Dict[int, Function] = {}
        for fn in ordered:
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    enclosing[id(node)] = fn
        for call in calls:
            func = call.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in POOL_METHODS
                and call.args
            ):
                continue
            arg = call.args[0]
            owner = enclosing.get(id(call))
            if isinstance(arg, ast.Name) and owner is not None and arg.id in _params(owner):
                yield from self._passed_for(owner, arg.id, calls, functions)
            else:
                yield from self._resolve(arg, functions)

    def _passed_for(
        self,
        helper: Function,
        param: str,
        calls: List[ast.Call],
        functions: Dict[str, List[Function]],
    ) -> Iterator[Callback]:
        """What each call of ``helper`` in the module passes for ``param``."""
        positional = [a.arg for a in helper.args.posonlyargs + helper.args.args]
        if positional and positional[0] in ("self", "cls"):
            positional = positional[1:]
        for call in calls:
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name != helper.name:
                continue
            passed = [kw.value for kw in call.keywords if kw.arg == param]
            if param in positional and positional.index(param) < len(call.args):
                passed.append(call.args[positional.index(param)])
            for arg in passed:
                yield from self._resolve(arg, functions)

    @staticmethod
    def _resolve(
        arg: ast.expr, functions: Dict[str, List[Function]]
    ) -> Iterator[Callback]:
        if isinstance(arg, ast.Lambda):
            yield arg
        elif isinstance(arg, ast.Name):
            yield from functions.get(arg.id, [])
        elif isinstance(arg, ast.Attribute):
            yield from functions.get(arg.attr, [])

    # -- what a callback may not do ------------------------------------------
    def _accumulations(
        self, module: ParsedModule, callback: Callback
    ) -> Iterator[Finding]:
        label = "lambda" if isinstance(callback, ast.Lambda) else callback.name
        shared: Set[str] = set()
        for node in ast.walk(callback):
            if isinstance(node, (ast.Nonlocal, ast.Global)):
                shared.update(node.names)
        local = _bound(callback) - shared
        for node in ast.walk(callback):
            if isinstance(node, ast.AugAssign):
                target = node.target
                if isinstance(target, (ast.Attribute, ast.Subscript)) or (
                    isinstance(target, ast.Name) and target.id in shared
                ):
                    yield self.finding(
                        module,
                        node,
                        f"pool callback {label} accumulates into shared state "
                        "(add shard results on the caller, in shard order)",
                    )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                func = node.func
                if func.attr == "at" or (
                    func.attr in COLLECTS
                    and isinstance(func.value, ast.Name)
                    and func.value.id not in local
                ):
                    yield self.finding(
                        module,
                        node,
                        f"pool callback {label} collects with .{func.attr}() "
                        "in completion order (combine on the caller, in shard order)",
                    )
