"""R8 numpy-scalar-promotion: no float64 NumPy scalars in model math.

The model computes in its parameters' dtype (float32).  Under NumPy's
scalar promotion rules (NEP 50) a Python ``float`` is *weak* and adopts
the array's dtype, but a NumPy scalar is not: ``np.sqrt(64)`` is an
``np.float64``, and ``float32_array * np.float64`` is a float64 array.
One such scalar in attention (``scale = 1.0 / np.sqrt(self.head_dim)``)
once made every layer after block 0's attention run in float64.

The rule flags, inside ``model/`` and ``train/``, a NumPy math call
(``sqrt``, ``exp``, the ``log`` family, ``sin``, ``cos``, ``power``) or
an ``np.float64(...)`` whose arguments are plainly Python scalars: built
only from numeric literals, attribute reads (``self.head_dim``, but not
``.T``/``.real``-style array views) and ``len``/``int``/``float`` calls.  A call whose value goes straight, through
arithmetic only, into ``np.float32(...)``, ``.astype(...)``, ``float(...)``
or ``int(...)`` is not flagged: the cast fixes its dtype.  Use ``math``
for scalar math instead.  The runtime twin is
``tests/test_dtype_contract.py``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List

from repro.lint.core import Finding, ParsedModule, Rule, register

#: numpy functions that return a float64 scalar for a Python scalar input
MATH_FNS = {
    "sqrt",
    "exp",
    "log",
    "log2",
    "log10",
    "log1p",
    "sin",
    "cos",
    "power",
    "float64",
}

#: builtins whose result is a plain Python number
SCALAR_BUILTINS = {"len", "int", "float"}

#: ndarray attributes, which are arrays however they are read
ARRAY_ATTRS = {"T", "mT", "real", "imag", "flat"}


def _is_plain_scalar(node: ast.AST) -> bool:
    """True when ``node`` can only be a Python number."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(
            node.value, bool
        )
    if isinstance(node, ast.Attribute):
        return node.attr not in ARRAY_ATTRS and isinstance(
            node.value, (ast.Name, ast.Attribute)
        )
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id in SCALAR_BUILTINS
    if isinstance(node, ast.UnaryOp):
        return _is_plain_scalar(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_plain_scalar(node.left) and _is_plain_scalar(node.right)
    return False


@register
class ScalarPromotionRule(Rule):
    code = "R8"
    name = "numpy-scalar-promotion"
    description = (
        "NumPy math on a Python scalar in model/ or train/ yields a float64 "
        "scalar that promotes float32 arrays to float64 (NEP 50); use math "
        "or cast with np.float32"
    )
    default_options = {"path_fragments": ["/model/", "/train/"]}

    def check(
        self, module: ParsedModule, options: Dict[str, object]
    ) -> Iterator[Finding]:
        fragments = list(options["path_fragments"])  # type: ignore[arg-type]
        norm = "/" + module.path.lstrip("/")
        if fragments and not any(frag in norm for frag in fragments):
            return iter(())
        numpy_aliases = {"numpy", "np"}
        parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(module.tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        numpy_aliases.add(alias.asname or "numpy")

        def is_np(func: ast.AST, names) -> bool:
            return (
                isinstance(func, ast.Attribute)
                and func.attr in names
                and isinstance(func.value, ast.Name)
                and func.value.id in numpy_aliases
            )

        def is_cast(node: ast.AST) -> bool:
            """``node``'s value flows, through arithmetic only, into a cast."""
            parent = parents.get(node)
            while isinstance(parent, (ast.BinOp, ast.UnaryOp)):
                node, parent = parent, parents.get(parent)
            if isinstance(parent, ast.Call) and node in parent.args:
                func = parent.func
                return is_np(func, {"float32"}) or (
                    isinstance(func, ast.Name) and func.id in ("float", "int")
                )
            return (
                isinstance(parent, ast.Attribute)
                and parent.attr == "astype"
                and isinstance(parents.get(parent), ast.Call)
            )

        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and is_np(node.func, MATH_FNS)):
                continue
            if not node.args or node.keywords:
                continue
            if not all(_is_plain_scalar(arg) for arg in node.args):
                continue
            if is_cast(node):
                continue
            fn = node.func.attr  # type: ignore[union-attr]
            instead = {"float64": "a Python float", "power": "**"}.get(
                fn, f"math.{fn}"
            )
            findings.append(
                self.finding(
                    module,
                    node,
                    f"np.{fn}() of a Python scalar is a float64 NumPy "
                    f"scalar and promotes float32 arrays to float64 (NEP 50); "
                    f"use {instead} or np.float32(...)",
                )
            )
        findings.sort(key=lambda f: f.sort_key)
        return iter(findings)
