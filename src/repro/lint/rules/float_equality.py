"""R4 float-equality: ``==``/``!=`` between float-typed expressions.

Floating-point equality against computed values is order-of-evaluation
dependent: the batched eval path is only *allclose* to the sequential
one, bf16 emulation rounds, and reductions reassociate.  An ``==`` that
happens to hold today is a refactor away from a silent benchmark skew.

The rule is deliberately heuristic about "float-typed":

* a non-dyadic float literal (``64.7``, ``0.1`` — values with no exact
  binary representation, which almost always denote *measured/computed*
  quantities) on either side;
* an expression that manifestly produces a float: ``float(...)``,
  ``np.float32/float64(...)``, true division, ``math.sqrt``-style
  transcendental calls, or the ``pi``/``e`` constants.

Comparisons against *dyadic* literals (``0.0``, ``1.0``, ``0.5``) are
allowed: they are exactly representable and this stack uses them as
sentinels (``temperature == 0.0``) and as exact-ratio assertions
(``accuracy == 1.0`` where accuracy is ``correct / total``).  Deliberate
bit-identity checks on other values take an inline suppression.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from repro.lint.core import Finding, ParsedModule, Rule, register

#: math/np functions that return floats
_FLOAT_FUNCS = {
    "sqrt",
    "exp",
    "expm1",
    "log",
    "log1p",
    "log2",
    "log10",
    "sin",
    "cos",
    "tan",
    "atan2",
    "hypot",
    "fsum",
    "mean",
    "std",
    "var",
    "float32",
    "float64",
    "float16",
}
_FLOAT_CONSTANTS = {"pi", "e", "euler_gamma", "tau"}


def _is_dyadic(value: float) -> bool:
    """Exactly representable with a small power-of-two denominator.

    ``3.0``, ``0.5``, ``1.75`` pass; ``0.1`` and ``64.7`` do not.  The
    2**16 bound keeps "obviously intended as exact" values (halves,
    quarters...) while rejecting decimal-looking constants.
    """
    try:
        scaled = value * 65536.0
    except OverflowError:  # pragma: no cover - inf handled by caller
        return False
    return scaled == int(scaled) if abs(scaled) < 2**53 else float(value).is_integer()


def _float_reason(node: ast.AST) -> Optional[str]:
    """Why ``node`` is float-typed (None if we can't tell)."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, float):
            if node.value != node.value or node.value in (
                float("inf"),
                float("-inf"),
            ):
                return "non-finite float literal"
            if not _is_dyadic(node.value):
                return f"inexact float literal {node.value!r}"
        return None
    if isinstance(node, ast.UnaryOp):
        return _float_reason(node.operand)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return "true-division result"
        left = _float_reason(node.left)
        return left or _float_reason(node.right)
    if isinstance(node, ast.Call):
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        if name == "float":
            return "float(...) result"
        if name in _FLOAT_FUNCS:
            return f"{name}(...) result"
        return None
    if isinstance(node, ast.Attribute) and node.attr in _FLOAT_CONSTANTS:
        return f"float constant .{node.attr}"
    return None


@register
class FloatEqualityRule(Rule):
    code = "R4"
    name = "float-equality"
    description = (
        "== / != between float-typed expressions; use np.isclose / "
        "np.testing.assert_allclose, or suppress for deliberate "
        "bit-identity checks"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (operands[i], operands[i + 1]):
                    reason = _float_reason(side)
                    if reason is not None:
                        symbol = "==" if isinstance(op, ast.Eq) else "!="
                        findings.append(
                            self.finding(
                                module,
                                node,
                                f"float equality ({symbol} with {reason}); "
                                f"floating-point results are not stable "
                                f"under reassociation — compare with a "
                                f"tolerance",
                            )
                        )
                        break
        return iter(findings)
