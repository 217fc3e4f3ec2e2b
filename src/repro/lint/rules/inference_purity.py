"""R10 inference-purity: inference carries no training state.

Every layer in ``model/`` runs two ways (``model/layers.py``): the pure
call ``layer(x)``, which writes nothing on the layer, and the training
call ``forward(x)``, which stashes on ``_cache`` what ``backward`` reads.
Inference (a forward with a cache, ``prefill``, batched scoring,
decoding, ``next_token_logits``, ``perplexity``) runs pure calls only,
so it leaves no activations behind, allocates no gradient buffer, and
can run between a training forward and its backward without changing a
gradient bit.

Inside ``model/`` the rule checks every ``__call__`` and every function
or method named in ``INFERENCE_ENTRY_POINTS``, and, transitively, each
method of the same class (``self.name(...)``) and each function of the
same module (``name(...)``) they call.  None of them may call
``.forward(...)``, unless it passes ``cache=`` (the incremental pure
forward), or ``.backward(...)``; assign ``_cache`` or ``_tied_cache``;
or touch ``.grads``, ``named_gradients`` or ``zero_grad``.  Calls into
other classes are covered because every layer's ``__call__`` is checked
in its own module.  The runtime twin is
``tests/test_inference_purity.py``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.core import Finding, ParsedModule, Rule, register

#: inference entry points, besides every ``__call__``
INFERENCE_ENTRY_POINTS = {
    "_last_hidden",
    "_project_logits",
    "_shared_prefix_attention",
    "advance",
    "decode_step",
    "forward_rows",
    "generate",
    "next_token_logits",
    "next_token_logits_many",
    "open_prompt",
    "perplexity",
    "prefill",
    "select",
}

#: training calls; ``forward`` is allowed with ``cache=``
TRAINING_CALLS = {"forward", "backward"}

#: attributes the training forward stashes for backward
STASH_ATTRS = {"_cache", "_tied_cache"}

#: gradient state: reading it materializes the buffers
GRAD_ATTRS = {"grads", "named_gradients", "zero_grad"}

Key = Tuple[Optional[str], str]  # (class name or None, function name)


@register
class InferencePurityRule(Rule):
    code = "R10"
    name = "inference-purity"
    description = (
        "an inference path in model/ (a layer's __call__ or an inference "
        "entry point) runs a training forward/backward, stashes _cache or "
        "_tied_cache, or touches gradients"
    )
    paths = ("/model/",)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        functions: Dict[Key, ast.AST] = {}
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[(None, node.name)] = node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        functions[(node.name, item.name)] = item
        todo = [
            key
            for key in functions
            if key[1] == "__call__" or key[1] in INFERENCE_ENTRY_POINTS
        ]
        seen: Set[Key] = set(todo)
        findings: List[Finding] = []
        while todo:
            key = todo.pop()
            where = ".".join(k for k in key if k)
            for node in ast.walk(functions[key]):
                message = self._violation(node)
                if message:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"{message} in inference path {where}(); "
                            f"inference runs pure calls only",
                        )
                    )
                callee = _local_callee(node, key[0])
                if callee in functions and callee not in seen:
                    seen.add(callee)
                    todo.append(callee)
        return iter(findings)

    @staticmethod
    def _violation(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr == "forward" and any(k.arg == "cache" for k in node.keywords):
                return None
            if attr in TRAINING_CALLS:
                return f"training call .{attr}()"
        if isinstance(node, ast.Attribute):
            if node.attr in STASH_ATTRS and isinstance(node.ctx, ast.Store):
                return f"assignment to .{node.attr}"
            if node.attr in GRAD_ATTRS:
                return f"gradient state .{node.attr}"
        return None


def _local_callee(node: ast.AST, cls: Optional[str]) -> Optional[Key]:
    """The same-class method or same-module function ``node`` calls."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        return (None, func.id)
    if (
        cls is not None
        and isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
        and func.attr not in TRAINING_CALLS
    ):
        return (cls, func.attr)
    return None
