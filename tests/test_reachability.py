"""Every public top-level function and class in ``src/`` is reached.

Deleted helpers tend to come back as "utilities" that only their own
tests call.  This guard walks the AST of ``src/``, ``examples/``,
``benchmarks/`` and ``perfbench/`` (never ``tests/``) and resolves each
``Name`` and ``Attribute`` node through the module's imports to the
definition it names.  A public top-level definition in ``src/`` counts
as reached when:

* ``examples/``, ``benchmarks/`` or ``perfbench/`` refer to it;
* a reached definition, or module-level code, in ``src/`` refers to it;
* a decorator from ``src/`` registers it (the lint rules), or it runs
  from a ``__main__`` module;
* it is on :data:`ALLOWLIST`, with the reason it stays.

Package ``__init__`` re-exports and ``__all__`` strings resolve names but
are not uses, and neither are docstrings.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
USER_DIRS = ("examples", "benchmarks", "perfbench")

# Kept although nothing outside tests/ reaches them.  Validators and
# drivers check other code; moving them into test files would not
# shrink the code.  The substrate entries are named by README or
# DESIGN.md and wait on a scope decision (ROADMAP, "Considered and
# deferred").
ALLOWLIST: Dict[str, str] = {
    "repro.mcq.quality.check_letter_balance": "validator: checks the benchmark's answer-letter spread",
    "repro.scale.surrogate.score_from_knowledge": "inverse of knowledge_from_score; tests check the pair",
    "repro.scale.tradeoff.points_for_cost_ratio": "inverse of cost_ratio_for_points; tests check the pair",
    "repro.scale.calibration.calibration_error": "validator: checks the surrogate against every paper score",
    "repro.faults.plan.single_fault_plans": "driver: enumerates the fault matrix the faults suite runs",
    "repro.faults.harness.run_clean": "driver: the fault-free reference every recovered run is compared with",
    "repro.faults.recovery.RecoveryManager": "driver: the recovery policy the faults suite exercises",
    "repro.faults.serve.ServeFaultInjector": "driver: replays serve faults from a FaultPlan in simulate()",
    "repro.train.metrics.corpus_perplexity": "driver: the one perplexity; an inference-purity entry point",
    "repro.utils.rng.spawn_rngs": "sanctioned RNG API named by lint rule R3's message",
    "repro.tokenizer.bpe.BPETokenizer": "substrate named by README and DESIGN.md",
    "repro.corpus.dedup.dedupe_documents": "substrate: the MinHash near-dup cleaning README names",
    "repro.corpus.general.build_general_corpus": "substrate: the general-domain corpus DESIGN.md names",
    "repro.parallel.zero_optimizer.Zero1AdamW": "substrate: the ZeRO-1 optimizer sharding README names",
    "repro.parallel.zero_optimizer.zero1_memory_per_rank": "substrate: ZeRO-1's memory model, with Zero1AdamW",
    "repro.parallel.tensor_parallel.mlp_tp_forward": "substrate: the Megatron TP shardings README and DESIGN.md name",
    "repro.eval.probes.knowledge_recall": "substrate: the diagnostic probes DESIGN.md names",
    "repro.eval.probes.circuit_quality": "substrate: the diagnostic probes DESIGN.md names",
}

Key = Tuple[str, str]  # (module, name)


def _module_name(path: Path, base: Path) -> str:
    parts = list(path.relative_to(base).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class _Index:
    def __init__(self) -> None:
        self.trees: Dict[str, ast.Module] = {}
        self.packages: Set[str] = set()
        for path in sorted(SRC.rglob("*.py")):
            name = _module_name(path, SRC)
            self.trees[name] = ast.parse(path.read_text(encoding="utf-8"))
            if path.name == "__init__.py":
                self.packages.add(name)
        self.defs: Set[Key] = set()
        for mod, tree in self.trees.items():
            if mod in self.packages:
                continue
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    self.defs.add((mod, node.name))
        self.imports = {mod: _imports(tree) for mod, tree in self.trees.items()}

    def resolve(self, mod: str, name: str):
        """``("def", key)``, ``("module", name)`` or None for ``mod.name``."""
        if (mod, name) in self.defs:
            return ("def", (mod, name))
        if f"{mod}.{name}" in self.trees:
            return ("module", f"{mod}.{name}")
        target = self.imports.get(mod, {}).get(name)
        return self.resolve_binding(target) if target else None

    def resolve_binding(self, target):
        kind, mod, name = target
        if kind == "module":
            return ("module", mod) if mod in self.trees else None
        return self.resolve(mod, name)


def _imports(tree: ast.Module) -> Dict[str, tuple]:
    """Names bound by ``repro`` imports anywhere in the module."""
    out: Dict[str, tuple] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            for alias in node.names:
                out[alias.asname or alias.name] = ("from", node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    bound = alias.asname or "repro"
                    out[bound] = ("module", alias.name if alias.asname else "repro", "")
    return out


def _resolve_expr(index: _Index, expr: ast.expr, bindings: Dict[str, tuple], here: Optional[str]):
    if isinstance(expr, ast.Name):
        if here is not None and (here, expr.id) in index.defs:
            return ("def", (here, expr.id))
        target = bindings.get(expr.id)
        return index.resolve_binding(target) if target else None
    if isinstance(expr, ast.Attribute):
        owner = _resolve_expr(index, expr.value, bindings, here)
        if owner and owner[0] == "module":
            return index.resolve(owner[1], expr.attr)
    return None


def _references(
    index: _Index, tree: ast.Module, bindings, here: Optional[str]
) -> Iterator[Tuple[ast.stmt, Key]]:
    """(top-level statement, definition it refers to) for every reference."""
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Name, ast.Attribute)):
                hit = _resolve_expr(index, node, bindings, here)
                if hit and hit[0] == "def":
                    yield stmt, hit[1]


def unreached() -> List[str]:
    index = _Index()
    reached: Set[Key] = set()
    edges: Dict[Key, Set[Key]] = {}

    for d in USER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            bindings = _imports(tree)
            reached.update(key for _, key in _references(index, tree, bindings, None))

    for mod, tree in index.trees.items():
        if mod in index.packages:
            continue
        for stmt, key in _references(index, tree, index.imports[mod], mod):
            owner = getattr(stmt, "name", None)
            if owner is None or mod.endswith("__main__"):
                reached.add(key)  # module-level code runs on import
            elif key != (mod, owner):
                edges.setdefault((mod, owner), set()).add(key)
        for node in tree.body:
            for deco in getattr(node, "decorator_list", []):
                hit = _resolve_expr(index, deco.func if isinstance(deco, ast.Call) else deco,
                                    index.imports[mod], mod)
                if hit and hit[0] == "def":
                    reached.add((mod, node.name))

    reached.update(tuple(k.rsplit(".", 1)) for k in ALLOWLIST)
    todo = list(reached)
    while todo:
        for key in edges.get(todo.pop(), ()):
            if key not in reached:
                reached.add(key)
                todo.append(key)
    return sorted(
        f"{mod}.{name}" for (mod, name) in index.defs
        if not name.startswith("_") and (mod, name) not in reached
    )


def test_every_public_definition_is_reached():
    missing = unreached()
    assert not missing, (
        "public definitions in src/ that nothing outside tests/ reaches; delete "
        "them with their tests, or add them to ALLOWLIST with a reason:\n  "
        + "\n  ".join(missing)
    )


def test_allowlist_names_real_definitions():
    index = _Index()
    stale = [k for k in ALLOWLIST if tuple(k.rsplit(".", 1)) not in index.defs]
    assert not stale, f"ALLOWLIST names definitions that no longer exist: {stale}"
