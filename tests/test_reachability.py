"""Every public definition in ``src/`` is reached.

Deleted helpers tend to come back as "utilities" that only their own
tests call.  This guard walks the AST of ``src/``, ``examples/``,
``benchmarks/`` and ``perfbench/`` (never ``tests/``) and resolves each
``Name`` and ``Attribute`` node through the module's imports to the
definition it names.  Its nodes are the public top-level functions and
classes of ``src/`` and the public methods and properties of those
classes.  A node counts as reached when:

* ``examples/``, ``benchmarks/`` or ``perfbench/`` refer to it;
* a reached node, or module-level code, in ``src/`` refers to it;
* a decorator from ``src/`` registers it (the lint rules), or it runs
  from a ``__main__`` module;
* it overrides a reached method of a base class (dynamic dispatch);
* it is on :data:`ALLOWLIST`, with the reason it stays.  An allowlisted
  class keeps its methods too.

A method is referred to as ``Class.name``, as ``self.name`` or
``cls.name`` inside its class or a subclass, or as ``.name`` on a
receiver the guard cannot resolve.  A receiver bound by a non-``repro``
import (``np.load``, ``json.load``) reaches nothing.  Code in a class
outside its public methods (``__init__``, private helpers, class-level
statements) belongs to the class.  Package ``__init__`` re-exports and
``__all__`` strings resolve names but are not uses, and neither are
strings or docstrings.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
USER_DIRS = tuple(ROOT / d for d in ("examples", "benchmarks", "perfbench"))

# Kept although nothing outside tests/ reaches them.  Validators and
# drivers check other code; moving them into test files would not
# shrink the code.
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
    "repro.train.cpt.CPTConfig.paper_70b": "pins AstroLLaMA-2-70B's recipe (batch 160, 2048 tokens, lr 2e-5)",
    "repro.sft_data.mixer.MixtureSpec.astronomy_fraction": "pins the paper's one-third astronomy SFT share",
    "repro.sft_data.mixer.SFTMixture.astronomy_fraction": "checks the built mixture keeps that share",
    "repro.sft_data.mixer.SFTMixture.counts_by_source": "checks the built mixture's per-source counts",
    "repro.serve.engine.ServeEngine.drain": "driver: runs an engine to completion for the serving suites",
    "repro.serve.sim.SimulationResult.replay_key_view": "validator: the replay key serve replay checks compare",
    "repro.faults.recovery.RecoveryLog.actions": "validator: the recovery actions fault-replay checks compare",
    "repro.faults.recovery.RecoveryLog.total_simulated_delay": "validator: the simulated delay fault checks read",
    "repro.faults.recovery.RecoveryLog.to_json": "validator: the log two replays of one plan must equal",
    "repro.parallel.pipeline_parallel.PipelinedModel.stage_parameter_counts": "validator: stages partition the parameters",
    "repro.corpus.arxiv.ArxivArchive.coverage_fraction": "validator: section coverage grows a -> aic -> full",
}

Key = Tuple[str, str]  # (module, name) or (module, "Class.name")


def _module_name(path: Path, base: Path) -> str:
    parts = list(path.relative_to(base).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _public(name: str) -> bool:
    return not name.startswith("_")


def _methods(cls: ast.ClassDef) -> Iterator[ast.FunctionDef]:
    """The public methods and properties a class body defines."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(node.name):
            yield node


class _Index:
    def __init__(self, src: Path) -> None:
        self.trees: Dict[str, ast.Module] = {}
        self.packages: Set[str] = set()
        for path in sorted(src.rglob("*.py")):
            name = _module_name(path, src)
            self.trees[name] = ast.parse(path.read_text(encoding="utf-8"))
            if path.name == "__init__.py":
                self.packages.add(name)
        self.defs: Set[Key] = set()
        self.classes: Dict[Key, ast.ClassDef] = {}
        self.methods: Set[Key] = set()
        self.by_name: Dict[str, Set[Key]] = {}  # method name -> method keys
        for mod, tree in self.modules():
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    self.defs.add((mod, node.name))
                if isinstance(node, ast.ClassDef):
                    self.classes[(mod, node.name)] = node
                    if not _public(node.name):
                        continue
                    for fn in _methods(node):
                        key = (mod, f"{node.name}.{fn.name}")
                        self.methods.add(key)
                        self.by_name.setdefault(fn.name, set()).add(key)
        self.imports = {mod: _imports(tree) for mod, tree in self.trees.items()}
        self.external = {mod: _external(tree) for mod, tree in self.trees.items()}
        self.bases: Dict[Key, Set[Key]] = {key: set() for key in self.classes}
        for (mod, name), node in self.classes.items():
            for base in node.bases:
                hit = _resolve_expr(self, base, self.imports[mod], set(), mod, None)
                if hit and hit[0] == "def" and hit[1] in self.classes:
                    self.bases[(mod, name)].add(hit[1])

    def modules(self) -> Iterator[Tuple[str, ast.Module]]:
        """The modules whose definitions are nodes (not package inits)."""
        for mod, tree in self.trees.items():
            if mod not in self.packages:
                yield mod, tree

    def ancestors(self, cls: Key) -> Set[Key]:
        """``cls`` and every ``src/`` class it inherits from."""
        out, todo = set(), [cls]
        while todo:
            key = todo.pop()
            if key not in out:
                out.add(key)
                todo.extend(self.bases.get(key, ()))
        return out

    def method_of(self, classes: Set[Key], name: str) -> Set[Key]:
        return {(mod, f"{cls}.{name}") for mod, cls in classes} & self.methods

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

    def key(self, dotted: str) -> Key:
        """Split ``module.name`` or ``module.Class.name`` at its module."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            if ".".join(parts[:cut]) in self.trees:
                return (".".join(parts[:cut]), ".".join(parts[cut:]))
        return (dotted, "")


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


def _external(tree: ast.Module) -> Set[str]:
    """Names bound by non-``repro`` imports anywhere in the module."""
    out: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] != "repro":
            out.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "repro":
                    out.add(alias.asname or alias.name.split(".")[0])
    return out


def _resolve_expr(
    index: _Index, expr: ast.expr, bindings: Dict[str, tuple], external: Set[str],
    here: Optional[str], cls: Optional[Key],
):
    """What ``expr`` names: ``("module", name)``, ``("def", key)``,
    ``("methods", keys)``, ``("self", class key)``, ``("external",)``, or
    None for a value the guard cannot resolve."""
    if isinstance(expr, ast.Name):
        if cls is not None and expr.id in ("self", "cls"):
            return ("self", cls)
        if here is not None and (here, expr.id) in index.defs:
            return ("def", (here, expr.id))
        target = bindings.get(expr.id)
        if target:
            return index.resolve_binding(target)
        return ("external",) if expr.id in external else None
    if isinstance(expr, ast.Attribute):
        owner = _resolve_expr(index, expr.value, bindings, external, here, cls)
        kind = owner[0] if owner else None
        if kind == "module":
            return index.resolve(owner[1], expr.attr)
        if kind == "external":
            return owner
        if kind == "def" and owner[1] not in index.classes:
            return None
        if kind in ("def", "self"):
            found = index.method_of(index.ancestors(owner[1]), expr.attr)
        else:
            found = index.by_name.get(expr.attr, set())
        return ("methods", found) if found else None
    return None


def _scopes(mod: str, tree: ast.Module):
    """``(owner, class, nodes)``: the AST nodes whose references belong to
    ``owner`` (None for module-level code), read inside ``class``."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield (mod, stmt.name), None, [stmt]
        elif isinstance(stmt, ast.ClassDef):
            cls = (mod, stmt.name)
            methods = list(_methods(stmt)) if _public(stmt.name) else []
            rest = stmt.decorator_list + stmt.bases + [k.value for k in stmt.keywords]
            rest += [node for node in stmt.body if node not in methods]
            yield cls, cls, rest
            for fn in methods:
                yield (mod, f"{stmt.name}.{fn.name}"), cls, [fn]
        else:
            yield None, None, [stmt]


def _references(
    index: _Index, nodes: Sequence[ast.AST], bindings, external, here, cls
) -> Iterator[Key]:
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, (ast.Name, ast.Attribute)):
                hit = _resolve_expr(index, node, bindings, external, here, cls)
                if hit and hit[0] == "def":
                    yield hit[1]
                elif hit and hit[0] == "methods":
                    yield from hit[1]


def unreached(src: Path = SRC, user_dirs: Sequence[Path] = USER_DIRS,
              allowlist: Dict[str, str] = ALLOWLIST) -> List[str]:
    """Public definitions and methods under ``src`` that nothing outside
    tests reaches, as ``module.name`` / ``module.Class.name``."""
    index = _Index(src)
    reached: Set[Key] = set()
    edges: Dict[Key, Set[Key]] = {}

    for d in user_dirs:
        for path in sorted(d.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            reached.update(_references(index, [tree], _imports(tree), _external(tree), None, None))

    for mod, tree in index.modules():
        bindings, external = index.imports[mod], index.external[mod]
        for owner, cls, nodes in _scopes(mod, tree):
            refs = set(_references(index, nodes, bindings, external, mod, cls))
            if owner is None or mod.endswith("__main__"):
                reached.update(refs)  # module-level code runs on import
            else:
                edges.setdefault(owner, set()).update(refs - {owner})
        for node in tree.body:
            for deco in getattr(node, "decorator_list", []):
                hit = _resolve_expr(index, deco.func if isinstance(deco, ast.Call) else deco,
                                    index.imports[mod], set(), mod, None)
                if hit and hit[0] == "def":
                    reached.add((mod, node.name))

    # an override runs wherever the method it overrides is called
    for mod, qual in index.methods:
        cls, name = qual.split(".")
        for base in index.ancestors((mod, cls)) - {(mod, cls)}:
            for key in index.method_of({base}, name):
                edges.setdefault(key, set()).add((mod, qual))

    for dotted in allowlist:
        key = index.key(dotted)
        reached.add(key)
        if key in index.classes:  # an allowlisted class keeps its methods
            reached.update(k for k in index.methods
                           if k[0] == key[0] and k[1].split(".")[0] == key[1])

    todo = list(reached)
    while todo:
        for key in edges.get(todo.pop(), ()):
            if key not in reached:
                reached.add(key)
                todo.append(key)
    nodes = {key for key in index.defs if _public(key[1])} | index.methods
    return sorted(f"{mod}.{name}" for (mod, name) in nodes - reached)


def test_every_public_definition_is_reached():
    missing = unreached()
    assert not missing, (
        "public definitions or methods in src/ that nothing outside tests/ "
        "reaches; delete them with their tests, or add them to ALLOWLIST with "
        "a reason:\n  " + "\n  ".join(missing)
    )


def stale_entries(src: Path = SRC, allowlist: Dict[str, str] = ALLOWLIST) -> List[str]:
    """Allowlist keys that name no definition or method under ``src``."""
    index = _Index(src)
    nodes = index.defs | index.methods
    return [k for k in allowlist if index.key(k) not in nodes]


def test_allowlist_names_real_definitions():
    stale = stale_entries()
    assert not stale, f"ALLOWLIST names definitions that no longer exist: {stale}"


# -- the guard on a small synthetic tree ------------------------------------

_LIB = '''
import numpy as np


class Store:
    def load(self):
        """Only ``np.load`` shares the name."""

    def save(self):
        """Only tests call this."""

    def run(self):
        return self.via_self()

    def via_self(self):
        pass

    def via_class(self):
        pass

    def via_unknown(self):
        pass

    def hook(self):
        pass

    @property
    def size(self):
        return 0


class Sub(Store):
    def hook(self):
        pass


class Other:
    def via_self(self):
        """Shares a name with ``Store.via_self``, which ``self.`` reaches."""


def used():
    pass


def only_tests():
    "used() is named here, but a string is not a use"
'''

_EXAMPLE = '''
import numpy as np

from repro.lib import Store, Sub, used


def main(thing):
    used()
    Store.run(thing)
    Store.via_class(thing)
    Store.hook(Sub())
    np.load("x.npy")
    return thing.via_unknown(), thing.size
'''

_TEST = '''
from repro.lib import Store, only_tests


def test_it():
    only_tests()
    Store().save()
'''


@pytest.fixture
def synthetic(tmp_path):
    files = {
        "src/repro/__init__.py": "",
        "src/repro/lib.py": _LIB,
        "examples/run.py": _EXAMPLE,
        "tests/test_lib.py": _TEST,
    }
    for rel, text in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text, encoding="utf-8")
    return unreached(tmp_path / "src", (tmp_path / "examples",), {})


def test_guard_flags_what_only_tests_call(synthetic):
    assert "repro.lib.only_tests" in synthetic
    assert "repro.lib.Store.save" in synthetic


@pytest.mark.parametrize("name", [
    "used", "Store", "Sub", "Store.run", "Store.via_self", "Store.via_class",
    "Store.via_unknown", "Store.size", "Store.hook", "Sub.hook",
])
def test_guard_sees_every_way_a_method_is_reached(synthetic, name):
    assert f"repro.lib.{name}" not in synthetic


def test_external_receiver_reaches_nothing(synthetic):
    assert "repro.lib.Store.load" in synthetic


def test_self_reaches_only_its_own_class(synthetic):
    assert "repro.lib.Other.via_self" in synthetic


def test_allowlist_check_reads_method_keys(tmp_path):
    (tmp_path / "repro").mkdir()
    (tmp_path / "repro" / "lib.py").write_text(_LIB, encoding="utf-8")
    entries = {"repro.lib.Store.save": "", "repro.lib.used": "", "repro.lib.Store.gone": ""}
    assert stale_entries(tmp_path, entries) == ["repro.lib.Store.gone"]
