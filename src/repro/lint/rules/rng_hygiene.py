"""R3 rng-hygiene: no NumPy global RNG state, no unseeded generators.

Bit-exact benchmark comparability across the model zoo requires every
stochastic component to draw from an explicitly seeded, namespaced stream
(``repro.utils.rng``).  Two things break that silently:

* the legacy global-state API (``np.random.seed`` / ``np.random.rand`` /
  ``np.random.shuffle`` ...), whose hidden state couples unrelated
  call sites and varies with import/execution order;
* ``np.random.default_rng()`` with no seed, which draws fresh OS entropy
  on every run.

``repro/utils/rng.py`` itself — the sanctioned wrapper — is exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.lint.core import Finding, ParsedModule, Rule, register

#: legacy numpy.random module-level functions backed by hidden global state
GLOBAL_STATE_FNS = {
    "seed",
    "get_state",
    "set_state",
    "rand",
    "randn",
    "randint",
    "random_integers",
    "random",
    "random_sample",
    "ranf",
    "sample",
    "choice",
    "bytes",
    "shuffle",
    "permutation",
    "uniform",
    "normal",
    "standard_normal",
    "beta",
    "binomial",
    "poisson",
    "exponential",
    "gamma",
    "geometric",
    "laplace",
    "lognormal",
    "multinomial",
    "multivariate_normal",
    "pareto",
    "rayleigh",
    "triangular",
    "vonmises",
    "weibull",
    "zipf",
}


def _is_np_random(node: ast.AST, numpy_aliases: set) -> bool:
    """True for ``<numpy-alias>.random`` attribute chains."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in numpy_aliases
    )


@register
class RngHygieneRule(Rule):
    code = "R3"
    name = "rng-hygiene"
    description = (
        "numpy global RNG state or unseeded default_rng() outside the "
        "sanctioned repro.utils.rng wrapper"
    )
    exempt = ("repro/utils/rng.py",)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        findings: List[Finding] = []
        numpy_aliases = {"numpy", "np"}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        numpy_aliases.add(alias.asname or "numpy")
            elif isinstance(node, ast.ImportFrom):
                if node.module in ("numpy.random", "numpy.random.mtrand"):
                    for alias in node.names:
                        if alias.name in GLOBAL_STATE_FNS:
                            findings.append(
                                self.finding(
                                    module,
                                    node,
                                    f"import of numpy.random.{alias.name} "
                                    f"(hidden global RNG state); derive a "
                                    f"seeded Generator via repro.utils.rng",
                                )
                            )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if not _is_np_random(func.value, numpy_aliases):
                continue
            if func.attr in GLOBAL_STATE_FNS:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"np.random.{func.attr}() uses hidden global RNG "
                        f"state; derive a seeded Generator via "
                        f"repro.utils.rng (new_rng / spawn_rngs)",
                    )
                )
            elif func.attr == "default_rng" and not node.args and not node.keywords:
                findings.append(
                    self.finding(
                        module,
                        node,
                        "unseeded np.random.default_rng() draws fresh OS "
                        "entropy every run; pass an explicit seed",
                    )
                )
            elif func.attr == "RandomState":
                findings.append(
                    self.finding(
                        module,
                        node,
                        "legacy np.random.RandomState; use a seeded "
                        "np.random.default_rng Generator instead",
                    )
                )
        return iter(findings)
