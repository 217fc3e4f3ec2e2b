"""R6 fault-injection-registry: faults fire only through the injector.

The differential recovery suite (``tests/test_faults.py``) proves
faulted-then-recovered runs bit-identical to clean runs, which is only
meaningful if *every* fault originates from a declarative
:class:`~repro.faults.FaultPlan` replayed by the
:class:`~repro.faults.FaultInjector` hooks.  An ad-hoc
``raise PreemptionError(...)`` inside the distributed layers would be a
fault no plan describes: it can't be replayed from a ``(plan, seed)``
key, and it bypasses the at-most-once event bookkeeping the recovery
manager relies on.

The rule therefore flags any ``raise`` of a fault-injection type inside
the distributed layers (``parallel``/``train`` path fragments).  The
``repro.faults`` package itself — the registry — is outside those
fragments and raises freely.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from repro.lint.core import Finding, ParsedModule, Rule, register

#: exception types that may only originate from the injector registry
FAULT_TYPE_NAMES = (
    "FaultInjectionError",
    "PreemptionError",
    "TransientCollectiveError",
    "FaultRecoveryExhausted",
)


def _raised_name(node: ast.Raise) -> Optional[str]:
    target = node.exc
    if isinstance(target, ast.Call):
        target = target.func
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return None


@register
class FaultRegistryRule(Rule):
    code = "R6"
    name = "fault-injection-registry"
    description = (
        "ad-hoc raise of a fault-injection type in the distributed layers "
        "(faults must fire through the FaultInjector hook registry so "
        "every scenario replays from its plan)"
    )
    paths = ("/parallel/", "/train/")

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise):
                continue
            name = _raised_name(node)
            if name in FAULT_TYPE_NAMES:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"raise {name} outside the fault-injector registry "
                        "(declare the fault in a FaultPlan and let the "
                        "installed hooks fire it)",
                    )
                )
        return iter(findings)
