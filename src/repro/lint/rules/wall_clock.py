"""R7 wall-clock-hygiene: serving code tells time only through the Clock.

The serving simulator's replay contract — same ``(schedule, seed)`` →
bit-identical event log, metrics, and outputs — holds only if nothing in
the scheduling path observes real time.  A single
``time.monotonic()`` sneaking into the scheduler turns every latency
histogram and deadline decision into a function of the host's load, and
the differential tests (``tests/test_serve_sim.py``) stop meaning
anything.

The rule flags any call or import of the :mod:`time` module's clock
readers (``time``, ``monotonic``, ``perf_counter``, ``process_time``,
their ``_ns`` variants, plus ``datetime.now`` / ``datetime.utcnow``)
inside the serving package.  ``serve/clock.py`` — the one sanctioned
wall-clock adapter (:class:`~repro.serve.clock.WallClock`) — is exempt:
time enters the engine *only* as an injected
:class:`~repro.serve.clock.Clock`.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.lint.core import Finding, ParsedModule, Rule, register

#: time-module attributes that read a wall clock
WALL_CLOCK_FNS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
    "clock_gettime",
    "clock_gettime_ns",
}

#: datetime constructors that read a wall clock
DATETIME_FNS = {"now", "utcnow", "today"}


@register
class WallClockRule(Rule):
    code = "R7"
    name = "wall-clock-hygiene"
    description = (
        "wall-clock read inside the serving package (scheduling must be "
        "driven by the injected Clock so simulations replay bit-identically; "
        "only serve/clock.py may touch the time module)"
    )
    paths = ("/serve/",)
    exempt = ("serve/clock.py",)

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        findings: List[Finding] = []
        time_aliases = {"time"}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        time_aliases.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in WALL_CLOCK_FNS:
                            findings.append(
                                self.finding(
                                    module,
                                    node,
                                    f"import of time.{alias.name} in serving "
                                    f"code; take time from the injected "
                                    f"Clock (repro.serve.clock)",
                                )
                            )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in time_aliases
                and func.attr in WALL_CLOCK_FNS
            ):
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"time.{func.attr}() in serving code; scheduling "
                        f"must read the injected Clock so replays are "
                        f"bit-identical",
                    )
                )
            elif (
                func.attr in DATETIME_FNS
                and isinstance(func.value, ast.Name)
                and func.value.id in ("datetime", "date")
            ):
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"{func.value.id}.{func.attr}() reads the wall "
                        f"clock; serving code must use the injected Clock",
                    )
                )
        return iter(findings)
