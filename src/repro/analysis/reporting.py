"""Experiment reports: paper-vs-measured comparisons for EXPERIMENTS.md."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


def format_comparison(
    name: str, paper: Optional[float], measured: Optional[float], unit: str = "%"
) -> str:
    p = f"{paper:.1f}{unit}" if paper is not None else "–"
    m = f"{measured:.1f}{unit}" if measured is not None else "–"
    delta = ""
    if paper is not None and measured is not None:
        delta = f" (Δ {measured - paper:+.1f})"
    return f"{name}: paper {p} vs measured {m}{delta}"


@dataclass
class ExperimentReport:
    """A named collection of paper-vs-measured datapoints."""

    experiment_id: str
    title: str
    rows: List[Tuple[str, Optional[float], Optional[float]]] = field(
        default_factory=list
    )
    notes: List[str] = field(default_factory=list)

    def add(self, name: str, paper: Optional[float], measured: Optional[float]) -> None:
        self.rows.append((name, paper, measured))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        lines = [f"## {self.experiment_id}: {self.title}"]
        for name, paper, measured in self.rows:
            lines.append("  " + format_comparison(name, paper, measured))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def max_abs_delta(self) -> float:
        deltas = [
            abs(m - p) for _, p, m in self.rows if p is not None and m is not None
        ]
        return max(deltas) if deltas else 0.0
