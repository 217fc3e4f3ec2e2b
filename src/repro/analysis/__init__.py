"""Result rendering: Table I, Figure 1 and the ablation sweeps."""

from repro.analysis.tables import render_table_one_markdown, table_one_from_surrogate
from repro.analysis.figures import Figure1Data, build_figure1, render_figure1_ascii
from repro.analysis.ablation import (
    Sweep,
    capacity_frontier,
    dataset_quality_sweep,
    sft_remedy_sweep,
)

__all__ = [
    "table_one_from_surrogate",
    "render_table_one_markdown",
    "Figure1Data",
    "build_figure1",
    "render_figure1_ascii",
    "Sweep",
    "sft_remedy_sweep",
    "dataset_quality_sweep",
    "capacity_frontier",
]
