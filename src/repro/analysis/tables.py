"""Table I assembly and rendering."""

from __future__ import annotations

from typing import Optional

from repro.core.scorecards import METHODS, ScoreCard, TableOne
from repro.core.zoo import zoo_entries
from repro.scale.surrogate import SurrogateModel


def table_one_from_surrogate(
    model: Optional[SurrogateModel] = None, similar_band: float = 1.0
) -> TableOne:
    """Build the full Table I grid from the calibrated surrogate."""
    model = model or SurrogateModel()
    table = TableOne(similar_band=similar_band)
    for entry in zoo_entries():
        scores = model.scores(entry).as_dict()
        table.add(ScoreCard(entry=entry, scores=scores))
    return table


def render_table_one_markdown(table: TableOne, show_paper: bool = True) -> str:
    """GitHub-flavoured markdown rendering of a TableOne."""
    header = "| Model | Full Instruct (%) | Token Pred. (Instruct) (%) | Token Pred. (Base) (%) |"
    sep = "|---|---|---|---|"
    if show_paper:
        header += " Paper (FI/TI/TB) |"
        sep += "---|"
    lines = [header, sep]
    for row in table.rows():
        cells = []
        for method in METHODS:
            score = row[method]
            arrow = row[f"{method}_arrow"]
            cells.append(f"{score:.1f} {arrow}".strip() if score is not None else "–")
        line = f"| {row['model']} | {cells[0]} | {cells[1]} | {cells[2]} |"
        if show_paper:
            papers = [
                f"{row[f'{m}_paper']:.1f}" if row[f"{m}_paper"] is not None else "–"
                for m in METHODS
            ]
            line += f" {papers[0]} / {papers[1]} / {papers[2]} |"
        lines.append(line)
    return "\n".join(lines)
