"""Surrogate-driven ablation sweeps.

The calibrated mechanism model lets us ask the counterfactuals the paper
discusses but could not afford to run:

* :func:`sft_remedy_sweep` — the Section VI remedy: how full-instruct
  scores recover as the SFT set becomes astronomy-focused (the de Haan et
  al. 50M-Q&A direction);
* :func:`dataset_quality_sweep` — base-token score vs CPT data quality
  (the "textbooks + Wikipedia + summaries" path of Section VII);
* :func:`capacity_frontier` — CPT delta as a function of the forgetting
  fragility, locating the capacity break-even the paper observed between
  8B and 70B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.zoo import get_entry
from repro.scale.surrogate import SurrogateModel


@dataclass
class Sweep:
    """One ablation curve."""

    name: str
    parameter: str
    xs: List[float] = field(default_factory=list)
    ys: List[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.xs.append(x)
        self.ys.append(y)

    def monotone_increasing(self) -> bool:
        return all(b >= a - 1e-9 for a, b in zip(self.ys, self.ys[1:]))

    def crossing(self, level: float) -> Optional[float]:
        """First x where the curve crosses ``level`` (linear interpolation)."""
        for (x0, y0), (x1, y1) in zip(
            zip(self.xs, self.ys), zip(self.xs[1:], self.ys[1:])
        ):
            if (y0 - level) * (y1 - level) <= 0 and y0 != y1:
                t = (level - y0) / (y1 - y0)
                return x0 + t * (x1 - x0)
        return None

    def render(self, width: int = 50) -> str:
        lo, hi = min(self.ys), max(self.ys)
        span = max(hi - lo, 1e-9)
        lines = [f"{self.name} ({self.parameter})"]
        for x, y in zip(self.xs, self.ys):
            bar = "#" * int(round((y - lo) / span * width))
            lines.append(f"  {x:8.3f} | {bar} {y:.1f}")
        return "\n".join(lines)


def sft_remedy_sweep(
    entry_name: str = "AstroLLaMA-2-70B-AIC",
    fractions: Sequence[float] = (1 / 3, 0.5, 0.7, 0.9, 1.0),
    model: Optional[SurrogateModel] = None,
) -> Sweep:
    """Full-instruct score vs astronomy fraction of the SFT mixture."""
    model = model or SurrogateModel()
    entry = get_entry(entry_name)
    sweep = Sweep(entry_name, "sft_astro_fraction")
    for fraction in fractions:
        score = model.full_instruct(entry, sft_astro_fraction=fraction)
        if score is None:
            raise ValueError(f"{entry_name} has no full-instruct surrogate")
        sweep.add(fraction, score)
    return sweep


def dataset_quality_sweep(
    entry_name: str = "AstroLLaMA-3-8B-AIC",
    qualities: Sequence[float] = (0.45, 0.6, 0.75, 0.85, 0.95),
    model: Optional[SurrogateModel] = None,
) -> Sweep:
    """Base-token score vs the CPT dataset's information quality."""
    model = model or SurrogateModel()
    entry = get_entry(entry_name)
    if entry.cpt_dataset is None:
        raise ValueError("sweep needs a CPT entry")
    sweep = Sweep(entry_name, "dataset_quality")
    for q in qualities:
        params = model.params
        quality = dict(params.dataset_quality)
        quality[entry.cpt_dataset] = q
        ablated = model.with_params(dataset_quality=quality)
        sweep.add(q, ablated.token_base(entry))
    return sweep


def capacity_frontier(
    entry_name: str = "AstroLLaMA-2-7B-AIC",
    phis: Sequence[float] = (0.0, 2.0, 4.0, 6.0, 8.0, 12.0, 17.4),
    model: Optional[SurrogateModel] = None,
) -> Tuple[Sweep, Optional[float]]:
    """CPT delta vs forgetting fragility; returns (sweep, break-even phi).

    The break-even is where CPT stops helping — the paper locates real
    models either side of it (70B below, 7B far above).
    """
    model = model or SurrogateModel()
    entry = get_entry(entry_name)
    sweep = Sweep(entry_name, "phi (forgetting fragility)")
    for phi in phis:
        new_phi = dict(model.params.phi)
        new_phi[entry.tier] = phi
        ablated = model.with_params(phi=new_phi)
        sweep.add(phi, ablated.cpt_delta(entry))
    return sweep, sweep.crossing(0.0)
