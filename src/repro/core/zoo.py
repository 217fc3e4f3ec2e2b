"""The model zoo: micro analogues of every Table-I row.

Each :class:`ModelZooEntry` describes one paper model:

* the **family** fixes architecture generation and tokenizer convention —
  the llama-2 analogue family uses bare answer tokens, the llama-3 family
  space-prefixed ones (exercising the eval harness's dynamic discovery);
* the **tier** fixes capacity (the 7B/8B/70B ladder);
* ``base_astro_coverage`` fixes how much of the astronomy world the base
  pretraining corpus exposes (the "LLaMA already knows some astronomy"
  knob; larger/newer models know more, matching their Table-I baselines);
* ``cpt_dataset`` names which CPT corpus the AstroLLaMA variant trains on
  (``None`` for native baselines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class FamilySpec:
    """An architecture generation (LLaMA-2 vs LLaMA-3 analogue)."""

    name: str
    space_prefix_tokens: bool  # tokenizer answer-letter convention
    base_train_steps: int  # pretraining budget (newer gen: more tokens)
    base_lr: float


@dataclass(frozen=True)
class ModelZooEntry:
    """One Table-I row."""

    name: str  # e.g. "AstroLLaMA-2-70B-AIC"
    paper_name: str  # exact Table-I label
    family: FamilySpec
    tier: str  # "tiny" (7B) | "small" (8B) | "large" (70B)
    params_label: str  # "7B" | "8B" | "70B"
    base_astro_coverage: float
    cpt_dataset: Optional[str] = None  # None | "abstract" | "aic" | "summary"
    cpt_lora: bool = False  # the original AstroLLaMA used LoRA
    source: str = "Meta"
    reference: str = "[3]"
    # paper Table-I scores (percent), for calibration/report comparison:
    paper_full_instruct: Optional[float] = None
    paper_token_instruct: Optional[float] = None
    paper_token_base: Optional[float] = None

    @property
    def is_native(self) -> bool:
        return self.cpt_dataset is None

    @property
    def base_name(self) -> str:
        """The native baseline this entry is compared against."""
        if self.family.name == "llama-2" and self.tier == "tiny":
            return "LLaMA-2-7B"
        if self.family.name == "llama-3":
            return "LLaMA-3-8B"
        return "LLaMA-2-70B"


# Step budgets sit past the circuit-emergence ("grokking") point measured
# for each tier: the match-and-emit MCQ circuit forms at ~700-800 optimizer
# steps in this world. The llama-3 family gets a larger budget (newer
# generation = more pretraining tokens), which is what lifts its baseline.
LLAMA2_FAMILY = FamilySpec(
    name="llama-2", space_prefix_tokens=False, base_train_steps=1000, base_lr=2.2e-3
)
LLAMA3_FAMILY = FamilySpec(
    name="llama-3", space_prefix_tokens=True, base_train_steps=1150, base_lr=2.2e-3
)

MICRO_ZOO: Dict[str, ModelZooEntry] = {
    entry.name: entry
    for entry in [
        ModelZooEntry(
            name="LLaMA-2-7B",
            paper_name="LLaMA-2-7B",
            family=LLAMA2_FAMILY,
            tier="tiny",
            params_label="7B",
            base_astro_coverage=0.35,
            paper_full_instruct=50.3,
            paper_token_instruct=62.6,
            paper_token_base=51.3,
        ),
        ModelZooEntry(
            name="AstroLLaMA-2-7B-Abstract",
            paper_name="AstroLLaMA-2-7B-Abstract",
            family=LLAMA2_FAMILY,
            tier="tiny",
            params_label="7B",
            base_astro_coverage=0.35,
            cpt_dataset="abstract",
            cpt_lora=True,
            source="uTBD",
            reference="[27]",
            paper_token_base=43.5,
        ),
        ModelZooEntry(
            name="AstroLLaMA-2-7B-AIC",
            paper_name="AstroLLaMA-2-7B-AIC",
            family=LLAMA2_FAMILY,
            tier="tiny",
            params_label="7B",
            base_astro_coverage=0.35,
            cpt_dataset="aic",
            source="uTBD",
            reference="[28]",
            paper_full_instruct=41.4,
            paper_token_instruct=47.2,
            paper_token_base=44.3,
        ),
        ModelZooEntry(
            name="LLaMA-3-8B",
            paper_name="LLaMA-3-8B",
            family=LLAMA3_FAMILY,
            tier="small",
            params_label="8B",
            base_astro_coverage=0.65,
            reference="[4]",
            paper_full_instruct=72.9,
            paper_token_instruct=73.6,
            paper_token_base=72.0,
        ),
        ModelZooEntry(
            name="AstroLLaMA-3-8B-AIC",
            paper_name="AstroLLaMA-3-8B-AIC",
            family=LLAMA3_FAMILY,
            tier="small",
            params_label="8B",
            base_astro_coverage=0.65,
            cpt_dataset="aic",
            source="AstroMLab",
            reference="This Study",
            paper_full_instruct=61.8,
            paper_token_instruct=68.4,
            paper_token_base=71.9,
        ),
        ModelZooEntry(
            name="AstroLLaMA-3-8B-Summary",
            paper_name="AstroLLaMA-3-8B-Summary",
            family=LLAMA3_FAMILY,
            tier="small",
            params_label="8B",
            base_astro_coverage=0.65,
            cpt_dataset="summary",
            source="AstroMLab",
            reference="This Study",
            paper_full_instruct=69.0,
            paper_token_instruct=70.9,
            paper_token_base=72.3,
        ),
        ModelZooEntry(
            name="LLaMA-2-70B",
            paper_name="LLaMA-2-70B",
            family=LLAMA2_FAMILY,
            tier="large",
            params_label="70B",
            base_astro_coverage=0.68,
            paper_full_instruct=70.7,
            paper_token_instruct=71.4,
            paper_token_base=73.9,
        ),
        ModelZooEntry(
            name="AstroLLaMA-2-70B-AIC",
            paper_name="AstroLLaMA-2-70B-AIC",
            family=LLAMA2_FAMILY,
            tier="large",
            params_label="70B",
            base_astro_coverage=0.68,
            cpt_dataset="aic",
            source="AstroMLab",
            reference="This Study",
            paper_full_instruct=64.7,
            paper_token_instruct=75.4,
            paper_token_base=76.0,
        ),
    ]
}


def zoo_entries() -> List[ModelZooEntry]:
    """All Table-I rows in the paper's presentation order."""
    order = [
        "LLaMA-2-7B",
        "AstroLLaMA-2-7B-AIC",
        "AstroLLaMA-2-7B-Abstract",
        "LLaMA-3-8B",
        "AstroLLaMA-3-8B-AIC",
        "AstroLLaMA-3-8B-Summary",
        "LLaMA-2-70B",
        "AstroLLaMA-2-70B-AIC",
    ]
    return [MICRO_ZOO[name] for name in order]


def get_entry(name: str) -> ModelZooEntry:
    if name not in MICRO_ZOO:
        raise KeyError(f"unknown zoo entry {name!r}; known: {sorted(MICRO_ZOO)}")
    return MICRO_ZOO[name]
