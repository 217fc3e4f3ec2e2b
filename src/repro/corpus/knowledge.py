"""The synthetic knowledge base.

A :class:`Fact` is an atomic (subject, quantity, value) triple plus three
*distractor* values of the same form.  Facts drive everything downstream:

* corpus generation realizes facts as sentences (several paraphrases);
* MCQ generation realizes facts as questions whose options are the correct
  value and the distractors (equal length by construction — the paper's
  option-design rule);
* evaluation measures recall: a model answers correctly iff training
  imprinted the (subject, quantity) -> value association strongly enough.

Two worlds are generated: an *astronomy* world (the specialist domain,
organized into the review-article topics of the ARAA benchmark) and a
*general* world (everyday knowledge that base models pretrain on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.utils.rng import new_rng

ANSWER_LETTERS = ("A", "B", "C", "D")


@dataclass(frozen=True)
class Fact:
    """One atomic fact with equal-form distractors."""

    fact_id: int
    domain: str  # "astro" | "general"
    topic: str  # e.g. "exoplanets"
    subject: str  # "the hot jupiter wasp 121"
    quantity: str  # "equilibrium temperature"
    correct: str  # "2500 kelvin"
    distractors: Tuple[str, str, str]

    def statement(self, variant: int = 0) -> str:
        """A declarative sentence realization (several paraphrases)."""
        forms = (
            f"the {self.quantity} of {self.subject} is {self.correct} .",
            f"{self.subject} has a {self.quantity} of {self.correct} .",
            f"measurements show that the {self.quantity} of {self.subject} is"
            f" {self.correct} .",
            f"studies find the {self.quantity} of {self.subject} to be"
            f" {self.correct} .",
        )
        return forms[variant % len(forms)]

    def question(self) -> str:
        """Cloze-form question: the statement prefix to be completed.

        Micro models cannot bridge "what is the X of Y ?" phrasing to
        declarative memory the way scale-capable LLMs do, so the benchmark
        uses completion-style questions (a common MCQ style) whose prefix
        matches the canonical statement realization.  See DESIGN.md
        ("QA-bridging realization").
        """
        return f"the {self.quantity} of {self.subject} is"

    def all_options(self) -> Tuple[str, ...]:
        return (self.correct,) + self.distractors

    def option_values_shuffled(
        self, rng: np.random.Generator
    ) -> Tuple[List[str], int]:
        """Return shuffled options and the index of the correct one."""
        options = list(self.all_options())
        order = rng.permutation(4)
        shuffled = [options[i] for i in order]
        return shuffled, int(np.argmax(order == 0))


# ---------------------------------------------------------------------------
# Topic definitions
# ---------------------------------------------------------------------------
# Each topic provides subject templates and quantity pools; values are drawn
# from the quantity's unit/value grid so distractors share form and length.

_ASTRO_TOPICS: Dict[str, Dict[str, Sequence]] = {
    "stellar evolution": {
        "subjects": [
            "red giant branch stars",
            "horizontal branch stars",
            "asymptotic giant stars",
            "classical cepheid variables",
            "rr lyrae variables",
            "wolf rayet stars",
            "o type main sequence stars",
            "t tauri stars",
            "herbig ae stars",
            "carbon stars",
            "subdwarf b stars",
            "red supergiant stars",
        ],
        "quantities": [
            ("typical surface temperature", "kelvin", (3200, 45000)),
            ("characteristic luminosity", "solar luminosities", (10, 90000)),
            ("typical main sequence lifetime", "million years", (3, 9000)),
            ("mean progenitor mass", "solar masses", (1, 60)),
        ],
    },
    "compact objects": {
        "subjects": [
            "millisecond pulsars",
            "magnetars",
            "anomalous x ray pulsars",
            "accreting neutron stars",
            "stellar mass black holes",
            "intermediate mass black holes",
            "white dwarfs in cataclysmic variables",
            "double neutron star binaries",
            "x ray bursters",
            "gamma ray burst afterglows",
        ],
        "quantities": [
            ("characteristic magnetic field", "gauss", (100000000, 900000000)),
            ("typical spin period", "milliseconds", (1, 900)),
            ("mean companion mass", "solar masses", (1, 30)),
            ("characteristic cooling age", "million years", (1, 800)),
        ],
    },
    "exoplanets": {
        "subjects": [
            "hot jupiter planets",
            "warm neptune planets",
            "super earth planets",
            "mini neptune planets",
            "circumbinary planets",
            "ultra short period planets",
            "directly imaged giant planets",
            "rogue free floating planets",
            "lava ocean planets",
            "water world planets",
        ],
        "quantities": [
            ("typical equilibrium temperature", "kelvin", (150, 4000)),
            ("mean orbital period", "days", (1, 900)),
            ("characteristic radius", "earth radii", (1, 15)),
            ("typical atmospheric scale height", "kilometers", (8, 900)),
        ],
    },
    "galaxies": {
        "subjects": [
            "local group dwarf spheroidals",
            "ultra diffuse galaxies",
            "luminous infrared galaxies",
            "barred spiral galaxies",
            "giant elliptical galaxies",
            "green pea galaxies",
            "lyman break galaxies",
            "tidal dwarf galaxies",
            "low surface brightness galaxies",
            "post starburst galaxies",
        ],
        "quantities": [
            ("typical stellar mass", "billion solar masses", (1, 900)),
            ("mean star formation rate", "solar masses per year", (1, 300)),
            ("characteristic half light radius", "kiloparsecs", (1, 30)),
            ("typical gas fraction", "percent", (5, 90)),
        ],
    },
    "cosmology": {
        "subjects": [
            "the epoch of reionization",
            "baryon acoustic oscillations",
            "the cosmic microwave background",
            "galaxy cluster counts",
            "type ia supernova surveys",
            "weak lensing shear surveys",
            "the lyman alpha forest",
            "twenty one centimeter tomography",
            "primordial nucleosynthesis",
            "the integrated sachs wolfe effect",
        ],
        "quantities": [
            ("characteristic redshift", "redshift units", (1, 30)),
            ("typical comoving scale", "megaparsecs", (5, 900)),
            ("inferred matter density", "percent of critical", (10, 90)),
            ("typical signal amplitude", "microkelvin", (1, 300)),
        ],
    },
    "interstellar medium": {
        "subjects": [
            "giant molecular clouds",
            "cold neutral medium filaments",
            "hii region complexes",
            "supernova remnant shells",
            "planetary nebula envelopes",
            "diffuse interstellar bands",
            "polycyclic aromatic hydrocarbon emission",
            "galactic cirrus clouds",
            "bok globules",
            "photodissociation regions",
        ],
        "quantities": [
            ("typical gas temperature", "kelvin", (10, 9000)),
            ("characteristic density", "particles per cubic centimeter", (1, 9000)),
            ("mean cloud mass", "thousand solar masses", (1, 900)),
            ("typical turbulent velocity", "kilometers per second", (1, 90)),
        ],
    },
    "high energy astrophysics": {
        "subjects": [
            "blazar jets",
            "active galactic nucleus coronae",
            "tidal disruption events",
            "ultraluminous x ray sources",
            "pulsar wind nebulae",
            "galactic cosmic rays",
            "fast radio bursts",
            "soft gamma repeaters",
            "x ray binaries in outburst",
            "relativistic jets from microquasars",
        ],
        "quantities": [
            ("characteristic photon energy", "kiloelectronvolts", (1, 900)),
            ("typical variability timescale", "hours", (1, 900)),
            ("mean lorentz factor", "dimensionless units", (2, 90)),
            ("typical luminosity", "thousand solar luminosities", (1, 9000)),
        ],
    },
    "solar and heliospheric physics": {
        "subjects": [
            "coronal mass ejections",
            "solar flare ribbons",
            "coronal holes",
            "the slow solar wind",
            "sunspot umbrae",
            "solar prominences",
            "the heliospheric current sheet",
            "solar energetic particle events",
            "the chromospheric network",
            "coronal loops",
        ],
        "quantities": [
            ("typical plasma temperature", "million kelvin", (1, 30)),
            ("characteristic speed", "kilometers per second", (100, 3000)),
            ("mean magnetic field strength", "gauss", (1, 3000)),
            ("typical duration", "hours", (1, 90)),
        ],
    },
}

_GENERAL_TOPICS: Dict[str, Dict[str, Sequence]] = {
    "geography": {
        "subjects": [
            "the river valdoria",
            "the river meskarun",
            "mount tellara",
            "mount brivand",
            "lake osmire",
            "lake quenneth",
            "the plains of dorvath",
            "the karstag desert",
            "the velmora highlands",
            "the straits of anbelle",
        ],
        "quantities": [
            ("total length", "kilometers", (100, 9000)),
            ("average elevation", "meters", (100, 8000)),
            ("surface area", "square kilometers", (100, 9000)),
            ("mean annual rainfall", "millimeters", (100, 3000)),
        ],
    },
    "cities": {
        "subjects": [
            "the city of marvelle",
            "the city of tobrinth",
            "the city of askavan",
            "the city of pellonor",
            "the city of drustheim",
            "the city of veyruna",
            "the city of calmoris",
            "the city of ingrade",
            "the city of soltara",
            "the city of wrenfield",
        ],
        "quantities": [
            ("population", "thousand residents", (10, 9000)),
            ("founding age", "centuries", (2, 30)),
            ("number of districts", "districts", (3, 90)),
            ("annual visitors", "thousand visitors", (10, 9000)),
        ],
    },
    "commerce": {
        "subjects": [
            "the veltran shipping company",
            "the ostrava grain exchange",
            "the mirecourt textile guild",
            "the harlan mining consortium",
            "the juniper rail network",
            "the bellweather glassworks",
            "the corvid printing house",
            "the almore salt cooperative",
            "the fennick tea traders",
            "the rowan timber union",
        ],
        "quantities": [
            ("number of employees", "thousand workers", (1, 900)),
            ("annual output", "thousand units", (10, 9000)),
            ("fleet size", "vehicles", (10, 900)),
            ("founding age", "decades", (2, 30)),
        ],
    },
    "nature": {
        "subjects": [
            "the crested moonfinch",
            "the silver backed river otter",
            "the banded glass frog",
            "the dusky antelope",
            "the great plains tortoise",
            "the copper winged dragonfly",
            "the marbled cave salamander",
            "the white tufted lynx",
            "the reed dwelling heron",
            "the spotted orchard beetle",
        ],
        "quantities": [
            ("average lifespan", "years", (1, 90)),
            ("typical body mass", "kilograms", (1, 900)),
            ("population estimate", "thousand individuals", (1, 900)),
            ("average clutch size", "offspring", (1, 30)),
        ],
    },
}


def _nice_values(
    lo: float, hi: float, rng: np.random.Generator, n: int = 4
) -> List[int]:
    """Draw ``n`` distinct round-ish values spanning the grid [lo, hi].

    Values are spread log-uniformly then rounded to two significant digits,
    which keeps all options the same *kind* of number (the paper's equal-
    form rule) while staying distinguishable.
    """
    out: List[int] = []
    attempts = 0
    while len(out) < n and attempts < 200:
        attempts += 1
        x = float(np.exp(rng.uniform(np.log(lo), np.log(hi + 1))))
        mag = 10 ** max(int(np.floor(np.log10(max(x, 1)))) - 1, 0)
        v = int(round(x / mag) * mag)
        v = max(v, int(lo))
        if v not in out:
            out.append(v)
    if len(out) < n:  # tiny ranges: fall back to linear spread
        out = list(dict.fromkeys(out + list(range(int(lo), int(lo) + n * 2))))[:n]
    return out


class KnowledgeBase:
    """A frozen collection of facts, indexed by topic."""

    def __init__(self, facts: Sequence[Fact], domain: str) -> None:
        self.facts: List[Fact] = list(facts)
        self.domain = domain
        self.by_topic: Dict[str, List[Fact]] = {}
        for f in self.facts:
            self.by_topic.setdefault(f.topic, []).append(f)

    def __len__(self) -> int:
        return len(self.facts)

    @property
    def topics(self) -> List[str]:
        return sorted(self.by_topic)

    def facts_for_topic(self, topic: str) -> List[Fact]:
        return list(self.by_topic.get(topic, []))

    def split(self, fraction: float, seed: int) -> Tuple["KnowledgeBase", "KnowledgeBase"]:
        """Deterministically split facts into two disjoint bases."""
        if not 0 < fraction < 1:
            raise ValueError("fraction must be in (0, 1)")
        rng = new_rng(seed, "kb-split")
        order = rng.permutation(len(self.facts))
        cut = int(round(len(self.facts) * fraction))
        first = [self.facts[i] for i in order[:cut]]
        second = [self.facts[i] for i in order[cut:]]
        return KnowledgeBase(first, self.domain), KnowledgeBase(second, self.domain)


def _build_facts(
    topics: Dict[str, Dict[str, Sequence]],
    domain: str,
    n_facts: int,
    seed: int,
    subject_multiplier: int,
) -> List[Fact]:
    """Enumerate (subject-instance, quantity) pairs round-robin over topics.

    ``subject_multiplier`` clones each subject template into numbered
    instances ("... group 2") so arbitrarily many distinct facts exist.
    """
    rng = new_rng(seed, domain, "facts")
    combos: List[Tuple[str, str, Tuple[str, str, Tuple[float, float]]]] = []
    for topic, spec in topics.items():
        for rep in range(subject_multiplier):
            for subj in spec["subjects"]:
                subject = subj if rep == 0 else f"{subj} of group {rep + 1}"
                for quantity in spec["quantities"]:
                    combos.append((topic, subject, quantity))
    if n_facts > len(combos):
        raise ValueError(
            f"requested {n_facts} facts but only {len(combos)} combos exist; "
            f"raise subject_multiplier"
        )
    order = rng.permutation(len(combos))[:n_facts]
    facts: List[Fact] = []
    for fid, ci in enumerate(sorted(order)):
        topic, subject, (qname, unit, (lo, hi)) = combos[ci]
        values = _nice_values(lo, hi, new_rng(seed, domain, "values", fid))
        rendered = [f"{v} {unit}" for v in values]
        facts.append(
            Fact(
                fact_id=fid,
                domain=domain,
                topic=topic,
                subject=subject,
                quantity=qname,
                correct=rendered[0],
                distractors=(rendered[1], rendered[2], rendered[3]),
            )
        )
    return facts


def make_astro_knowledge(
    n_facts: int = 1200, seed: int = 0, subject_multiplier: int = 4
) -> KnowledgeBase:
    """The specialist astronomy world (drives astro-ph and the MCQ benchmark)."""
    return KnowledgeBase(
        _build_facts(_ASTRO_TOPICS, "astro", n_facts, seed, subject_multiplier),
        "astro",
    )


def make_general_knowledge(
    n_facts: int = 800, seed: int = 0, subject_multiplier: int = 4
) -> KnowledgeBase:
    """The everyday world base models pretrain on."""
    return KnowledgeBase(
        _build_facts(_GENERAL_TOPICS, "general", n_facts, seed, subject_multiplier),
        "general",
    )
