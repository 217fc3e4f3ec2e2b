"""Shared utilities: seeded RNG management.

Everything in the reproduction is deterministic given a seed; these helpers
centralise how seeds are derived so that independent subsystems (corpus
generation, model init, data shuffling) never share RNG streams by accident.
"""

from repro.utils.rng import derive_seed, new_rng, spawn_rngs

__all__ = ["derive_seed", "new_rng", "spawn_rngs"]
