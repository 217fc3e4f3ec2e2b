"""Deterministic RNG derivation.

All stochastic components take an integer seed (or an ``np.random.Generator``)
and derive child streams through :func:`derive_seed` / :func:`spawn_rngs`.
Derivation hashes a namespace string together with the parent seed so that

* the same (seed, name) pair always yields the same stream, and
* distinct subsystems get statistically independent streams even when the
  user passes the same top-level seed everywhere.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Union

import numpy as np

SeedLike = Union[int, np.random.Generator]

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, *names: Union[str, int]) -> int:
    """Derive a 64-bit child seed from ``seed`` and a namespace path.

    The derivation is a SHA-256 hash of the parent seed and each path
    component, so it is stable across processes and Python versions
    (unlike ``hash``).
    """
    h = hashlib.sha256()
    h.update(int(seed).to_bytes(16, "little", signed=True))
    for name in names:
        part = str(name).encode("utf-8")
        h.update(len(part).to_bytes(4, "little"))
        h.update(part)
    return int.from_bytes(h.digest()[:8], "little") & _MASK64


def new_rng(seed: SeedLike, *names: Union[str, int]) -> np.random.Generator:
    """Build a ``Generator`` from a seed (optionally namespaced) or pass one through.

    If ``seed`` is already a Generator it is returned unchanged; namespacing
    then has no effect (the caller owns the stream).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if names:
        seed = derive_seed(int(seed), *names)
    return np.random.default_rng(int(seed) & _MASK64)


def spawn_rngs(seed: int, names: Iterable[str]) -> Dict[str, np.random.Generator]:
    """Spawn one independent generator per name, all derived from ``seed``."""
    return {name: new_rng(seed, name) for name in names}
