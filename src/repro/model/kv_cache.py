"""KV-cache reuse primitives for shared-prompt evaluation.

Benchmarking 4,425 MCQs against one model re-encodes the same two-shot
prompt scaffold thousands of times.  This module makes the scaffold a
first-class, reusable artifact:

* :func:`fork_cache` — cheap (zero-copy) per-call views of a prefilled
  cache, optionally trimmed to a shorter prefix;
* :class:`PrefixCache` — a prefilled prompt prefix: the token ids, the
  per-layer K/V tensors, and the next-token logits at the prefix
  boundary;
* :class:`PrefixCacheStore` — a small LRU keyed on token ids that finds
  the longest reusable prefix for an incoming prompt.

Safety relies on one invariant of :class:`~repro.model.attention.
MultiHeadAttention`: an incremental forward *rebinds* ``cache["k"]`` /
``cache["v"]`` to freshly concatenated arrays and never writes into the
existing ones.  Forked caches may therefore share (trimmed) slice views
of the parent's tensors.  Lint rule R1 checks the invariant statically;
at runtime every K/V array a cache stores, and a prefill's
``last_logits``, is non-writeable from the moment it is stored.  Any view
of them (a fork, a trim, the prefix a batched score reads) is read-only
too, so an in-place write raises ``ValueError`` at the offending line
instead of silently changing every reader of a shared prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Per-layer attention cache: ``cache[layer]["k"|"v"]`` is ``(B, H, T, hd)``.
KVCache = List[Dict[str, np.ndarray]]


def fork_cache(cache: KVCache, length: Optional[int] = None) -> KVCache:
    """A child cache sharing the parent's K/V storage.

    The child may be extended by further incremental forwards without
    touching the parent (attention rebinds, never mutates).  ``length``
    trims the fork to the first ``length`` positions.  Every view is as
    read-only as the parent's arrays.
    """
    forked: KVCache = []
    for layer in cache:
        if "k" not in layer:
            forked.append({})
            continue
        k, v = layer["k"], layer["v"]
        if length is not None:
            k = k[:, :, :length, :]
            v = v[:, :, :length, :]
        forked.append({"k": k, "v": v})
    return forked


def common_prefix_len(a: Sequence[int], b: Sequence[int]) -> int:
    """Length of the longest shared leading run of ``a`` and ``b``."""
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n


def shared_prefix(sequences: Sequence[Sequence[int]]) -> List[int]:
    """Longest token prefix shared by *all* sequences (empty list if none)."""
    if not sequences:
        return []
    shortest = min(sequences, key=len)
    n = len(shortest)
    for seq in sequences:
        n = common_prefix_len(shortest[:n], seq)
        if n == 0:
            return []
    return list(shortest[:n])


@dataclass
class PrefixCache:
    """A prefilled prompt prefix, reusable across many continuations.

    ``last_logits`` are the next-token logits *after* the final prefix
    token — callers whose whole prompt hits the cache need no forward at
    all.
    """

    token_ids: Tuple[int, ...]
    cache: KVCache
    last_logits: Optional[np.ndarray] = None

    @property
    def length(self) -> int:
        return len(self.token_ids)

    def overlap(self, token_ids: Sequence[int]) -> int:
        """How many leading tokens of ``token_ids`` this prefix covers."""
        return common_prefix_len(self.token_ids, token_ids)

    def fork(self, length: Optional[int] = None) -> KVCache:
        if length is not None and length > self.length:
            raise ValueError(f"length {length} exceeds prefix length {self.length}")
        return fork_cache(self.cache, length=length)


class PrefixCacheStore:
    """A tiny LRU of :class:`PrefixCache` entries keyed by token ids.

    ``match`` returns the entry with the longest overlap against an
    incoming prompt — the common case is one scaffold entry serving an
    entire benchmark run.
    """

    def __init__(self, max_entries: int = 4) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: List[PrefixCache] = []
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def match(self, token_ids: Sequence[int]) -> Optional[Tuple[PrefixCache, int]]:
        """Best ``(entry, overlap)`` for ``token_ids``, or None if no entry
        shares even its first token."""
        best: Optional[Tuple[PrefixCache, int]] = None
        for entry in self._entries:
            n = entry.overlap(token_ids)
            if n > (best[1] if best else 0):
                best = (entry, n)
        if best is None:
            self.misses += 1
            return None
        self.hits += 1
        # refresh LRU position
        self._entries.remove(best[0])
        self._entries.append(best[0])
        return best

    def put(self, prefix: PrefixCache) -> PrefixCache:
        """Store ``prefix``, evicting the least recent entry if full.

        :func:`~repro.model.sampling.open_prompt` stores a prefill only
        after :meth:`match` found no entry sharing its first token, so no
        stored entry can equal ``prefix``.
        """
        self._entries.append(prefix)
        if len(self._entries) > self.max_entries:
            self._entries.pop(0)
            self.evictions += 1
        return prefix

    def stats(self) -> Dict[str, int]:
        """Counter snapshot (plain dict, e.g. for ``serve.metrics``)."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
