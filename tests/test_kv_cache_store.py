"""PrefixCacheStore LRU semantics + the REPRO_DEBUG_CACHE mutator matrix.

Two suites ride on top of the basic store tests in ``test_kv_cache.py``:

* **LRU under interleaved fork/trim** — ``match`` refreshes an entry's
  recency, so a hot scaffold survives evictions triggered by later
  ``put`` calls, and zero-copy forks taken at arbitrary trim lengths
  between store operations never perturb the cached parent arrays;
* **debug-guard mutator matrix** — with ``REPRO_DEBUG_CACHE=1`` every
  in-place write class that lint rule R1 recognizes statically
  (subscript store through a k/v key, augmented assignment, ``.fill()``,
  ``np.copyto``, ``out=``) raises at runtime on a forked cache, so the
  env guard and the lint rule enforce the same attention contract.
"""

import numpy as np
import pytest

from repro.model import (
    ModelConfig,
    PrefixCache,
    PrefixCacheStore,
    TransformerLM,
    cache_length,
    fork_cache,
)


def small_model(seed=0, vocab=64, max_seq_len=64):
    return TransformerLM(
        ModelConfig(
            vocab_size=vocab, d_model=32, n_layers=2, n_heads=4,
            max_seq_len=max_seq_len,
        ),
        seed=seed,
    )


def snapshot(cache):
    """Deep copy of every cached tensor, for before/after comparisons."""
    return [
        {key: layer[key].copy() for key in ("k", "v")} for layer in cache
    ]


def assert_cache_equal(cache, saved):
    assert len(cache) == len(saved)
    for layer, ref in zip(cache, saved):
        for key in ("k", "v"):
            np.testing.assert_array_equal(layer[key], ref[key])


class TestStoreLRU:
    """match() refreshes recency; put() evicts the least recent entry."""

    def test_eviction_is_fifo_without_matches(self):
        model = small_model()
        store = PrefixCacheStore(max_entries=3)
        entries = [store.put(model.prefill([i, i + 1])) for i in (1, 3, 5, 7)]
        assert len(store) == 3
        assert store.match([1, 2, 9]) is None  # oldest entry gone
        for entry, ids in zip(entries[1:], ([3, 4, 9], [5, 6, 9], [7, 8, 9])):
            matched = store.match(ids)
            assert matched is not None and matched[0] is entry

    def test_match_refreshes_lru_position(self):
        model = small_model()
        store = PrefixCacheStore(max_entries=2)
        hot = store.put(model.prefill([1, 2, 3]))
        store.put(model.prefill([4, 5, 6]))
        # touching `hot` moves it to the most-recent slot ...
        entry, overlap = store.match([1, 2, 3, 9])
        assert entry is hot and overlap == 3
        # ... so the next eviction removes the *untouched* entry instead
        store.put(model.prefill([7, 8, 9]))
        assert store.match([4, 5, 6, 9]) is None
        refreshed = store.match([1, 2, 3, 9])
        assert refreshed is not None and refreshed[0] is hot

    def test_repeated_matches_keep_entry_alive_across_evictions(self):
        model = small_model()
        store = PrefixCacheStore(max_entries=2)
        scaffold = store.put(model.prefill([10, 11, 12, 13]))
        for step in range(4):
            store.put(model.prefill([20 + step, 21 + step]))
            matched = store.match([10, 11, 12, 13, 14])
            assert matched is not None and matched[0] is scaffold, f"step {step}"
        assert len(store) == 2

    def test_put_dedupes_identical_prefix(self):
        """Re-putting an identical prefix refreshes the existing entry
        instead of evicting a distinct one."""
        model = small_model()
        store = PrefixCacheStore(max_entries=2)
        scaffold = store.put(model.prefill([1, 2, 3]))
        other = store.put(model.prefill([4, 5, 6]))
        again = store.put(model.prefill([1, 2, 3]))  # identical token ids
        assert again is scaffold  # the stored entry, not the new prefill
        assert len(store) == 2
        assert store.evictions == 0
        # both originals still matchable — nothing got evicted
        assert store.match([4, 5, 6, 9])[0] is other
        assert store.match([1, 2, 3, 9])[0] is scaffold

    def test_put_dedupe_refreshes_lru_position(self):
        model = small_model()
        store = PrefixCacheStore(max_entries=2)
        scaffold = store.put(model.prefill([1, 2, 3]))
        store.put(model.prefill([4, 5, 6]))
        store.put(model.prefill([1, 2, 3]))  # dedupe: scaffold now most recent
        store.put(model.prefill([7, 8, 9]))  # evicts [4,5,6], not the scaffold
        assert store.match([4, 5, 6, 9]) is None
        assert store.match([1, 2, 3, 9])[0] is scaffold
        assert store.evictions == 1

    def test_eviction_counter_and_stats_snapshot(self):
        model = small_model()
        store = PrefixCacheStore(max_entries=2)
        for ids in ([1, 2], [3, 4], [5, 6], [7, 8]):
            store.put(model.prefill(ids))
        assert store.evictions == 2
        assert store.match([7, 8, 9]) is not None
        assert store.match([90, 91]) is None
        assert store.stats() == {
            "entries": 2,
            "hits": 1,
            "misses": 1,
            "evictions": 2,
        }

    def test_hits_misses_accounting_interleaved(self):
        model = small_model()
        store = PrefixCacheStore(max_entries=2)
        store.put(model.prefill([1, 2]))
        assert store.match([1, 2, 3]) is not None
        assert store.match([40, 41]) is None
        store.put(model.prefill([5, 6]))
        assert store.match([5, 6, 7]) is not None
        assert store.match([2, 1, 5]) is None  # no entry shares its first token
        assert (store.hits, store.misses) == (2, 2)


class TestInterleavedForkTrim:
    """Forks at varying trims/batch sizes never disturb stored parents."""

    def test_fork_trim_sequence_leaves_parents_intact(self):
        model = small_model()
        store = PrefixCacheStore(max_entries=3)
        ids_a = [1, 2, 3, 4, 5, 6]
        ids_b = [1, 2, 9, 10]
        a = store.put(model.prefill(ids_a))
        b = store.put(model.prefill(ids_b))
        saved_a, saved_b = snapshot(a.cache), snapshot(b.cache)

        # interleave matches, trimmed forks and broadcast forks
        forks = []
        for length in (2, 4, 6):
            entry, overlap = store.match(ids_a[:length] + [50])
            assert entry is a and overlap == length
            forks.append(entry.fork(batch_size=3, length=length))
        forks.append(b.fork(batch_size=1, length=3))
        store.put(model.prefill([30, 31]))  # triggers an eviction mid-sequence

        for length, fork in zip((2, 4, 6, 3), forks):
            assert cache_length(fork) == length
        assert_cache_equal(a.cache, saved_a)
        assert_cache_equal(b.cache, saved_b)

    def test_trimmed_fork_is_zero_copy_view_of_parent_slice(self):
        model = small_model(seed=2)
        ids = [3, 1, 4, 1, 5, 9, 2, 6]
        full = model.prefill(ids)
        trimmed = full.fork(batch_size=1, length=5)
        for layer, parent in zip(trimmed, full.cache):
            for key in ("k", "v"):
                np.testing.assert_array_equal(
                    layer[key], parent[key][:, :, :5, :]
                )
                assert np.shares_memory(layer[key], parent[key])

    def test_extending_one_fork_leaves_siblings_and_parent_alone(self):
        model = small_model(seed=1)
        pc = model.prefill([7, 8, 9, 10])
        saved = snapshot(pc.cache)
        left = pc.fork(batch_size=1, length=4)
        right = pc.fork(batch_size=1, length=2)
        saved_right = snapshot(right)
        model.forward(np.asarray([[11, 12]]), start_pos=4, cache=left)
        assert cache_length(left) == 6
        assert_cache_equal(pc.cache, saved)
        assert_cache_equal(right, saved_right)

    def test_fork_length_beyond_prefix_raises(self):
        model = small_model()
        pc = model.prefill([1, 2, 3])
        with pytest.raises(ValueError):
            pc.fork(length=4)

    def test_store_entries_usable_after_guarded_forks(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_CACHE", "1")
        model = small_model()
        store = PrefixCacheStore(max_entries=2)
        entry = store.put(model.prefill([1, 2, 3, 4]))
        fork = entry.fork(batch_size=2, length=3)
        assert not fork[0]["k"].flags.writeable
        # the stored parent stays writable and matchable
        assert entry.cache[0]["k"].flags.writeable
        matched = store.match([1, 2, 3, 4, 5])
        assert matched is not None and matched[0] is entry


def _layer(cache):
    return cache[0]


def mutate_subscript(layer):
    layer["k"][..., 0] = 0.0  # lint: disable=R1 (intentional violation under test)


def mutate_aug_slot(layer):
    layer["v"] += 1.0  # lint: disable=R1 (intentional violation under test)


def mutate_aug_array(layer):
    k = layer["k"]
    k *= 2.0  # lint: disable=R1 (intentional violation under test)


def mutate_fill(layer):
    layer["k"].fill(0.0)  # lint: disable=R1 (intentional violation under test)


def mutate_copyto(layer):
    np.copyto(layer["v"], 0.0)  # lint: disable=R1 (intentional violation under test)


def mutate_out_kwarg(layer):
    np.negative(layer["k"], out=layer["k"])  # lint: disable=R1 (intentional violation under test)


MUTATORS = [
    pytest.param(mutate_subscript, id="subscript-store"),
    pytest.param(mutate_aug_slot, id="augmented-kv-slot"),
    pytest.param(mutate_aug_array, id="augmented-array"),
    pytest.param(mutate_fill, id="fill-method"),
    pytest.param(mutate_copyto, id="copyto"),
    pytest.param(mutate_out_kwarg, id="out-kwarg"),
]


class TestDebugGuardMutatorMatrix:
    """Every write class R1 flags statically also raises under the guard."""

    @pytest.mark.parametrize("mutate", MUTATORS)
    def test_mutator_raises_on_forked_cache(self, monkeypatch, mutate):
        # batch_size=1 so the fork is a plain slice view: writable without
        # the guard, which isolates the guard as the thing that trips
        monkeypatch.setenv("REPRO_DEBUG_CACHE", "1")
        model = small_model()
        pc = model.prefill([1, 2, 3, 4])
        forked = fork_cache(pc.cache, batch_size=1, length=3)
        saved = snapshot(pc.cache)
        with pytest.raises(ValueError):
            mutate(_layer(forked))
        # the failed write must not have partially landed in the parent
        assert_cache_equal(pc.cache, saved)

    @pytest.mark.parametrize("mutate", MUTATORS)
    def test_mutator_succeeds_silently_without_guard(self, monkeypatch, mutate):
        # control cell: the same writes go through (and corrupt shared
        # state!) when the guard is off — which is exactly why R1 exists
        monkeypatch.delenv("REPRO_DEBUG_CACHE", raising=False)
        model = small_model()
        pc = model.prefill([1, 2, 3, 4])
        forked = fork_cache(pc.cache, batch_size=1, length=3)
        mutate(_layer(forked))  # no raise

    @pytest.mark.parametrize("mutate", MUTATORS)
    def test_mutator_raises_on_broadcast_fork(self, monkeypatch, mutate):
        monkeypatch.setenv("REPRO_DEBUG_CACHE", "1")
        model = small_model()
        pc = model.prefill([1, 2, 3, 4])
        forked = fork_cache(pc.cache, batch_size=2)
        with pytest.raises(ValueError):
            mutate(_layer(forked))

    def test_guard_accepts_any_truthy_value(self, monkeypatch):
        for on in ("1", "yes", "true", "on", "2"):
            monkeypatch.setenv("REPRO_DEBUG_CACHE", on)
            model = small_model()
            forked = model.prefill([1, 2]).fork()
            assert not forked[0]["k"].flags.writeable, f"value {on!r}"

    def test_trimmed_guarded_fork_is_read_only_at_every_layer(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_CACHE", "1")
        model = small_model()
        pc = model.prefill([5, 6, 7, 8])
        forked = fork_cache(pc.cache, batch_size=3, length=2)
        for layer in forked:
            for key in ("k", "v"):
                assert not layer[key].flags.writeable
