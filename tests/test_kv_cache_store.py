"""PrefixCacheStore LRU semantics + the read-only cache mutator matrix.

Two suites ride on top of the basic store tests in ``test_kv_cache.py``:

* **LRU under interleaved fork/trim** — ``match`` refreshes an entry's
  recency, so a hot scaffold survives evictions triggered by later
  ``put`` calls, and zero-copy forks taken at arbitrary trim lengths
  between store operations never perturb the cached parent arrays;
* **read-only mutator matrix** — every in-place write class that lint
  rule R1 recognizes statically (subscript store through a k/v key,
  augmented assignment, ``.fill()``, ``np.copyto``, ``out=``) raises at
  runtime on a store entry's own cache, a trimmed fork, a decode
  stream's cache after ``advance()`` and a prefill's ``last_logits``, so
  the read-only flags and the lint rule enforce the same attention
  contract.
"""

import numpy as np
import pytest

from repro.model import (
    GenerationConfig,
    ModelConfig,
    PrefixCacheStore,
    TransformerLM,
    fork_cache,
)
from repro.model.sampling import DecodeStream, open_prompt


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

    def test_open_prompt_never_stores_a_duplicate(self):
        """open_prompt puts a prefill only on a miss, so the store holds
        distinct token runs even when prompts repeat and entries evict."""
        model = small_model()
        store = PrefixCacheStore(max_entries=2)
        prompts = [[1, 2, 3], [4, 5], [1, 2, 3], [1, 2, 3, 7], [8], [4, 5], [1, 2, 3]]
        for prompt in prompts:
            open_prompt(model, prompt, store)
            runs = [tuple(entry.token_ids) for entry in store._entries]
            assert len(runs) == len(set(runs))
        assert store.evictions == 3  # [1, 2, 3] came back after its eviction

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
    """Forks at varying trims never disturb stored parents."""

    def test_fork_trim_sequence_leaves_parents_intact(self):
        model = small_model()
        store = PrefixCacheStore(max_entries=3)
        ids_a = [1, 2, 3, 4, 5, 6]
        ids_b = [1, 2, 9, 10]
        a = store.put(model.prefill(ids_a))
        b = store.put(model.prefill(ids_b))
        saved_a, saved_b = snapshot(a.cache), snapshot(b.cache)

        # interleave matches and trimmed forks
        forks = []
        for length in (2, 4, 6):
            entry, overlap = store.match(ids_a[:length] + [50])
            assert entry is a and overlap == length
            forks.append(entry.fork(length=length))
        forks.append(b.fork(length=3))
        store.put(model.prefill([30, 31]))  # triggers an eviction mid-sequence

        for length, fork in zip((2, 4, 6, 3), forks):
            assert fork[0]["k"].shape[2] == length
        assert_cache_equal(a.cache, saved_a)
        assert_cache_equal(b.cache, saved_b)

    def test_trimmed_fork_is_zero_copy_view_of_parent_slice(self):
        model = small_model(seed=2)
        ids = [3, 1, 4, 1, 5, 9, 2, 6]
        full = model.prefill(ids)
        trimmed = full.fork(length=5)
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
        left = pc.fork(length=4)
        right = pc.fork(length=2)
        saved_right = snapshot(right)
        model.forward(np.asarray([[11, 12]]), start_pos=4, cache=left)
        assert left[0]["k"].shape[2] == 6
        assert_cache_equal(pc.cache, saved)
        assert_cache_equal(right, saved_right)

    def test_fork_length_beyond_prefix_raises(self):
        model = small_model()
        pc = model.prefill([1, 2, 3])
        with pytest.raises(ValueError):
            pc.fork(length=4)

    def test_store_entries_usable_after_guarded_forks(self):
        model = small_model()
        store = PrefixCacheStore(max_entries=2)
        entry = store.put(model.prefill([1, 2, 3, 4]))
        fork = entry.fork(length=3)
        assert not fork[0]["k"].flags.writeable
        # the stored parent is read-only too, and still matchable
        assert not entry.cache[0]["k"].flags.writeable
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


def decode_stream_cache(model, prompt):
    """A decode stream's cache after one ``advance()`` past an exact
    store hit."""
    store = PrefixCacheStore()
    store.put(model.prefill(prompt))
    opened = open_prompt(model, prompt, store)
    stream = DecodeStream(model, opened, GenerationConfig(max_new_tokens=2), 2)
    stream.advance(5)
    return stream.cache


class TestDebugGuardMutatorMatrix:
    """Every write class R1 flags statically also raises at runtime."""

    @pytest.mark.parametrize("mutate", MUTATORS)
    def test_mutator_raises_on_forked_cache(self, mutate):
        model = small_model()
        pc = model.prefill([1, 2, 3, 4])
        forked = fork_cache(pc.cache, length=3)
        saved = snapshot(pc.cache)
        with pytest.raises(ValueError):
            mutate(_layer(forked))
        # the failed write must not have partially landed in the parent
        assert_cache_equal(pc.cache, saved)

    @pytest.mark.parametrize("mutate", MUTATORS)
    def test_mutator_raises_on_store_entry(self, mutate):
        model = small_model()
        store = PrefixCacheStore()
        entry = store.put(model.prefill([1, 2, 3, 4]))
        saved = snapshot(entry.cache)
        with pytest.raises(ValueError):
            mutate(_layer(entry.cache))
        assert_cache_equal(entry.cache, saved)

    @pytest.mark.parametrize("mutate", MUTATORS)
    def test_mutator_raises_on_decode_stream_cache(self, mutate):
        cache = decode_stream_cache(small_model(), [1, 2, 3, 4])
        saved = snapshot(cache)
        with pytest.raises(ValueError):
            mutate(_layer(cache))
        assert_cache_equal(cache, saved)

    @pytest.mark.parametrize("mutate", MUTATORS)
    def test_mutator_raises_on_last_logits(self, mutate):
        pc = small_model().prefill([1, 2, 3, 4])
        saved = pc.last_logits.copy()
        with pytest.raises(ValueError):
            mutate({"k": pc.last_logits, "v": pc.last_logits})
        np.testing.assert_array_equal(pc.last_logits, saved)

    @pytest.mark.parametrize("mutate", MUTATORS)
    def test_mutator_succeeds_silently_without_guard(self, mutate):
        # control cell: the same writes go through on a writable copy of
        # the fork, so the read-only flag is what makes them raise
        model = small_model()
        pc = model.prefill([1, 2, 3, 4])
        forked = _layer(fork_cache(pc.cache, length=3))
        mutate({key: np.array(forked[key]) for key in ("k", "v")})  # no raise

    def test_trimmed_guarded_fork_is_read_only_at_every_layer(self):
        model = small_model()
        pc = model.prefill([5, 6, 7, 8])
        forked = fork_cache(pc.cache, length=2)
        for layer in forked:
            for key in ("k", "v"):
                assert not layer[key].flags.writeable
