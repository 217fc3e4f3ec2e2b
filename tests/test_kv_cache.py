"""Prefix-cache / batched-scoring tests for the shared-prompt eval path."""

import numpy as np
import pytest

from repro.model import (
    GenerationConfig,
    ModelConfig,
    PrefixCacheStore,
    TransformerLM,
    cache_length,
    common_prefix_len,
    fork_cache,
    generate,
    shared_prefix,
)


def small_model(seed=0, vocab=120, max_seq_len=96):
    return TransformerLM(
        ModelConfig(
            vocab_size=vocab, d_model=32, n_layers=2, n_heads=4,
            max_seq_len=max_seq_len,
        ),
        seed=seed,
    )


def random_ids(rng, n, vocab=120):
    return rng.integers(1, vocab, size=n).tolist()


class TestHelpers:
    def test_common_prefix_len(self):
        assert common_prefix_len([1, 2, 3], [1, 2, 9]) == 2
        assert common_prefix_len([1, 2], [1, 2, 3]) == 2
        assert common_prefix_len([5], [6]) == 0
        assert common_prefix_len([], [1]) == 0

    def test_shared_prefix(self):
        assert shared_prefix([[1, 2, 3, 4], [1, 2, 3, 9], [1, 2, 7]]) == [1, 2]
        assert shared_prefix([[1, 2], [3]]) == []
        assert shared_prefix([]) == []
        assert shared_prefix([[4, 5, 6]]) == [4, 5, 6]

    def test_cache_length(self):
        model = small_model()
        assert cache_length(model.new_cache()) == 0
        pc = model.prefill([1, 2, 3, 4, 5])
        assert cache_length(pc.cache) == 5


class TestFork:
    def test_fork_trims_and_broadcasts(self):
        model = small_model()
        pc = model.prefill([1, 2, 3, 4, 5, 6])
        forked = pc.fork(batch_size=3, length=4)
        for layer in forked:
            assert layer["k"].shape[0] == 3
            assert layer["k"].shape[2] == 4
        with pytest.raises(ValueError):
            pc.fork(length=7)

    def test_extending_fork_leaves_parent_intact(self):
        model = small_model()
        rng = np.random.default_rng(0)
        ids = random_ids(rng, 10)
        pc = model.prefill(ids)
        child = pc.fork(batch_size=1)
        model.forward(np.asarray([[7, 8]]), start_pos=pc.length, cache=child)
        assert cache_length(child) == pc.length + 2
        assert cache_length(pc.cache) == pc.length

    def test_fork_rejects_multi_row_broadcast(self):
        model = small_model()
        pc = model.prefill([1, 2, 3])
        two = pc.fork(batch_size=2)
        with pytest.raises(ValueError):
            fork_cache(two, batch_size=3)


class TestPrefillEquivalence:
    def test_prefix_plus_suffix_matches_full_forward(self):
        model = small_model(seed=1)
        rng = np.random.default_rng(2)
        prefix_ids = random_ids(rng, 30)
        pc = model.prefill(prefix_ids)
        for n in (1, 4, 9):
            suffix = random_ids(rng, n)
            full = model.next_token_logits(np.asarray(prefix_ids + suffix))
            cached = model.forward(
                np.asarray(suffix, dtype=np.int64),
                start_pos=pc.length,
                cache=pc.fork(batch_size=1),
            )[0, -1]
            np.testing.assert_allclose(cached, full, atol=1e-5)

    def test_prefill_last_logits_match(self):
        model = small_model(seed=1)
        ids = [3, 4, 5, 6]
        pc = model.prefill(ids)
        np.testing.assert_allclose(
            pc.last_logits, model.next_token_logits(np.asarray(ids)), atol=1e-6
        )

    def test_empty_prefill(self):
        model = small_model()
        pc = model.prefill([])
        assert pc.length == 0 and pc.last_logits is None


class TestBatchedNextTokenLogits:
    def test_matches_sequential_with_ragged_suffixes(self):
        model = small_model(seed=3)
        rng = np.random.default_rng(4)
        prefix_ids = random_ids(rng, 25)
        pc = model.prefill(prefix_ids)
        suffixes = [random_ids(rng, int(n)) for n in rng.integers(1, 12, size=9)]
        suffixes.append([])  # whole prompt served by the cache
        batched = model.next_token_logits_many(suffixes, prefix=pc, pad_id=0)
        assert batched.shape == (len(suffixes), model.config.vocab_size)
        for row, suffix in zip(batched, suffixes):
            seq = model.next_token_logits(np.asarray(prefix_ids + suffix))
            np.testing.assert_allclose(row, seq, atol=1e-5)

    def test_no_prefix_batch(self):
        model = small_model(seed=3)
        rng = np.random.default_rng(5)
        prompts = [random_ids(rng, int(n)) for n in rng.integers(2, 10, size=5)]
        batched = model.next_token_logits_many(prompts, pad_id=0)
        for row, prompt in zip(batched, prompts):
            np.testing.assert_allclose(
                row, model.next_token_logits(np.asarray(prompt)), atol=1e-5
            )

    def test_empty_suffix_without_prefix_raises(self):
        model = small_model()
        with pytest.raises(ValueError):
            model.next_token_logits_many([[]])

    def test_empty_batch(self):
        model = small_model()
        out = model.next_token_logits_many([])
        assert out.shape == (0, model.config.vocab_size)


class TestGenerateWithPrefix:
    """generate(store=...) reuses what the store covers and keeps a miss."""

    def test_same_tokens_as_cold_generate(self):
        model = small_model(seed=6)
        rng = np.random.default_rng(7)
        scaffold = random_ids(rng, 20)
        store = PrefixCacheStore()
        store.put(model.prefill(scaffold))
        for _ in range(3):
            prompt = scaffold + random_ids(rng, 6)
            cold = generate(model, prompt, GenerationConfig(max_new_tokens=8))
            warm = generate(
                model, prompt, GenerationConfig(max_new_tokens=8), store=store
            )
            assert cold == warm
        # every prompt forked the scaffold; a partial cover is not stored
        assert store.hits == 3 and len(store) == 1

    def test_whole_prompt_covered_matches_cold_bit_for_bit(self):
        """An exact-cover entry runs no forward, and every step's logits
        are bit-equal to cold generation's."""
        model = small_model(seed=6)
        prompt = [1, 2, 3, 4, 5]
        store = PrefixCacheStore()
        store.put(model.prefill(prompt))
        config = GenerationConfig(max_new_tokens=5, temperature=0.9, seed=4)
        cold_steps, warm_steps = [], []
        cold = generate(model, prompt, config, cold_steps.append)
        warm = generate(model, prompt, config, warm_steps.append, store=store)
        assert cold == warm and len(cold_steps) == len(warm_steps) == 5
        assert all(np.array_equal(a, b) for a, b in zip(cold_steps, warm_steps))

    def test_disjoint_prefix_is_ignored(self):
        model = small_model(seed=6)
        store = PrefixCacheStore()
        store.put(model.prefill([50, 51, 52]))
        cold = generate(model, [1, 2, 3], GenerationConfig(max_new_tokens=4))
        warm = generate(
            model, [1, 2, 3], GenerationConfig(max_new_tokens=4), store=store
        )
        assert cold == warm
        assert store.misses == 1 and len(store) == 2

    def test_miss_prefill_is_kept_and_reused(self):
        model = small_model(seed=6)
        prompt = [9, 8, 7, 6]
        config = GenerationConfig(max_new_tokens=4, temperature=0.7, seed=2)
        store = PrefixCacheStore()
        first_steps, second_steps = [], []
        first = generate(model, prompt, config, first_steps.append, store=store)
        assert store.misses == 1 and len(store) == 1
        second = generate(model, prompt, config, second_steps.append, store=store)
        assert first == second and store.hits == 1
        assert all(np.array_equal(a, b) for a, b in zip(first_steps, second_steps))


class TestDebugCacheGuard:
    """REPRO_DEBUG_CACHE: the runtime counterpart of lint rule R1."""

    def test_forked_views_are_read_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_CACHE", "1")
        model = small_model()
        pc = model.prefill([1, 2, 3, 4])
        forked = pc.fork(batch_size=2)
        with pytest.raises(ValueError):
            # lint: disable=R1 (intentional violation: proves the guard trips)
            forked[0]["k"][..., 0] = 0.0
        # the parent's own arrays keep their flags
        assert pc.cache[0]["k"].flags.writeable

    def test_guard_is_opt_in(self, monkeypatch):
        for off in ("0", "false", "off", ""):
            monkeypatch.setenv("REPRO_DEBUG_CACHE", off)
            model = small_model()
            forked = model.prefill([1, 2]).fork()
            assert forked[0]["k"].flags.writeable

    def test_extension_still_works_under_guard(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_CACHE", "1")
        model = small_model()
        pc = model.prefill([1, 2, 3])
        child = pc.fork(batch_size=1)
        model.forward(np.asarray([[7, 8]]), start_pos=pc.length, cache=child)
        assert cache_length(child) == pc.length + 2
        assert cache_length(pc.cache) == pc.length

    def test_batched_scoring_unchanged_under_guard(self, monkeypatch):
        model = small_model(seed=3)
        rng = np.random.default_rng(11)
        prefix_ids = random_ids(rng, 12)
        suffixes = [random_ids(rng, 4), random_ids(rng, 2)]
        pc = model.prefill(prefix_ids)
        plain = model.next_token_logits_many(suffixes, prefix=pc)
        monkeypatch.setenv("REPRO_DEBUG_CACHE", "1")
        guarded = model.next_token_logits_many(suffixes, prefix=pc)
        np.testing.assert_array_equal(plain, guarded)


class TestPrefixCacheStore:
    def test_match_prefers_longest_overlap(self):
        model = small_model()
        store = PrefixCacheStore(max_entries=4)
        short = store.put(model.prefill([1, 2]))
        long = store.put(model.prefill([1, 2, 3, 4]))
        entry, overlap = store.match([1, 2, 3, 4, 9])
        assert entry is long and overlap == 4
        entry, overlap = store.match([1, 2, 9])
        assert entry is short or overlap == 2

    def test_miss_and_eviction(self):
        model = small_model()
        store = PrefixCacheStore(max_entries=2)
        store.put(model.prefill([1]))
        store.put(model.prefill([2]))
        store.put(model.prefill([3]))
        assert len(store) == 2
        assert store.match([1, 5]) is None  # evicted
        assert store.misses == 1
        assert store.match([3, 5]) is not None
        assert store.hits == 1
