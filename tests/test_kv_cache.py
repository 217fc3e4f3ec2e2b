"""Prefix-cache / batched-scoring tests for the shared-prompt eval path."""

import numpy as np
import pytest

from repro.model import (
    GenerationConfig,
    ModelConfig,
    MultiHeadAttention,
    PrefixCacheStore,
    TransformerLM,
    common_prefix_len,
    generate,
    shared_prefix,
)
import repro.model.transformer as transformer
from repro.model.sampling import DecodeStream, open_prompt
from tests.conftest import ATOL, position_sensitive_model, recording_step_logits


def small_model(seed=0, vocab=120, max_seq_len=96):
    return TransformerLM(
        ModelConfig(
            vocab_size=vocab, d_model=32, n_layers=2, n_heads=4,
            max_seq_len=max_seq_len,
        ),
        seed=seed,
    )


MODELS = {"small": small_model, "sensitive": position_sensitive_model}


@pytest.fixture(params=sorted(MODELS))
def model(request):
    return MODELS[request.param](seed=3)


def random_ids(rng, n, vocab=120):
    return rng.integers(1, vocab, size=n).tolist()


def cached_lengths(cache):
    return [layer["k"].shape[2] for layer in cache]


def assert_read_only(cache):
    for layer in cache:
        for key in ("k", "v"):
            assert not layer[key].flags.writeable


def test_position_sensitive_fixture_margin(monkeypatch):
    """A decode step whose new token is rotated one position early moves
    the logits by more than 100x ``ATOL``.  The forward refuses a
    ``start_pos`` that is not the cache's length, so the early position is
    put into the RoPE call itself."""
    model = position_sensitive_model(seed=3)
    rng = np.random.default_rng(0)
    apply = model.rope.apply
    for n in (2, 10, 40, 90):
        ids = random_ids(rng, n)
        pc = model.prefill(ids[:-1])

        def step(shift):
            tok = np.asarray([[ids[-1]]])
            with monkeypatch.context() as m:
                m.setattr(model.rope, "apply", lambda x, pos=0: apply(x, pos + shift))
                return model.forward(tok, start_pos=n - 1, cache=pc.fork())[0, -1]

        assert np.abs(step(0) - step(-1)).max() > 100 * ATOL


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
        assert all(layer == {} for layer in model.new_cache())
        pc = model.prefill([1, 2, 3, 4, 5])
        assert cached_lengths(pc.cache) == [5] * model.config.n_layers


class TestFork:
    def test_fork_trims(self):
        model = small_model()
        pc = model.prefill([1, 2, 3, 4, 5, 6])
        forked = pc.fork(length=4)
        for layer in forked:
            assert layer["k"].shape[0] == 1
            assert layer["k"].shape[2] == 4
        with pytest.raises(ValueError):
            pc.fork(length=7)

    def test_extending_fork_leaves_parent_intact(self):
        model = small_model()
        rng = np.random.default_rng(0)
        ids = random_ids(rng, 10)
        pc = model.prefill(ids)
        child = pc.fork()
        model.forward(np.asarray([[7, 8]]), start_pos=pc.length, cache=child)
        assert cached_lengths(child) == [pc.length + 2] * len(child)
        assert cached_lengths(pc.cache) == [pc.length] * len(child)


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
                cache=pc.fork(),
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

    @pytest.mark.parametrize("n", [1, 2, 17, 60])
    def test_prefill_logits_and_cache_match_full_forward(self, model, n):
        """The pruned last block still caches every position's K/V: one
        decode step on the cache matches the full forward."""
        rng = np.random.default_rng(n)
        ids = random_ids(rng, n)
        pc = model.prefill(ids)
        assert [layer["k"].shape[2] for layer in pc.cache] == [n] * len(pc.cache)
        full = model.next_token_logits(np.asarray(ids))
        np.testing.assert_allclose(pc.last_logits, full, atol=ATOL)
        assert np.argmax(pc.last_logits) == np.argmax(full)
        step = model.forward(np.asarray([[7]]), start_pos=n, cache=pc.fork())[0, -1]
        full = model.next_token_logits(np.asarray(ids + [7]))
        np.testing.assert_allclose(step, full, atol=ATOL)
        assert np.argmax(step) == np.argmax(full)


class TestBatchedNextTokenLogits:
    @pytest.mark.parametrize("with_prefix", [True, False], ids=["prefix", "no-prefix"])
    @pytest.mark.parametrize(
        "lengths",
        [[5, 0, 1, 9, 3, 1, 12], [6, 6, 6, 6], [7]],
        ids=["ragged", "equal", "single"],
    )
    def test_matches_next_token_logits(self, model, lengths, with_prefix):
        """Ragged rows (with an empty and a length-1 suffix), rows of equal
        length (no padding) and one row, with and without a prefix."""
        rng = np.random.default_rng(len(lengths))
        prefix_ids = random_ids(rng, 20) if with_prefix else []
        pc = model.prefill(prefix_ids) if with_prefix else None
        suffixes = [random_ids(rng, n) for n in lengths if n or with_prefix]
        batched = model.next_token_logits_many(suffixes, prefix=pc)
        assert batched.shape == (len(suffixes), model.config.vocab_size)
        for row, suffix in zip(batched, suffixes):
            full = model.next_token_logits(np.asarray(prefix_ids + suffix))
            np.testing.assert_allclose(row, full, atol=ATOL)
            assert np.argmax(row) == np.argmax(full)

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
        with recording_step_logits() as cold_steps:
            cold = generate(model, prompt, config)
        with recording_step_logits() as warm_steps:
            warm = generate(model, prompt, config, store=store)
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
        with recording_step_logits() as first_steps:
            first = generate(model, prompt, config, store=store)
        assert store.misses == 1 and len(store) == 1
        with recording_step_logits() as second_steps:
            second = generate(model, prompt, config, store=store)
        assert first == second and store.hits == 1
        assert all(np.array_equal(a, b) for a, b in zip(first_steps, second_steps))

    def test_step_logits_cannot_rewrite_a_stored_prefix(self):
        """On an exact cover the first step's logits are the store
        entry's own ``last_logits``: a write into them raises, and the
        entry still decodes what cold generation does."""
        model = small_model(seed=6)
        prompt = [1, 2, 3, 4, 5]
        config = GenerationConfig(max_new_tokens=3)
        store = PrefixCacheStore()
        entry = store.put(model.prefill(prompt))
        saved = entry.last_logits.copy()
        with recording_step_logits() as steps:
            generate(model, prompt, config, store=store)
        with pytest.raises(ValueError):
            steps[0][0] = 1e9
        np.testing.assert_array_equal(entry.last_logits, saved)
        cold = generate(model, prompt, config)
        assert generate(model, prompt, config, store=store) == cold
        assert cold[0] != 0


class TestDebugCacheGuard:
    """Read-only cache arrays: the runtime counterpart of lint rule R1.

    Every K/V array a cache stores, and a prefill's ``last_logits``, is
    non-writeable from the start, so no reader needs a switch or a
    ``fork()`` to be guarded.
    """

    def test_forked_views_are_read_only(self):
        model = small_model()
        pc = model.prefill([1, 2, 3, 4])
        forked = pc.fork(length=3)
        with pytest.raises(ValueError):
            # lint: disable=R1 (intentional violation: proves the guard trips)
            forked[0]["k"][..., 0] = 0.0
        # the parent's own arrays are read-only too
        assert_read_only(pc.cache)
        assert not pc.last_logits.flags.writeable

    def test_every_reachable_cache_is_read_only(self):
        """prefill, a store entry, each open_prompt outcome (miss, exact
        and partial cover) and a DecodeStream after advance()."""
        model = small_model()
        prompt = [1, 2, 3, 4, 5]
        pc = model.prefill([9, 8, 7])
        assert_read_only(pc.cache)
        assert not pc.last_logits.flags.writeable

        store = PrefixCacheStore()
        miss = open_prompt(model, prompt, store)
        entry, _ = store.match(prompt)
        exact = open_prompt(model, prompt, store)
        partial = open_prompt(model, prompt + [6, 7], store)
        assert (miss.hit, exact.forwarded, partial.forwarded) == (0, 0, 2)
        for cache in (entry.cache, miss.cache, exact.cache, partial.cache):
            assert_read_only(cache)
        for logits in (entry.last_logits, miss.logits, exact.logits):
            assert not logits.flags.writeable

        config = GenerationConfig(max_new_tokens=4)
        for opened, pos in ((exact, len(prompt)), (partial, len(prompt) + 2)):
            stream = DecodeStream(model, opened, config, 4)
            assert stream.pos == pos
            stream.advance(int(np.argmax(stream.logits)))
            assert_read_only(stream.cache)

    def test_extension_still_works_under_guard(self):
        model = small_model()
        pc = model.prefill([1, 2, 3])
        child = pc.fork()
        model.forward(np.asarray([[7, 8]]), start_pos=pc.length, cache=child)
        assert cached_lengths(child) == [pc.length + 2] * len(child)
        assert cached_lengths(pc.cache) == [pc.length] * len(child)

    def test_scoring_kernel_gets_read_only_prefix(self, monkeypatch):
        """Batched scoring reads the stored prefix as it is, so the
        attention kernel receives read-only arrays, once per layer in
        each row shard."""
        model = small_model(seed=3)
        pc = model.prefill([1, 2, 3, 4, 5])
        seen = []
        kernel = MultiHeadAttention._shared_prefix_attention

        def spy(self, q, k, v, kp, vp, *rest):
            seen.extend((kp, vp))
            return kernel(self, q, k, v, kp, vp, *rest)

        monkeypatch.setattr(MultiHeadAttention, "_shared_prefix_attention", spy)
        rows = [[6, 7], [8]]
        model.next_token_logits_many(rows, prefix=pc)
        shards = min(transformer.SHARDS, len(rows))
        assert len(seen) == 2 * model.config.n_layers * shards
        for arr in seen:
            with pytest.raises(ValueError):
                # lint: disable=R1 (intentional violation: proves the guard trips)
                arr[..., 0] = 0.0


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
