"""Utility tests: seeded RNG derivation."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import derive_seed, new_rng, spawn_rngs


class TestRNG:
    def test_derivation_deterministic(self):
        assert derive_seed(42, "corpus") == derive_seed(42, "corpus")

    def test_derivation_namespaced(self):
        assert derive_seed(42, "corpus") != derive_seed(42, "model")
        assert derive_seed(42, "a", "b") != derive_seed(42, "a", "c")
        assert derive_seed(41, "a") != derive_seed(42, "a")

    def test_path_components_not_concatenated(self):
        # ("ab", "c") must differ from ("a", "bc")
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")

    def test_new_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert new_rng(gen) is gen

    def test_new_rng_streams_independent(self):
        a = new_rng(0, "x").random(5)
        b = new_rng(0, "y").random(5)
        assert not np.allclose(a, b)

    def test_spawn_rngs(self):
        rngs = spawn_rngs(7, ["a", "b"])
        assert set(rngs) == {"a", "b"}
        assert rngs["a"].random() != rngs["b"].random()

    @given(st.integers(min_value=0, max_value=2**32), st.text(max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_derive_seed_in_64bit_range(self, seed, name):
        s = derive_seed(seed, name)
        assert 0 <= s < 2**64
