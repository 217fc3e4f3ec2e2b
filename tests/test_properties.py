"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.model.attention import RotaryEmbedding, causal_mask
from repro.model.layers import softmax
from repro.model.transformer import TransformerLM
from repro.parallel import Communicator, DeviceMesh
from repro.parallel.pipeline_parallel import gpipe_schedule, one_f_one_b_schedule
from repro.tokenizer import Vocabulary, WordTokenizer
from repro.train.dataloader import pack_documents
from repro.train.schedule import CosineSchedule


finite_floats = hnp.arrays(
    np.float32,
    st.tuples(st.integers(1, 4), st.integers(1, 6)),
    elements=st.floats(-50, 50, width=32),
)


class TestSoftmaxProperties:
    @given(finite_floats)
    @settings(max_examples=100, deadline=None)
    def test_rows_sum_to_one(self, x):
        p = softmax(x)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=1e-5)
        assert (p >= 0).all()

    @given(finite_floats, st.floats(-30, 30, width=32))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, x, c):
        np.testing.assert_allclose(softmax(x + c), softmax(x), atol=1e-5)

    @given(finite_floats)
    @settings(max_examples=100, deadline=None)
    def test_log_softmax_consistent(self, x):
        """The cross-entropy's log-softmax, read one (position, target) at
        a time through the mask, exponentiates to the softmax, and its
        gradient is the softmax minus the one-hot targets."""
        R, V = x.shape
        p = softmax(x)
        for r in range(R):
            mask = np.zeros((1, R), dtype=np.float32)
            mask[0, r] = 1.0
            for j in range(V):
                loss, _ = TransformerLM.cross_entropy(x[None], np.full((1, R), j), mask)
                np.testing.assert_allclose(np.exp(-loss), p[r, j], atol=1e-5)
        targets = np.arange(R) % V
        _, grad = TransformerLM.cross_entropy(x[None], targets[None])
        onehot = np.eye(V, dtype=np.float32)[targets]
        np.testing.assert_allclose(grad[0] * R + onehot, p, atol=1e-5)


class TestRoPEProperties:
    @given(
        hnp.arrays(
            np.float32,
            st.tuples(st.integers(1, 3), st.integers(1, 8), st.just(8)),
            elements=st.floats(-5, 5, width=32),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_rotation_preserves_norm(self, x):
        """RoPE is orthogonal: token vectors keep their L2 norm."""
        rope = RotaryEmbedding(head_dim=8, max_seq_len=16)
        rotated = rope.apply(x)
        # atol floor: relative error is unbounded for subnormal-magnitude
        # vectors (hypothesis generates e.g. 8e-23), where float32
        # cos/sin arithmetic loses all relative precision
        np.testing.assert_allclose(
            np.linalg.norm(rotated, axis=-1),
            np.linalg.norm(x, axis=-1),
            rtol=1e-4,
            atol=1e-6,
        )

    @given(st.integers(0, 7))
    @settings(max_examples=20, deadline=None)
    def test_backward_inverts_forward_direction(self, start):
        """apply_backward(apply(x)) == x (R^T R = I)."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 4, 8)).astype(np.float32)
        rope = RotaryEmbedding(head_dim=8, max_seq_len=16)
        back = rope.apply_backward(rope.apply(x, start), start)
        np.testing.assert_allclose(back, x, atol=1e-5)

    def test_position_zero_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 1, 8)).astype(np.float32)
        rope = RotaryEmbedding(head_dim=8, max_seq_len=16)
        np.testing.assert_allclose(rope.apply(x, 0), x, atol=1e-6)


class TestCausalMaskProperties:
    @given(st.integers(1, 12))
    @settings(max_examples=20, deadline=None)
    def test_strictly_upper_triangular(self, T):
        mask = causal_mask(T)
        for i in range(T):
            for j in range(T):
                if j > i:
                    assert mask[i, j] < -1e8
                else:
                    assert mask[i, j] == 0.0


class TestPackingProperties:
    @given(
        st.lists(
            st.lists(st.integers(1, 50), min_size=0, max_size=12),
            min_size=1,
            max_size=8,
        ),
        st.integers(2, 10),
    )
    @settings(max_examples=100, deadline=None)
    def test_token_conservation(self, docs, seq_len):
        """Without dropping, every non-EOS token of every doc survives."""
        windows = pack_documents(docs, seq_len, eos_id=0)
        flat = windows.reshape(-1).tolist()
        total_in = sum(len(d) for d in docs)
        assert len([t for t in flat if t != 0]) == total_in

    @given(
        st.lists(
            st.lists(st.integers(1, 50), min_size=1, max_size=12),
            min_size=1,
            max_size=8,
        ),
        st.integers(2, 10),
    )
    @settings(max_examples=100, deadline=None)
    def test_window_shape(self, docs, seq_len):
        windows = pack_documents(docs, seq_len, eos_id=0)
        assert windows.shape[1] == seq_len + 1


class TestScheduleProperties:
    @given(st.integers(2, 1000), st.floats(0.0, 0.5))
    @settings(max_examples=100, deadline=None)
    def test_peak_reached_and_never_exceeded(self, total, warmup):
        s = CosineSchedule(peak_lr=1.0, total_steps=total, warmup_ratio=warmup)
        lrs = [s.lr(i) for i in range(total)]
        assert max(lrs) <= 1.0 + 1e-9
        assert max(lrs) >= 0.99 or s.warmup_steps >= total


class TestCollectiveProperties:
    @given(
        st.integers(2, 6),
        hnp.arrays(np.float64, st.integers(1, 20), elements=st.floats(-100, 100)),
    )
    @settings(max_examples=50, deadline=None)
    def test_all_reduce_mean_matches_numpy(self, world, base):
        mesh = DeviceMesh(1, world)
        comm = Communicator(mesh)
        buffers = [base + r for r in range(world)]
        out = comm.all_reduce(buffers, "mean")
        expected = np.mean(buffers, axis=0)
        for o in out:
            np.testing.assert_allclose(o, expected, atol=1e-9)

    @given(st.integers(2, 6), st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_reduce_scatter_then_gather_is_all_reduce(self, world, shard):
        mesh = DeviceMesh(1, world)
        comm = Communicator(mesh)
        rng = np.random.default_rng(world)
        buffers = [rng.normal(size=world * shard) for _ in range(world)]
        rs = comm.reduce_scatter(buffers, "sum")
        gathered = comm.all_gather(rs)
        ar = comm.all_reduce(buffers, "sum")
        np.testing.assert_allclose(gathered[0], ar[0], atol=1e-9)


class TestScheduleValidity:
    @given(st.integers(1, 6), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_schedules_always_valid(self, stages, microbatches):
        gpipe_schedule(stages, microbatches).validate()
        one_f_one_b_schedule(stages, microbatches).validate()

    @given(st.integers(1, 6), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_1f1b_memory_bounded_by_stages(self, stages, microbatches):
        f = one_f_one_b_schedule(stages, microbatches)
        assert f.peak_in_flight() <= min(stages, microbatches) + 0


class TestVocabularyProperties:
    @given(st.lists(st.text(min_size=1, max_size=8), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_ids_dense_and_stable(self, tokens):
        v = Vocabulary()
        for t in tokens:
            v.add(t)
        assert len(v) == 4 + len(set(tokens) - set(v.specials.as_list()))
        for t in tokens:
            assert v.token_of(v.id_of(t)) == t

    @given(st.lists(st.text("abcdefgh ", min_size=1, max_size=30), min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_word_tokenizer_roundtrip_known_text(self, texts):
        tok = WordTokenizer.train(texts, vocab_size=10000)
        for text in texts:
            normalized = tok.normalizer(text)
            assume(normalized)
            assert tok.decode(tok.encode(text)) == normalized
