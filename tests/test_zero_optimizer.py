"""ZeRO-1 tests: exactness vs dense AdamW, sharding memory accounting."""

import numpy as np
import pytest

from repro.model import ModelConfig, TransformerLM
from repro.parallel import Communicator, DeviceMesh
from repro.parallel.zero_optimizer import (
    Zero1AdamW,
    flatten_params,
    unflatten_into,
    zero1_memory_per_rank,
)
from repro.train.optimizer import AdamW
from tests.test_train_kernels import ref_adamw_step


def make_model(seed=0, n_layers=1):
    return TransformerLM(
        ModelConfig(
            vocab_size=24, d_model=16, n_layers=n_layers, n_heads=2, max_seq_len=16
        ),
        seed=seed,
    )


class TestFlatten:
    def test_roundtrip(self):
        model = make_model()
        params = model.named_parameters()
        flat, layout = flatten_params(params)
        assert flat.size == model.num_parameters()
        # zero out then restore
        backup = {k: v.copy() for k, v in params.items()}
        for v in params.values():
            v.fill(0.0)
        unflatten_into(flat, layout, params)
        for k in params:
            np.testing.assert_array_equal(params[k], backup[k])

    def test_float64_roundtrip_keeps_bits(self):
        """The flat vector keeps the parameters' dtype: a float64 third is
        not rounded to float32 on its way through."""
        params = {
            "w": np.array([[1 / 3, 2 / 3]]),
            "g": np.array([np.pi, np.e, 1e-300]),
        }
        backup = {k: v.copy() for k, v in params.items()}
        flat, layout = flatten_params(params)
        assert flat.dtype == np.float64
        for v in params.values():
            v.fill(0.0)
        unflatten_into(flat, layout, params)
        for k in params:
            np.testing.assert_array_equal(params[k], backup[k])

    def test_layout_sorted_and_complete(self):
        model = make_model()
        _, layout = flatten_params(model.named_parameters())
        keys = [k for k, _, _ in layout]
        assert keys == sorted(keys)
        assert sum(int(np.prod(s)) for _, _, s in layout) == model.num_parameters()


class TestZero1Exactness:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.1])
    @pytest.mark.parametrize("world", [2, 4])
    def test_matches_dense_adamw(self, world, weight_decay):
        """ZeRO-1 over R ranks is bit-identical to dense AdamW on the mean
        gradients, weight decay included (the RMSNorm gains take none).
        It is also held to the reference AdamW formula, which is written
        apart from the update both optimizers share, so a change to that
        update cannot move both sides of the comparison."""
        comm = Communicator(DeviceMesh(1, world))
        model_zero = make_model(seed=3, n_layers=2)
        zero = Zero1AdamW(comm, weight_decay=weight_decay)
        dense, ref = (
            AdamW(m.named_parameters(), m.named_gradients(), weight_decay=weight_decay)
            for m in (make_model(seed=3, n_layers=2), make_model(seed=3, n_layers=2))
        )
        rng = np.random.default_rng(0)
        for step in range(5):
            # simulate per-rank gradients from different shards
            per_rank = []
            for r in range(world):
                model_zero.zero_grad()
                x = rng.integers(1, 24, size=(2, 8))
                model_zero.loss_and_backward(x, np.roll(x, -1, axis=1))
                per_rank.append(
                    {k: v.copy() for k, v in model_zero.named_gradients().items()}
                )
            # dense references: mean of the rank gradients
            for opt in (dense, ref):
                for k, g in opt.grads.items():
                    g[...] = np.mean([pr[k] for pr in per_rank], axis=0)
            dense.step(0.05)
            ref_adamw_step(ref, 0.05)
            zero.step(model_zero.named_parameters(), per_rank, 0.05)

            for k, p in model_zero.named_parameters().items():
                np.testing.assert_array_equal(p, dense.params[k], err_msg=k)
                np.testing.assert_array_equal(p, ref.params[k], err_msg=k)

    def test_weight_decay_applied(self):
        comm = Communicator(DeviceMesh(1, 2))
        model = make_model(seed=1)
        params = model.named_parameters()
        before = {k: v.copy() for k, v in params.items()}
        zero = Zero1AdamW(comm, weight_decay=0.1)
        grads = [{k: np.zeros_like(v) for k, v in params.items()} for _ in range(2)]
        zero.step(params, grads, lr=0.5)
        # zero gradients: only decay moves weights, and only the matrices
        gains = [k for k in params if k.endswith(".gain")]
        matrices = [k for k in params if params[k].ndim > 1]
        assert gains and matrices
        for k in gains:
            np.testing.assert_array_equal(params[k], before[k], err_msg=k)
        for k in matrices:
            assert np.abs(params[k]).sum() < np.abs(before[k]).sum(), k

    def test_gradient_key_mismatch(self):
        comm = Communicator(DeviceMesh(1, 2))
        model = make_model()
        with pytest.raises(KeyError):
            zero = Zero1AdamW(comm)
            zero.step(
                model.named_parameters(),
                [{"bogus": np.zeros(3)} for _ in range(2)],
                1e-3,
            )

    def test_rank_count_mismatch(self):
        comm = Communicator(DeviceMesh(1, 4))
        model = make_model()
        grads = {k: np.zeros_like(v) for k, v in model.named_parameters().items()}
        with pytest.raises(ValueError):
            Zero1AdamW(comm).step(model.named_parameters(), [grads], 1e-3)


class TestZeroMemory:
    def test_state_shards_shrink_with_world(self):
        model = make_model()
        grads = {k: np.zeros_like(v) for k, v in model.named_parameters().items()}
        sizes = {}
        for world in (2, 4):
            comm = Communicator(DeviceMesh(1, world))
            zero = Zero1AdamW(comm)
            zero.step(model.named_parameters(), [grads] * world, 1e-3)
            sizes[world] = zero.state_bytes_per_rank()
        assert sizes[4] < sizes[2]

    def test_70b_optimizer_term_shards_linearly(self):
        """At 70B the two fp32 moments are 560 GB dense; ZeRO-1 across 32
        ranks cuts the per-rank optimizer term to 17.5 GB.  (Weights and
        gradients stay replicated under stage 1 — why real 70B runs pair
        ZeRO with tensor/pipeline parallelism, as the cluster model's
        multi-node threshold reflects.)"""
        one = zero1_memory_per_rank(70e9, 1)
        many = zero1_memory_per_rank(70e9, 32)
        replicated = 70e9 * 4.0  # bf16 weights + grads, both layouts
        assert one - replicated == pytest.approx(70e9 * 8.0)
        assert many - replicated == pytest.approx(70e9 * 8.0 / 32)
        assert many < one

    def test_world_validation(self):
        with pytest.raises(ValueError):
            zero1_memory_per_rank(1e9, 0)
