"""Tensor-parallel sharding tests: exactness against dense computation."""

import numpy as np
import pytest

from repro.parallel import Communicator, DeviceMesh, mlp_tp_forward
from repro.parallel.tensor_parallel import (
    ColumnParallelLinear,
    RowParallelLinear,
    shard_columns,
    shard_rows,
)

RNG = np.random.default_rng(0)


@pytest.fixture(params=[2, 4])
def comm(request):
    return Communicator(DeviceMesh(1, request.param))


class TestSharding:
    def test_column_shards_reassemble(self):
        w = RNG.normal(size=(8, 12))
        shards = shard_columns(w, 4)
        np.testing.assert_array_equal(np.concatenate(shards, axis=1), w)

    def test_row_shards_reassemble(self):
        w = RNG.normal(size=(8, 12))
        shards = shard_rows(w, 4)
        np.testing.assert_array_equal(np.concatenate(shards, axis=0), w)

    def test_indivisible_raises(self):
        w = RNG.normal(size=(8, 10))
        with pytest.raises(ValueError):
            shard_columns(w, 4)
        with pytest.raises(ValueError):
            shard_rows(RNG.normal(size=(10, 8)), 4)


class TestColumnParallel:
    def test_matches_dense(self, comm):
        w = RNG.normal(size=(6, 8)).astype(np.float64)
        x = RNG.normal(size=(3, 6))
        layer = ColumnParallelLinear.from_dense(w, comm)
        np.testing.assert_allclose(layer.forward(x), x @ w, atol=1e-12)

    def test_sharded_outputs_concatenate(self, comm):
        w = RNG.normal(size=(6, 8))
        x = RNG.normal(size=(3, 6))
        layer = ColumnParallelLinear.from_dense(w, comm)
        slices = layer.forward_sharded(x)
        np.testing.assert_allclose(
            np.concatenate(slices, axis=-1), x @ w, atol=1e-12
        )

    def test_batched_inputs(self, comm):
        w = RNG.normal(size=(6, 8))
        x = RNG.normal(size=(2, 5, 6))
        layer = ColumnParallelLinear.from_dense(w, comm)
        np.testing.assert_allclose(layer.forward(x), x @ w, atol=1e-12)


class TestRowParallel:
    def test_matches_dense(self, comm):
        w = RNG.normal(size=(8, 6)).astype(np.float64)
        x = RNG.normal(size=(3, 8))
        layer = RowParallelLinear.from_dense(w, comm)
        np.testing.assert_allclose(layer.forward(x), x @ w, atol=1e-10)

    def test_input_dim_validated(self, comm):
        layer = RowParallelLinear.from_dense(RNG.normal(size=(8, 6)), comm)
        with pytest.raises(ValueError):
            layer.forward(RNG.normal(size=(3, 10)))

    def test_shard_count_validated(self, comm):
        layer = RowParallelLinear.from_dense(RNG.normal(size=(8, 6)), comm)
        with pytest.raises(ValueError):
            layer.forward_from_sharded([RNG.normal(size=(3, 2))])


class TestMLPTP:
    def test_matches_dense_mlp(self, comm):
        d, h = 8, 16
        w_up = RNG.normal(size=(d, h))
        w_down = RNG.normal(size=(h, d))
        x = RNG.normal(size=(4, d))

        def relu(v):
            return np.maximum(v, 0.0)

        dense = relu(x @ w_up) @ w_down
        tp = mlp_tp_forward(x, w_up, w_down, comm, activation=relu)
        np.testing.assert_allclose(tp, dense, atol=1e-10)

    def test_single_all_reduce_only(self, comm):
        d, h = 8, 16
        before = dict(comm.stats.per_op_calls)
        mlp_tp_forward(
            RNG.normal(size=(2, d)),
            RNG.normal(size=(d, h)),
            RNG.normal(size=(h, d)),
            comm,
        )
        after = comm.stats.per_op_calls
        assert after.get("all_reduce", 0) - before.get("all_reduce", 0) == 1
        assert after.get("all_gather", 0) == before.get("all_gather", 0)
