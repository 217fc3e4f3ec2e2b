"""Tensor-parallel sharding tests: exactness against dense computation."""

import numpy as np
import pytest

from repro.parallel import Communicator, DeviceMesh, TensorParallelMLPTrainer
from repro.parallel.tensor_parallel import shard_columns, shard_rows

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


class TestMLPTP:
    """The trainer's forward: column-sharded up, row-sharded down."""

    def test_matches_dense_mlp(self, comm):
        d, h = 8, 16
        tp = TensorParallelMLPTrainer(d, h, d, comm, seed=3)
        w_up = np.concatenate([p["w_up"] for p in tp.shard_params], axis=1)
        w_down = np.concatenate([p["w_down"] for p in tp.shard_params], axis=0)
        x = RNG.normal(size=(4, d))
        dense = np.maximum(x @ w_up, 0.0) @ w_down
        np.testing.assert_allclose(tp.forward(x), dense, atol=1e-10)

    def test_single_all_reduce_only(self, comm):
        d, h = 8, 16
        tp = TensorParallelMLPTrainer(d, h, d, comm)
        before = dict(comm.stats.per_op_calls)
        tp.forward(RNG.normal(size=(2, d)))
        after = comm.stats.per_op_calls
        assert after.get("all_reduce", 0) - before.get("all_reduce", 0) == 1
        assert after.get("all_gather", 0) == before.get("all_gather", 0)
