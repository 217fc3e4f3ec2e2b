"""HPC substrate tests: mesh, collectives, DDP invariants, schedules, cost."""

import numpy as np
import pytest

from repro.model import ModelConfig, TransformerLM
from repro.parallel import (
    ClusterModel,
    Communicator,
    DataParallelTrainer,
    DDPConfig,
    DeviceMesh,
    PipelinedModel,
    RingCostModel,
    gpipe_schedule,
    one_f_one_b_schedule,
)
from repro.parallel.cluster import transformer_train_flops_per_token
from repro.parallel.data_parallel import flatten_params, unflatten_into
from repro.train.optimizer import AdamW
from repro.train.schedule import CosineSchedule


class TestMesh:
    def test_world_size(self):
        mesh = DeviceMesh(2, 4)
        assert mesh.world_size == 8
        assert mesh.device(5).node == 1
        assert mesh.device(5).local_rank == 1

    def test_rank_out_of_range(self):
        with pytest.raises(IndexError):
            DeviceMesh(1, 2).device(2)

    def test_cross_node_detection(self):
        mesh = DeviceMesh(2, 2)
        assert not mesh.is_cross_node(0, 1)
        assert mesh.is_cross_node(0, 2)


class TestCollectives:
    def setup_method(self):
        self.mesh = DeviceMesh(1, 4)
        self.comm = Communicator(self.mesh)

    def test_all_reduce_sum(self):
        bufs = [np.full(3, float(i)) for i in range(4)]
        out = self.comm.all_reduce(bufs, "sum")
        assert len(out) == len(bufs)
        for o in out:
            np.testing.assert_array_equal(o, np.full(3, 6.0))

    def test_all_reduce_mean_max_min(self):
        bufs = [np.array([float(i)]) for i in range(4)]
        assert self.comm.all_reduce(bufs, "mean")[0][0] == 1.5
        assert self.comm.all_reduce(bufs, "max")[0][0] == 3.0
        assert self.comm.all_reduce(bufs, "min")[0][0] == 0.0

    def test_all_reduce_unknown_op(self):
        with pytest.raises(ValueError):
            self.comm.all_reduce([np.zeros(1)] * 4, "xor")

    def test_buffer_validation(self):
        with pytest.raises(ValueError):
            self.comm.all_reduce([np.zeros(2)] * 3)  # wrong count
        with pytest.raises(ValueError):
            self.comm.all_reduce([np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(2)])

    def test_stats_accumulate(self):
        self.comm.all_reduce([np.zeros(4)] * 4)
        self.comm.all_reduce([np.zeros(2)] * 4)
        assert self.comm.stats.calls == 2
        assert self.comm.stats.simulated_seconds > 0

    def test_duplicate_ranks_rejected(self):
        with pytest.raises(ValueError):
            Communicator(self.mesh, ranks=[0, 0, 1])


class TestRingCostModel:
    def test_all_reduce_scales_with_size(self):
        cm = RingCostModel()
        t2 = cm.all_reduce_time(1 << 20, 2, False)
        t8 = cm.all_reduce_time(1 << 20, 8, False)
        assert t8 > t2

    def test_cross_node_slower(self):
        cm = RingCostModel()
        assert cm.all_reduce_time(1 << 24, 4, True) > cm.all_reduce_time(
            1 << 24, 4, False
        )

    def test_single_rank_is_free(self):
        cm = RingCostModel()
        assert cm.all_reduce_time(1 << 20, 1, False) == 0.0

    def test_bandwidth_term_dominates_large_messages(self):
        cm = RingCostModel()
        small = cm.all_reduce_time(1024, 4, False)
        large = cm.all_reduce_time(1 << 30, 4, False)
        assert large > small * 50

    def test_bandwidth_term_saturates_with_world_size(self):
        """A ring all-reduce moves ``2(n-1)/n`` of the message per rank,
        so four times the ranks takes less than twice the time."""
        cm = RingCostModel()
        nbytes = 100 * 2**20
        t4 = cm.all_reduce_time(nbytes, 4, False)
        t16 = cm.all_reduce_time(nbytes, 16, False)
        assert t16 < t4 * 2


class TestDDP:
    def _trainer(self, world=2, steps=3):
        mesh = DeviceMesh(1, world)
        cfg = ModelConfig(
            vocab_size=32, d_model=16, n_layers=1, n_heads=2, max_seq_len=16
        )
        return DataParallelTrainer(
            mesh, cfg, DDPConfig(learning_rate=1e-3, total_steps=steps), seed=0
        )

    def _batches(self, n, batch=4):
        rng = np.random.default_rng(0)
        for _ in range(n):
            x = rng.integers(1, 32, size=(batch, 8))
            yield x, (x + 1) % 31 + 1

    def test_replicas_stay_in_sync(self):
        trainer = self._trainer()
        trainer.train(self._batches(3))
        assert trainer.replicas_in_sync()

    def test_matches_single_process_training(self):
        """DDP over 2 ranks == serial training on the same global batches."""
        batches = list(self._batches(3))
        ddp = self._trainer(world=2)
        ddp.train(iter(batches))

        solo = TransformerLM(
            ModelConfig(vocab_size=32, d_model=16, n_layers=1, n_heads=2, max_seq_len=16),
            seed=0,
        )
        opt = AdamW(solo.named_parameters(), solo.named_gradients())
        schedule = CosineSchedule(1e-3, 3, 0.03)
        from repro.train.optimizer import clip_grad_norm

        for step, (x, t) in enumerate(batches):
            solo.zero_grad()
            # mean loss over the global batch = mean of per-shard means here
            # because shards are equal-sized
            solo.loss_and_backward(x, t)
            clip_grad_norm(solo.named_gradients(), 1.0)
            opt.step(schedule.lr(step))

        p_ddp = ddp.model.named_parameters()
        p_solo = solo.named_parameters()
        for k in p_solo:
            np.testing.assert_allclose(p_ddp[k], p_solo[k], rtol=1e-4, atol=1e-6)

    def test_indivisible_batch_raises(self):
        trainer = self._trainer(world=2)
        with pytest.raises(ValueError):
            trainer.train_step(np.ones((3, 8), dtype=np.int64), np.ones((3, 8), dtype=np.int64))

    def test_records_timing(self):
        trainer = self._trainer()
        result = trainer.train(self._batches(3))
        assert result.simulated_compute_seconds > 0
        assert result.simulated_comm_seconds > 0
        assert result.steps == 3


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


class TestPipelineSchedules:
    @pytest.mark.parametrize("maker", [gpipe_schedule, one_f_one_b_schedule])
    @pytest.mark.parametrize("stages,microbatches", [(2, 4), (4, 8), (3, 3), (1, 4)])
    def test_valid(self, maker, stages, microbatches):
        maker(stages, microbatches).validate()

    def test_gpipe_bubble_formula(self):
        # classic: bubble = (s-1)/(m+s-1) when fwd and bwd cost the same
        s = gpipe_schedule(4, 8)
        expected = (4 - 1) / (8 + 4 - 1)
        assert s.bubble_fraction(1.0, 1.0) == pytest.approx(expected, abs=1e-9)

    def test_1f1b_memory_advantage(self):
        g = gpipe_schedule(4, 16)
        f = one_f_one_b_schedule(4, 16)
        assert g.peak_in_flight() == 16
        assert f.peak_in_flight() == 4
        # same bubble with equal cost model
        assert f.bubble_fraction(1, 1) == pytest.approx(g.bubble_fraction(1, 1), abs=1e-9)

    def test_more_microbatches_shrink_bubble(self):
        b4 = one_f_one_b_schedule(4, 4).bubble_fraction()
        b32 = one_f_one_b_schedule(4, 32).bubble_fraction()
        assert b32 < b4

    def test_single_stage_no_bubble(self):
        assert gpipe_schedule(1, 8).bubble_fraction() == pytest.approx(0.0, abs=1e-9)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            gpipe_schedule(0, 4)
        with pytest.raises(ValueError):
            one_f_one_b_schedule(2, 0)


class TestPipelinedModel:
    @pytest.mark.parametrize("tie", [True, False])
    @pytest.mark.parametrize("n_stages", [2, 4])
    def test_matches_monolithic_gradients(self, n_stages, tie):
        """Loss and every gradient bit-identical to the monolithic model,
        with each stage boundary crossing the communicator once per
        microbatch in each direction."""
        cfg = ModelConfig(
            vocab_size=32, d_model=16, n_layers=4, n_heads=2, max_seq_len=16,
            tie_embeddings=tie,
        )
        mono = TransformerLM(cfg, seed=5)
        piped = TransformerLM(cfg, seed=5)
        pipe = PipelinedModel(piped, n_stages=n_stages)
        n_micro = 4

        rng = np.random.default_rng(0)
        x = rng.integers(1, 32, size=(4, 8))
        t = rng.integers(1, 32, size=(4, 8))

        mono.zero_grad()
        loss_mono = 0.0
        for xm, tm in zip(np.split(x, n_micro), np.split(t, n_micro)):
            logits = mono.forward(xm)
            loss, dl = mono.cross_entropy(logits, tm)
            mono.backward(dl / n_micro)
            loss_mono += loss / n_micro

        piped.zero_grad()
        loss_pipe = pipe.train_step(x, t, n_microbatches=n_micro)
        assert loss_pipe == loss_mono

        g1, g2 = mono.named_gradients(), piped.named_gradients()
        assert list(g1) == list(g2)
        for k in g1:
            np.testing.assert_array_equal(g1[k], g2[k], err_msg=k)
        p2p = pipe.comm.stats.per_op_calls["point_to_point"]
        assert p2p == 2 * (n_stages - 1) * n_micro

    def test_stage_parameter_counts_sum(self):
        cfg = ModelConfig(vocab_size=32, d_model=16, n_layers=4, n_heads=2, max_seq_len=16)
        model = TransformerLM(cfg)
        pipe = PipelinedModel(model, n_stages=3)
        assert sum(pipe.stage_parameter_counts()) == model.num_parameters()

    def test_too_many_stages(self):
        cfg = ModelConfig(vocab_size=32, d_model=16, n_layers=2, n_heads=2, max_seq_len=16)
        with pytest.raises(ValueError):
            PipelinedModel(TransformerLM(cfg), n_stages=3)


class TestClusterModel:
    def test_flops_rule(self):
        assert transformer_train_flops_per_token(1e9) == pytest.approx(6e9)
        with_attn = transformer_train_flops_per_token(1e9, 32, 4096, 2048)
        assert with_attn > 6e9

    def test_paper_cpt_figures(self):
        cm = ClusterModel()
        cpt8 = cm.estimate_cpt(8e9, 0.34e9).gpu_hours
        cpt70 = cm.estimate_cpt(70e9, 0.34e9).gpu_hours
        assert 16 <= cpt8 <= 64  # paper: 32
        assert 1000 <= cpt70 <= 4000  # paper: ~2000

    def test_paper_sft_figures(self):
        cm = ClusterModel()
        assert 6 <= cm.estimate_sft(8e9, 30356, 2048).gpu_hours <= 24  # paper: 12
        assert 50 <= cm.estimate_sft(70e9, 30356, 2048).gpu_hours <= 200  # paper: 100

    def test_paper_inference_figure(self):
        cm = ClusterModel()
        est = cm.estimate_inference(70e9, 4425, 600, 512)
        assert 32 <= est.gpu_hours <= 128  # paper: 64

    def test_multi_node_mfu_penalty(self):
        cm = ClusterModel()
        assert cm.training_mfu(8e9) > cm.training_mfu(70e9)
        assert cm.fits_single_node(8e9)
        assert not cm.fits_single_node(70e9)

    def test_min_training_gpus_monotone(self):
        cm = ClusterModel()
        assert cm.min_training_gpus(70e9) > cm.min_training_gpus(8e9)

    def test_wall_hours_consistent(self):
        cm = ClusterModel()
        est = cm.estimate_cpt(70e9, 0.34e9)
        assert est.wall_hours == pytest.approx(est.gpu_hours / est.gpus_used)
