"""Resume-exactness and integrity tests for training-state checkpoints."""

import json

import numpy as np
import pytest

from repro.model import ModelConfig, TransformerLM, assign_state
from repro.train import AdamW
from repro.train.checkpointing import (
    CheckpointIntegrityError,
    checkpoint_dir_for_step,
    latest_valid_checkpoint,
    list_checkpoints,
    load_snapshot,
    save_snapshot,
    set_post_save_hook,
    verify_checkpoint,
    write_manifest,
)


def make_model(seed=0):
    return TransformerLM(
        ModelConfig(vocab_size=32, d_model=16, n_layers=1, n_heads=2, max_seq_len=16),
        seed=seed,
    )


def batches(n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        x = rng.integers(1, 32, size=(4, 8))
        out.append((x, np.roll(x, -1, axis=1), None))
    return out


def state_of(model, optimizer):
    return {**model.named_parameters(), **optimizer.moments()}


def save_model_state(path, model, optimizer, step, extra=None):
    save_snapshot(path, state_of(model, optimizer), step, optimizer.step_count, extra)


def restore_model_state(path, model, optimizer):
    arrays, meta = load_snapshot(path)
    assign_state(state_of(model, optimizer), arrays)
    optimizer.step_count = meta["optimizer_step_count"]
    return meta


def run_steps(model, optimizer, batch_list, lr=1e-3):
    from repro.train.optimizer import clip_grad_norm

    for x, t, _ in batch_list:
        model.zero_grad()
        model.loss_and_backward(x, t)
        clip_grad_norm(model.named_gradients(), 1.0)
        optimizer.step(lr)


class TestResumeExactness:
    def test_resumed_run_bit_identical(self, tmp_path):
        all_batches = batches(10)

        # uninterrupted run
        m_full = make_model(seed=1)
        opt_full = AdamW(m_full.named_parameters(), m_full.named_gradients())
        run_steps(m_full, opt_full, all_batches)

        # interrupted at step 5, checkpointed, resumed in fresh objects
        m_a = make_model(seed=1)
        opt_a = AdamW(m_a.named_parameters(), m_a.named_gradients())
        run_steps(m_a, opt_a, all_batches[:5])
        save_model_state(tmp_path / "ckpt", m_a, opt_a, step=5, extra={"note": "x"})

        m_b = make_model(seed=99)  # different init: must be overwritten
        opt_b = AdamW(m_b.named_parameters(), m_b.named_gradients())
        meta = restore_model_state(tmp_path / "ckpt", m_b, opt_b)
        assert meta["step"] == 5
        assert meta["extra"] == {"note": "x"}
        run_steps(m_b, opt_b, all_batches[5:])

        full = m_full.named_parameters()
        resumed = m_b.named_parameters()
        for key in full:
            np.testing.assert_array_equal(full[key], resumed[key])

    def test_optimizer_moments_restored(self, tmp_path):
        m = make_model()
        opt = AdamW(m.named_parameters(), m.named_gradients())
        run_steps(m, opt, batches(3))
        save_model_state(tmp_path / "c", m, opt, step=3)

        m2 = make_model(seed=7)
        opt2 = AdamW(m2.named_parameters(), m2.named_gradients())
        restore_model_state(tmp_path / "c", m2, opt2)
        assert opt2.step_count == opt.step_count
        for key in opt.m:
            np.testing.assert_array_equal(opt.m[key], opt2.m[key])
            np.testing.assert_array_equal(opt.v[key], opt2.v[key])

    def test_mismatched_model_rejected(self, tmp_path):
        m = make_model()
        opt = AdamW(m.named_parameters(), m.named_gradients())
        save_model_state(tmp_path / "c", m, opt, step=0)

        other = TransformerLM(
            ModelConfig(vocab_size=32, d_model=16, n_layers=2, n_heads=2, max_seq_len=16)
        )
        opt_other = AdamW(other.named_parameters(), other.named_gradients())
        with pytest.raises(KeyError):
            restore_model_state(tmp_path / "c", other, opt_other)

    def test_format_version_checked(self, tmp_path):
        m = make_model()
        opt = AdamW(m.named_parameters(), m.named_gradients())
        save_model_state(tmp_path / "c", m, opt, step=0)
        meta_path = tmp_path / "c" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 999
        meta_path.write_text(json.dumps(meta))
        # re-hash, so the version check (not the digest check) refuses it
        write_manifest(tmp_path / "c")
        with pytest.raises(ValueError, match="checkpoint format 999"):
            restore_model_state(tmp_path / "c", m, opt)

    def test_snapshot_layout_is_one_state_file(self, tmp_path):
        m = make_model()
        opt = AdamW(m.named_parameters(), m.named_gradients())
        run_steps(m, opt, batches(2))
        save_model_state(tmp_path / "c", m, opt, step=2, extra={"note": "x"})
        files = sorted(p.name for p in (tmp_path / "c").iterdir())
        assert files == ["manifest.json", "meta.json", "state.npz"]
        meta = json.loads((tmp_path / "c" / "meta.json").read_text())
        assert meta == {
            "format_version": 2,
            "step": 2,
            "optimizer_step_count": 2,
            "extra": {"note": "x"},
        }


def _broadcastable_shape(state):
    assert state["rank0::param::w_up"].shape == (6, 4)
    state["rank0::param::w_up"] = np.ones((1, 4))


def _extra_key(state):
    state["rank2::param::w_up"] = np.ones((6, 4))


def _missing_key(state):
    del state["rank1::v::w_down"]


def _other_dtype(state):
    state["rank1::m::w_up"] = state["rank1::m::w_up"].astype(np.float32)


@pytest.mark.parametrize(
    "spoil,exc",
    [
        (_broadcastable_shape, ValueError),
        (_extra_key, KeyError),
        (_missing_key, KeyError),
        (_other_dtype, ValueError),
    ],
    ids=["broadcastable-shape", "extra-key", "missing-key", "other-dtype"],
)
def test_strict_restore_refuses_and_writes_nothing(spoil, exc):
    """A restore takes exactly the live names, shapes and dtypes, or nothing."""
    from repro.faults import TensorParallelFaultLoop

    loop = TensorParallelFaultLoop()
    loop.build()
    live = loop.state()
    before = {k: v.copy() for k, v in live.items()}
    bad = {k: np.zeros_like(v) for k, v in live.items()}
    spoil(bad)
    with pytest.raises(exc):
        assign_state(live, bad)
    for key, arr in live.items():
        np.testing.assert_array_equal(arr, before[key], err_msg=key)


class TestManifestIntegrity:
    """SHA-256 manifests: corrupt shards are detected before loading."""

    def _snapshot(self, tmp_path, name="c", step=0):
        m = make_model()
        opt = AdamW(m.named_parameters(), m.named_gradients())
        run_steps(m, opt, batches(2))
        save_model_state(tmp_path / name, m, opt, step=step)
        return tmp_path / name, m, opt

    def test_intact_snapshot_verifies_clean(self, tmp_path):
        path, _, _ = self._snapshot(tmp_path)
        assert (path / "manifest.json").exists()
        assert verify_checkpoint(path) == []

    def test_flipped_byte_detected_and_load_refused(self, tmp_path):
        path, m, opt = self._snapshot(tmp_path)
        shard = path / "state.npz"
        data = bytearray(shard.read_bytes())
        data[len(data) // 2] ^= 0xFF
        shard.write_bytes(bytes(data))
        assert verify_checkpoint(path) == ["state.npz"]
        with pytest.raises(CheckpointIntegrityError):
            restore_model_state(path, m, opt)

    def test_truncated_shard_detected(self, tmp_path):
        path, _, _ = self._snapshot(tmp_path)
        shard = path / "state.npz"
        shard.write_bytes(shard.read_bytes()[:-16])
        assert verify_checkpoint(path) == ["state.npz"]

    def test_missing_file_counts_as_corrupt(self, tmp_path):
        path, _, _ = self._snapshot(tmp_path)
        (path / "meta.json").unlink()
        assert "meta.json" in verify_checkpoint(path)

    def test_snapshot_without_manifest_is_incomplete(self, tmp_path):
        # the manifest is written last: without it the save never finished
        path, m, opt = self._snapshot(tmp_path)
        (path / "manifest.json").unlink()
        assert verify_checkpoint(path) == ["manifest.json"]
        with pytest.raises(CheckpointIntegrityError):
            restore_model_state(path, m, opt)

    def test_post_save_hook_fires_and_restores(self, tmp_path):
        calls = []
        previous = set_post_save_hook(lambda path, step: calls.append((path, step)))
        try:
            self._snapshot(tmp_path, step=7)
        finally:
            assert set_post_save_hook(previous) is not None
        assert [(p.name, s) for p, s in calls] == [("c", 7)]

    def test_state_arrays_roundtrip(self, tmp_path):
        arrays = {
            "rank0::w": np.arange(6.0).reshape(2, 3),
            "rank1::w": np.full((2, 3), 0.5),
        }
        save_snapshot(tmp_path / "s", arrays, step=3, step_count=2, extra={"k": 1})
        loaded, meta = load_snapshot(tmp_path / "s")
        assert (meta["step"], meta["optimizer_step_count"]) == (3, 2)
        assert meta["extra"] == {"k": 1}
        for key, arr in arrays.items():
            np.testing.assert_array_equal(loaded[key], arr)
        shard = tmp_path / "s" / "state.npz"
        shard.write_bytes(shard.read_bytes()[:-8])
        with pytest.raises(CheckpointIntegrityError):
            load_snapshot(tmp_path / "s")


class TestSnapshotDiscovery:
    """step-NNNNNNNN directory layout + newest-intact fallback walk."""

    def _write_snapshots(self, root, steps):
        m = make_model()
        opt = AdamW(m.named_parameters(), m.named_gradients())
        for step in steps:
            save_model_state(checkpoint_dir_for_step(root, step), m, opt, step=step)

    def test_list_checkpoints_sorted_and_filtered(self, tmp_path):
        self._write_snapshots(tmp_path, [4, 0, 2])
        (tmp_path / "not-a-snapshot").mkdir()
        assert [s for s, _ in list_checkpoints(tmp_path)] == [0, 2, 4]

    def test_latest_valid_prefers_newest(self, tmp_path):
        self._write_snapshots(tmp_path, [0, 2, 4])
        step, path, skipped = latest_valid_checkpoint(tmp_path)
        assert step == 4
        assert path.name == "step-00000004"
        assert skipped == []

    def test_latest_valid_skips_corrupt_newest(self, tmp_path):
        self._write_snapshots(tmp_path, [0, 2, 4])
        shard = checkpoint_dir_for_step(tmp_path, 4) / "state.npz"
        data = bytearray(shard.read_bytes())
        data[0] ^= 0xFF
        shard.write_bytes(bytes(data))
        step, path, skipped = latest_valid_checkpoint(tmp_path)
        assert step == 2
        assert [s for s, _ in skipped] == [4]

    def test_latest_valid_none_when_all_corrupt(self, tmp_path):
        self._write_snapshots(tmp_path, [0])
        (checkpoint_dir_for_step(tmp_path, 0) / "state.npz").unlink()
        assert latest_valid_checkpoint(tmp_path) is None

    def test_latest_valid_skips_snapshot_without_manifest(self, tmp_path):
        self._write_snapshots(tmp_path, [0, 2])
        (checkpoint_dir_for_step(tmp_path, 2) / "manifest.json").unlink()
        step, _, skipped = latest_valid_checkpoint(tmp_path)
        assert step == 0
        assert [s for s, _ in skipped] == [2]

    def test_latest_valid_empty_root(self, tmp_path):
        assert latest_valid_checkpoint(tmp_path / "nowhere") is None
