"""Differential tests for the fault-injection + recovery subsystem.

The headline matrix: every fault class, injected into every parallel
configuration (DP=2, TP=2, 2-stage pipeline), recovered by the
:class:`RecoveryManager` — and the recovered run must finish **bit
identical** (parameters, AdamW moments, step counters, per-step losses)
to an uninterrupted run.  A second suite asserts replayability: the same
``(plan, seed)`` reproduces the same faults and the same recovery log.
"""

import numpy as np
import pytest

from repro.faults import (
    CHECKPOINT_CORRUPTION,
    COLLECTIVE_TRANSIENT,
    DEGRADED_LINK,
    FAULT_KINDS,
    LOSS_SPIKE,
    PREEMPTION,
    DataParallelFaultLoop,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultRecoveryExhausted,
    PipelineFaultLoop,
    RecoveryManager,
    RetryPolicy,
    TensorParallelFaultLoop,
    corrupt_file,
    fingerprint,
    run_clean,
    single_fault_plans,
)
from repro.model import assign_state
from repro.train.checkpointing import load_snapshot, save_snapshot

TOTAL_STEPS = 6
CKPT_EVERY = 2
# Aligned with the checkpoint cadence so checkpoint-corruption events hit a
# snapshot that actually gets written (snapshots land on even steps).
FAULT_STEP = 4
LOOP_SEED = 3
PLAN_SEED = 7

LOOPS = (DataParallelFaultLoop, TensorParallelFaultLoop, PipelineFaultLoop)

# Recovery-log actions each fault class must produce (proof the scenario
# exercised its recovery path rather than passing vacuously).
EXPECTED_ACTIONS = {
    PREEMPTION: ("preemption", "resume"),
    COLLECTIVE_TRANSIENT: ("collective-retry",),
    DEGRADED_LINK: ("degraded-link",),
    CHECKPOINT_CORRUPTION: ("checkpoint-fallback", "resume"),
    LOSS_SPIKE: ("spike-discard",),
}


@pytest.fixture(scope="module")
def clean_runs():
    """Uninterrupted reference (losses, fingerprint) per parallel config."""
    return {
        cls.name: run_clean(cls(seed=LOOP_SEED), TOTAL_STEPS) for cls in LOOPS
    }


def scenario_params():
    for cls in LOOPS:
        for kind, plan in single_fault_plans(FAULT_STEP, seed=PLAN_SEED):
            yield pytest.param(cls, kind, plan, id=f"{cls.name}-{kind}")


def managed_run(loop_cls, plan, root, **mgr_kwargs):
    loop = loop_cls(seed=LOOP_SEED)
    manager = RecoveryManager(
        FaultInjector(plan), root, checkpoint_every=CKPT_EVERY, **mgr_kwargs
    )
    result = manager.run(loop, TOTAL_STEPS)
    return loop, manager, result


def assert_fingerprints_equal(actual, expected):
    assert set(actual) == set(expected)
    for key in expected:
        np.testing.assert_array_equal(actual[key], expected[key], err_msg=key)


@pytest.mark.faults
class TestDifferentialRecovery:
    """Faulted-then-recovered must be bit-identical to never-faulted."""

    @pytest.mark.parametrize("loop_cls,kind,plan", scenario_params())
    def test_fault_matrix_bit_identical(self, tmp_path, clean_runs, loop_cls, kind, plan):
        clean_losses, clean_fp = clean_runs[loop_cls.name]
        loop, manager, result = managed_run(loop_cls, plan, tmp_path)

        assert manager.injector.injected, "plan injected nothing — vacuous scenario"
        actions = result.log.actions()
        for action in EXPECTED_ACTIONS[kind]:
            assert action in actions, f"{kind} recovery never did {action}"

        assert_fingerprints_equal(fingerprint(loop), clean_fp)
        np.testing.assert_array_equal(
            np.asarray(result.losses), np.asarray(clean_losses)
        )

    @pytest.mark.parametrize("loop_cls,kind,plan", scenario_params())
    def test_fault_matrix_replays_identically(self, tmp_path, loop_cls, kind, plan):
        loop_a, mgr_a, res_a = managed_run(loop_cls, plan, tmp_path / "a")
        loop_b, mgr_b, res_b = managed_run(loop_cls, plan, tmp_path / "b")

        assert res_a.log.to_json() == res_b.log.to_json()
        assert mgr_a.injector.injected == mgr_b.injector.injected
        assert res_a.restarts == res_b.restarts
        assert_fingerprints_equal(fingerprint(loop_a), fingerprint(loop_b))


class TestRecoveryPaths:
    """Targeted behaviors of individual recovery mechanisms (fast: TP loop)."""

    def test_preemption_resumes_from_latest_snapshot(self, tmp_path):
        plan = FaultPlan([FaultEvent(PREEMPTION, 5)], seed=PLAN_SEED)
        _, _, result = managed_run(TensorParallelFaultLoop, plan, tmp_path)
        resumes = [e for e in result.log.events if e.action == "resume"]
        assert len(resumes) == 1
        # preempted at step 5: snapshots exist for 0, 2, 4 -> resume from 4
        assert resumes[0].detail["snapshot"] == "step-00000004"
        assert result.restarts == 1

    def test_corruption_falls_back_to_previous_snapshot(self, tmp_path):
        plan = FaultPlan(
            [
                FaultEvent(CHECKPOINT_CORRUPTION, 4),
                FaultEvent(PREEMPTION, 5),
            ],
            seed=PLAN_SEED,
        )
        _, _, result = managed_run(TensorParallelFaultLoop, plan, tmp_path)
        fallbacks = [e for e in result.log.events if e.action == "checkpoint-fallback"]
        resumes = [e for e in result.log.events if e.action == "resume"]
        assert [e.detail["snapshot"] for e in fallbacks] == ["step-00000004"]
        assert [e.detail["snapshot"] for e in resumes] == ["step-00000002"]

    def test_corruption_target_missing_from_snapshot_is_an_error(self, tmp_path):
        # a corruption that hits no file would pass without a fallback
        plan = FaultPlan(
            [
                FaultEvent(CHECKPOINT_CORRUPTION, 4, target="optimizer.npz"),
                FaultEvent(PREEMPTION, 5),
            ],
            seed=PLAN_SEED,
        )
        with pytest.raises(ValueError, match="optimizer.npz"):
            managed_run(TensorParallelFaultLoop, plan, tmp_path)

    def test_truncated_shard_also_detected(self, tmp_path, clean_runs):
        plan = FaultPlan(
            [
                FaultEvent(CHECKPOINT_CORRUPTION, 4, mode="truncate"),
                FaultEvent(PREEMPTION, 5),
            ],
            seed=PLAN_SEED,
        )
        loop, _, result = managed_run(TensorParallelFaultLoop, plan, tmp_path)
        assert result.log.count("checkpoint-fallback") == 1
        assert_fingerprints_equal(fingerprint(loop), clean_runs["tp"][1])

    def test_transient_retry_count_matches_plan(self, tmp_path):
        plan = FaultPlan(
            [FaultEvent(COLLECTIVE_TRANSIENT, 2, attempts=3)], seed=PLAN_SEED
        )
        _, _, result = managed_run(TensorParallelFaultLoop, plan, tmp_path)
        assert result.log.count("collective-retry") == 3
        assert result.restarts == 0
        assert result.log.total_simulated_delay() > 0.0

    def test_spike_is_discarded_not_applied(self, tmp_path, clean_runs):
        plan = FaultPlan([FaultEvent(LOSS_SPIKE, 1, factor=1e8)], seed=PLAN_SEED)
        loop, _, result = managed_run(TensorParallelFaultLoop, plan, tmp_path)
        spikes = [e for e in result.log.events if e.action == "spike-discard"]
        assert len(spikes) == 1
        assert spikes[0].detail["grad_norm"] > 1e3
        assert_fingerprints_equal(fingerprint(loop), clean_runs["tp"][1])

    def test_degraded_link_slows_comm_but_not_math(self, tmp_path):
        baseline_loop, _, _ = managed_run(
            TensorParallelFaultLoop, FaultPlan([], seed=PLAN_SEED), tmp_path / "base"
        )
        plan = FaultPlan(
            [FaultEvent(DEGRADED_LINK, 1, factor=50.0, duration=3)], seed=PLAN_SEED
        )
        degraded_loop, _, _ = managed_run(
            TensorParallelFaultLoop, plan, tmp_path / "slow"
        )
        base_s = baseline_loop.communicators()[0].stats.simulated_seconds
        slow_s = degraded_loop.communicators()[0].stats.simulated_seconds
        assert slow_s > base_s
        assert_fingerprints_equal(
            fingerprint(degraded_loop), fingerprint(baseline_loop)
        )

    def test_retry_budget_exhaustion_raises(self, tmp_path):
        plan = FaultPlan(
            [FaultEvent(COLLECTIVE_TRANSIENT, 1, attempts=10)], seed=PLAN_SEED
        )
        with pytest.raises(FaultRecoveryExhausted):
            managed_run(
                TensorParallelFaultLoop,
                plan,
                tmp_path,
                retry=RetryPolicy(max_attempts=3),
            )

    def test_restart_budget_exhaustion_raises(self, tmp_path):
        plan = FaultPlan(
            [FaultEvent(PREEMPTION, s) for s in (1, 2, 3)], seed=PLAN_SEED
        )
        with pytest.raises(FaultRecoveryExhausted):
            managed_run(TensorParallelFaultLoop, plan, tmp_path, max_restarts=2)


def expected_state_keys(loop):
    """Every parameter plus its AdamW ``m::``/``v::`` moments; for TP, of
    every rank's shards."""
    if isinstance(loop, TensorParallelFaultLoop):
        shards = [
            (f"rank{r}::param::", f"rank{r}::", params)
            for r, params in enumerate(loop.trainer.shard_params)
        ]
    elif isinstance(loop, DataParallelFaultLoop):
        shards = [("", "", loop.ddp.model.named_parameters())]
    else:
        shards = [("", "", loop.model.named_parameters())]
    keys = set()
    for param_prefix, moment_prefix, params in shards:
        assert params
        for name in params:
            keys |= {
                param_prefix + name,
                f"{moment_prefix}m::{name}",
                f"{moment_prefix}v::{name}",
            }
    return keys


class TestSnapshotContents:
    """The snapshot holds the whole training state, and only it."""

    @pytest.mark.parametrize("loop_cls", LOOPS, ids=[c.name for c in LOOPS])
    def test_snapshot_keys_are_params_plus_moments(self, tmp_path, loop_cls):
        loop, _, _ = managed_run(loop_cls, FaultPlan([], seed=PLAN_SEED), tmp_path)
        arrays, meta = load_snapshot(tmp_path / f"step-{TOTAL_STEPS:08d}")
        assert set(arrays) == expected_state_keys(loop)
        assert meta["optimizer_step_count"] == TOTAL_STEPS
        expected = fingerprint(loop)
        assert expected.pop("step_count")[0] == TOTAL_STEPS
        assert_fingerprints_equal(arrays, expected)

    @pytest.mark.parametrize("loop_cls", LOOPS, ids=[c.name for c in LOOPS])
    def test_restore_into_other_seed_matches_clean(self, tmp_path, clean_runs, loop_cls):
        clean_losses, clean_fp = clean_runs[loop_cls.name]
        source = loop_cls(seed=LOOP_SEED)
        run_clean(source, FAULT_STEP)
        save_snapshot(tmp_path / "s", source.state(), FAULT_STEP, source.step_count)

        loop = loop_cls(seed=LOOP_SEED + 1)
        loop.build()
        # batches follow the reference run; every array build() seeded
        # differently must be overwritten by the restore
        loop.seed = LOOP_SEED
        arrays, meta = load_snapshot(tmp_path / "s")
        assign_state(loop.state(), arrays)
        loop.step_count = meta["optimizer_step_count"]
        losses = []
        for step in range(meta["step"], TOTAL_STEPS):
            losses.append(float(loop.compute_step(step)))
            loop.grad_norm()
            loop.apply_step(step)
        assert_fingerprints_equal(fingerprint(loop), clean_fp)
        np.testing.assert_array_equal(losses, clean_losses[FAULT_STEP:])
        if isinstance(loop, DataParallelFaultLoop):
            assert loop.ddp.replicas_in_sync()


class TestPlanAndInjector:
    """Plan validation and injector determinism."""

    def test_single_fault_plans_cover_every_kind(self):
        kinds = [kind for kind, _ in single_fault_plans(FAULT_STEP)]
        assert sorted(kinds) == sorted(FAULT_KINDS)

    def test_plan_rejects_bad_events(self):
        with pytest.raises(ValueError):
            FaultPlan([FaultEvent("meteor-strike", 0)])
        with pytest.raises(ValueError):
            FaultPlan([FaultEvent(DEGRADED_LINK, 0, factor=0.5)])
        with pytest.raises(ValueError):
            FaultPlan([FaultEvent(LOSS_SPIKE, 0, factor=1.0)])
        with pytest.raises(ValueError):
            FaultPlan([FaultEvent(CHECKPOINT_CORRUPTION, 0, mode="shred")])
        with pytest.raises(ValueError):
            FaultPlan([FaultEvent(PREEMPTION, -1)])

    def test_plan_sorts_events_by_step(self):
        plan = FaultPlan(
            [FaultEvent(LOSS_SPIKE, 5, factor=10.0), FaultEvent(PREEMPTION, 1)]
        )
        assert [e.step for e in plan.events] == [1, 5]

    def test_injector_reset_replays_same_faults(self, tmp_path):
        plan = FaultPlan(
            [
                FaultEvent(COLLECTIVE_TRANSIENT, 1, attempts=2),
                FaultEvent(LOSS_SPIKE, 2, factor=1e6),
            ],
            seed=PLAN_SEED,
        )
        injector = FaultInjector(plan)
        loop = TensorParallelFaultLoop(seed=LOOP_SEED)
        manager = RecoveryManager(injector, tmp_path / "a", checkpoint_every=CKPT_EVERY)
        manager.run(loop, TOTAL_STEPS)
        first = list(injector.injected)
        manager.checkpoint_root = tmp_path / "b"
        manager.run(TensorParallelFaultLoop(seed=LOOP_SEED), TOTAL_STEPS)
        assert injector.injected == first

    def test_events_fire_at_most_once(self, tmp_path):
        # preemption at step 2: after resume the run passes step 2 again,
        # but the event must not re-fire (else the run would never finish).
        plan = FaultPlan([FaultEvent(PREEMPTION, 2)], seed=PLAN_SEED)
        _, manager, result = managed_run(TensorParallelFaultLoop, plan, tmp_path)
        assert result.restarts == 1
        assert len(manager.injector.injected) == 1

    def test_corrupt_file_is_deterministic(self, tmp_path):
        payload = bytes(range(256)) * 4
        for mode in ("flip", "truncate"):
            # the damage offset is keyed by (seed, file name), so identical
            # names in different directories must corrupt identically
            (tmp_path / f"a-{mode}").mkdir()
            (tmp_path / f"b-{mode}").mkdir()
            a = tmp_path / f"a-{mode}" / "shard.bin"
            b = tmp_path / f"b-{mode}" / "shard.bin"
            a.write_bytes(payload)
            b.write_bytes(payload)
            corrupt_file(a, mode, seed=5)
            corrupt_file(b, mode, seed=5)
            assert a.read_bytes() == b.read_bytes()
            assert a.read_bytes() != payload

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_delay=5.0, jitter=0.25)
        delays = [policy.delay(seed=9, step=3, attempt=a) for a in (1, 2, 3, 4)]
        assert delays == [policy.delay(seed=9, step=3, attempt=a) for a in (1, 2, 3, 4)]
        for attempt, delay in enumerate(delays, start=1):
            raw = min(1.0 * 2.0 ** (attempt - 1), 5.0)
            assert raw <= delay <= raw * 1.25
        assert policy.delay(seed=9, step=3, attempt=1) != pytest.approx(
            policy.delay(seed=10, step=3, attempt=1)
        )
