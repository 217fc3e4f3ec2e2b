"""Deterministic-simulation tests: replay identity, faults, overload.

The replay contract: ``(workload args, seed)`` fully determines the
event log, the metrics snapshot, every request's output tokens, and the
end-of-simulation virtual time — with or without an injected fault plan.
Faults may cost work (preemption restarts) and time (degraded links) but
never change any request's final output.
"""

import dataclasses

import pytest

from repro.faults import (
    DEGRADED_LINK,
    LOSS_SPIKE,
    PREEMPTION,
    FaultEvent,
    FaultPlan,
    SERVE_FAULT_KINDS,
    ServeFaultInjector,
)
from repro.model import ModelConfig, TransformerLM
from repro.serve import (
    RequestStatus,
    SchedulerConfig,
    ServeConfig,
    make_workload,
    simulate,
)

VOCAB = 64


@pytest.fixture(scope="module")
def model():
    return TransformerLM(
        ModelConfig(
            vocab_size=VOCAB, d_model=32, n_layers=2, n_heads=4, max_seq_len=96
        ),
        seed=0,
    )


def workload(n=12, seed=7, **kw):
    return make_workload(n, seed=seed, vocab_size=VOCAB, **kw)


class TestWorkload:
    def test_same_seed_same_workload(self):
        assert workload() == workload()

    def test_different_seed_different_workload(self):
        assert workload(seed=7) != workload(seed=8)

    def test_arrivals_increase_and_share_scaffold(self):
        specs = workload(n=6, scaffold_len=10)
        arrivals = [s.arrival for s in specs]
        assert arrivals == sorted(arrivals)
        scaffold = specs[0].prompt_ids[:10]
        assert all(s.prompt_ids[:10] == scaffold for s in specs)

    def test_vocab_floor(self):
        with pytest.raises(ValueError):
            make_workload(3, seed=0, vocab_size=3)


class TestReplayIdentity:
    def test_clean_replay_is_bit_identical(self, model):
        specs = workload(temperature=0.8)
        first = simulate(model, specs)
        second = simulate(model, specs)
        assert first.replay_key_view() == second.replay_key_view()

    def test_every_request_reaches_a_terminal_state(self, model):
        specs = workload(n=16, temperature=0.8)
        result = simulate(model, specs)
        assert len(result.summaries) == len(specs)
        terminal = {"finished", "expired", "cancelled", "rejected"}
        assert all(s["status"] in terminal for s in result.summaries)

    def test_generate_and_score_both_present(self, model):
        result = simulate(model, workload(n=16))
        kinds = {s["kind"] for s in result.summaries}
        assert kinds == {"generate", "score"}

    def test_metrics_account_for_all_requests(self, model):
        specs = workload(n=10)
        result = simulate(model, specs)
        m = result.metrics
        assert m["submitted"] == len(specs)
        assert (
            m["finished"] + m["expired"] == m["submitted"]
        )  # nothing lost, nothing stuck


class TestFaultedReplay:
    PLAN = FaultPlan(
        events=(
            FaultEvent(kind=PREEMPTION, step=2, rank=0),
            FaultEvent(kind=PREEMPTION, step=5, rank=1),
            FaultEvent(kind=DEGRADED_LINK, step=4, duration=6, factor=4.0),
        ),
        seed=9,
    )

    def test_faults_never_change_outputs(self, model):
        specs = workload(temperature=0.9)
        clean = simulate(model, specs)
        faulted = simulate(model, specs, fault_hook=ServeFaultInjector(self.PLAN))
        assert faulted.outputs == clean.outputs
        assert any(e[0] == "preempt" for e in faulted.events)

    def test_faulted_replay_is_bit_identical(self, model):
        specs = workload(temperature=0.9)
        first = simulate(model, specs, fault_hook=ServeFaultInjector(self.PLAN))
        second = simulate(model, specs, fault_hook=ServeFaultInjector(self.PLAN))
        assert first.replay_key_view() == second.replay_key_view()

    def test_injected_record_replays_identically(self, model):
        specs = workload()
        injector = ServeFaultInjector(self.PLAN)
        simulate(model, specs, fault_hook=injector)
        recorded = list(injector.injected)
        assert recorded  # the plan actually fired
        injector.reset()
        assert injector.injected == []
        simulate(model, specs, fault_hook=injector)
        assert injector.injected == recorded

    def test_degraded_link_slows_virtual_time_only(self, model):
        specs = workload()
        clean = simulate(model, specs)
        slow_plan = FaultPlan(
            events=(FaultEvent(kind=DEGRADED_LINK, step=0, duration=50, factor=10.0),),
            seed=1,
        )
        degraded = simulate(
            model, specs, fault_hook=ServeFaultInjector(slow_plan)
        )
        assert degraded.end_time > clean.end_time
        assert degraded.outputs == clean.outputs

    def test_preemption_is_recorded_per_request(self, model):
        # all-GENERATE traffic so a decoding request is running at step 2
        specs = workload(temperature=0.9, generate_fraction=1.0)
        plan = FaultPlan(
            events=(FaultEvent(kind=PREEMPTION, step=2, rank=0),), seed=3
        )
        result = simulate(model, specs, fault_hook=ServeFaultInjector(plan))
        assert sum(s["preemptions"] for s in result.summaries) == 1
        assert result.metrics["preempted"] == 1

    def test_unsupported_fault_kind_rejected(self):
        plan = FaultPlan(
            events=(FaultEvent(kind=LOSS_SPIKE, step=1, factor=2.0),), seed=0
        )
        with pytest.raises(ValueError, match="cannot inject"):
            ServeFaultInjector(plan)
        assert PREEMPTION in SERVE_FAULT_KINDS


class TestOverloadAndDeadlines:
    TIGHT = ServeConfig(
        queue_capacity=2,
        scheduler=SchedulerConfig(token_budget=96, max_running=1),
    )

    def test_burst_overload_drops_deterministically(self, model):
        specs = workload(n=16, mean_gap=0.0)  # everything arrives at once
        first = simulate(model, specs, config=self.TIGHT, max_retries=0)
        second = simulate(model, specs, config=self.TIGHT, max_retries=0)
        assert first.dropped  # the burst exceeded capacity
        assert first.dropped == second.dropped
        assert first.metrics["rejected"] >= len(first.dropped)

    def test_retry_after_hint_eventually_admits(self, model):
        specs = workload(n=16, mean_gap=0.0)
        result = simulate(model, specs, config=self.TIGHT, max_retries=50)
        assert result.dropped == []
        assert result.metrics["finished"] == len(specs)
        # backpressure costs time, never answers
        assert result.outputs == simulate(model, specs).outputs

    def test_deadlines_expire_queued_requests(self, model):
        specs = workload(n=16, mean_gap=0.0, deadline_offset=0.5)
        result = simulate(model, specs, config=self.TIGHT, max_retries=50)
        assert result.metrics["expired"] > 0
        expired = [s for s in result.summaries if s["status"] == "expired"]
        assert expired
        assert all(s["finish_reason"] == "deadline" for s in expired)
        assert all(s["n_output"] == 0 for s in expired)

    def test_expired_requests_never_decode(self, model):
        specs = [
            dataclasses.replace(s, deadline_offset=0.01)
            for s in workload(n=8, mean_gap=0.0)
        ]
        result = simulate(model, specs, config=self.TIGHT)
        statuses = {s["request_id"]: s["status"] for s in result.summaries}
        # the first admitted request runs; late ones expire while queued
        assert statuses["req-0000"] == RequestStatus.FINISHED.value
        assert "expired" in statuses.values()
