"""Deterministic fault injection + recovery for the simulated cluster.

The subsystem has four layers, lowest to highest:

* :mod:`repro.faults.errors` — the injected-fault exception taxonomy;
* :mod:`repro.faults.plan` — declarative, seeded fault schedules
  (:class:`FaultPlan` / :class:`FaultEvent`);
* :mod:`repro.faults.injector` — the sole component that fires faults:
  through the communicator and checkpoint post-save hooks, and the step
  calls the recovery manager makes around each step of the loop it drives
  (lint rule R6 keeps ad-hoc raises out of ``parallel/`` and ``train/``);
* :mod:`repro.faults.recovery` + :mod:`repro.faults.harness` — the
  recovery policy (:class:`RecoveryManager`) and the DP/TP/pipeline loop
  adapters it drives.

The headline guarantee, asserted by ``tests/test_faults.py``: a run that
faults and recovers finishes with **bit-identical** parameters, AdamW
moments and step counters to a run that never faulted — and the same
``(plan, seed)`` replays the same faults and the same recovery log.
"""

from repro.faults.errors import (
    FaultInjectionError,
    FaultRecoveryExhausted,
    PreemptionError,
    TransientCollectiveError,
)
from repro.faults.plan import (
    CHECKPOINT_CORRUPTION,
    COLLECTIVE_TRANSIENT,
    DEGRADED_LINK,
    FAULT_KINDS,
    LOSS_SPIKE,
    PREEMPTION,
    FaultEvent,
    FaultPlan,
    single_fault_plans,
)
from repro.faults.injector import FaultInjector, corrupt_file
from repro.faults.recovery import (
    FaultableLoop,
    RecoveryEvent,
    RecoveryLog,
    RecoveryManager,
    RecoveryResult,
    RetryPolicy,
)
from repro.faults.harness import (
    ALL_LOOPS,
    DataParallelFaultLoop,
    PipelineFaultLoop,
    TensorParallelFaultLoop,
    fingerprint,
    run_clean,
)
from repro.faults.serve import SERVE_FAULT_KINDS, ServeFaultInjector

__all__ = [
    "FaultInjectionError",
    "PreemptionError",
    "TransientCollectiveError",
    "FaultRecoveryExhausted",
    "PREEMPTION",
    "COLLECTIVE_TRANSIENT",
    "DEGRADED_LINK",
    "CHECKPOINT_CORRUPTION",
    "LOSS_SPIKE",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "single_fault_plans",
    "FaultInjector",
    "corrupt_file",
    "FaultableLoop",
    "RetryPolicy",
    "RecoveryEvent",
    "RecoveryLog",
    "RecoveryManager",
    "RecoveryResult",
    "DataParallelFaultLoop",
    "TensorParallelFaultLoop",
    "PipelineFaultLoop",
    "ALL_LOOPS",
    "fingerprint",
    "run_clean",
    "SERVE_FAULT_KINDS",
    "ServeFaultInjector",
]
