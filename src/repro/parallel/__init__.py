"""Simulated HPC substrate.

The paper's training runs used multi-GPU A100 nodes (OLCF Frontier
allocation) through LMFlow's distributed backends.  Without GPUs, this
package reproduces the *system* layer in simulation:

* :mod:`repro.parallel.mesh` — device/rank topology (nodes x GPUs);
* :mod:`repro.parallel.collectives` — MPI-style collectives over simulated
  ranks with a ring-algorithm alpha-beta cost model;
* :mod:`repro.parallel.data_parallel` — DDP training: sharded batches,
  gradient all-reduce, replica-consistency invariants;
* :mod:`repro.parallel.pipeline_parallel` — GPipe/1F1B schedules with
  bubble accounting, plus a numerically exact pipelined executor;
* :mod:`repro.parallel.cluster` — A100 cluster model with FLOP-rule
  GPU-hour estimation (regenerates the paper's cost accounting).

Collectives run all ranks in one process, one after another; the cost
model supplies the *timing* a real cluster would exhibit, which is what the
scaling benchmarks measure.  (Within each rank, the training forward and
backward split the rank's rows across the host's cores:
:class:`~repro.model.transformer.TransformerLM`.)
"""

from repro.parallel.mesh import Device, DeviceMesh
from repro.parallel.collectives import (
    CollectiveHook,
    CollectiveStats,
    Communicator,
    RingCostModel,
)
from repro.parallel.data_parallel import DataParallelTrainer, DDPConfig, DDPResult
from repro.parallel.pipeline_parallel import (
    PipelineOp,
    PipelineSchedule,
    PipelinedModel,
    gpipe_schedule,
    one_f_one_b_schedule,
)
from repro.parallel.tensor_parallel import (
    ColumnParallelLinear,
    RowParallelLinear,
    TensorParallelMLPTrainer,
    mlp_tp_forward,
)
from repro.parallel.zero_optimizer import Zero1AdamW, zero1_memory_per_rank
from repro.parallel.cluster import (
    A100_40GB,
    A100_80GB,
    ClusterModel,
    GPUSpec,
    TrainingCostEstimate,
)

__all__ = [
    "Device",
    "DeviceMesh",
    "Communicator",
    "CollectiveHook",
    "RingCostModel",
    "CollectiveStats",
    "DataParallelTrainer",
    "DDPConfig",
    "DDPResult",
    "PipelineOp",
    "PipelineSchedule",
    "PipelinedModel",
    "gpipe_schedule",
    "one_f_one_b_schedule",
    "Zero1AdamW",
    "zero1_memory_per_rank",
    "ColumnParallelLinear",
    "RowParallelLinear",
    "TensorParallelMLPTrainer",
    "mlp_tp_forward",
    "GPUSpec",
    "A100_40GB",
    "A100_80GB",
    "ClusterModel",
    "TrainingCostEstimate",
]
