"""Training framework — the reproduction's LMFlow analogue.

Provides the two-stage recipe from the paper (Section III):

* :mod:`repro.train.cpt` — continual pretraining on a domain corpus
  (next-token objective over packed documents);
* :mod:`repro.train.sft` — supervised fine-tuning on conversations
  (next-token objective with the prompt positions masked out of the loss).

Both drivers share one run config, :class:`~repro.train.trainer.RunConfig`
(its fields, checks and epoch-to-step budget), and the
:class:`~repro.train.trainer.Trainer` it builds: AdamW with fixed betas
(0.9, 0.95) and eps 1e-8, linear warmup into cosine decay to 0, gradient
accumulation, global-norm clipping and bf16 parameter rounding.
``CPTConfig`` and ``SFTConfig`` differ only in their defaults, the numbers
the paper reports (lr 2e-5 / 3e-7, total batch 96 / 48, max length 512 /
2048; warmup ratio 0.03, bf16 and one epoch for both); the drivers differ
only in how they build microbatches (packed windows or padded pairs).
"""

from repro.train.optimizer import AdamW, clip_grad_norm
from repro.train.schedule import CosineSchedule
from repro.train.dataloader import (
    PackedDataset,
    PaddedBatch,
    pack_documents,
    pad_examples,
)
from repro.train.trainer import RunConfig, Trainer, TrainingConfig, TrainingHistory
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
from repro.train.cpt import ContinualPretrainer, CPTConfig, CPTResult
from repro.train.sft import (
    ChatTemplate,
    SFTConfig,
    SFTExample,
    SFTResult,
    SupervisedFineTuner,
)
from repro.train.metrics import corpus_perplexity

__all__ = [
    "AdamW",
    "clip_grad_norm",
    "CosineSchedule",
    "PackedDataset",
    "PaddedBatch",
    "pack_documents",
    "pad_examples",
    "RunConfig",
    "Trainer",
    "TrainingConfig",
    "TrainingHistory",
    "CheckpointIntegrityError",
    "checkpoint_dir_for_step",
    "latest_valid_checkpoint",
    "list_checkpoints",
    "load_snapshot",
    "save_snapshot",
    "set_post_save_hook",
    "verify_checkpoint",
    "write_manifest",
    "ContinualPretrainer",
    "CPTConfig",
    "CPTResult",
    "ChatTemplate",
    "SFTExample",
    "SFTConfig",
    "SFTResult",
    "SupervisedFineTuner",
    "corpus_perplexity",
]
