"""Training framework — the reproduction's LMFlow analogue.

Provides the two-stage recipe from the paper (Section III):

* :mod:`repro.train.cpt` — continual pretraining on a domain corpus
  (next-token objective over packed documents);
* :mod:`repro.train.sft` — supervised fine-tuning on conversations
  (next-token objective with the prompt positions masked out of the loss).

Both drivers share the :class:`~repro.train.trainer.Trainer` engine, which
implements the optimizer step loop with warmup + cosine decay, gradient
accumulation, global-norm clipping and bf16 parameter rounding — the same
knobs the paper reports (lr 2e-5 / 3e-7, warmup ratio 0.03, cosine decay,
bf16, one epoch).
"""

from repro.train.optimizer import AdamW, clip_grad_norm
from repro.train.schedule import CosineSchedule
from repro.train.dataloader import (
    PackedDataset,
    PaddedBatch,
    pack_documents,
    pad_examples,
)
from repro.train.trainer import Trainer, TrainingConfig, TrainingHistory
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
from repro.train.metrics import corpus_perplexity, ema

__all__ = [
    "AdamW",
    "clip_grad_norm",
    "CosineSchedule",
    "PackedDataset",
    "PaddedBatch",
    "pack_documents",
    "pad_examples",
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
    "ema",
]
