"""The end-to-end AstroLLaMA pipeline for one zoo entry.

Stages (paper Section III):

1. **Base pretraining** — streaming general+astronomy mixture (native
   LLaMA analogue);
2. **CPT** — continual pretraining on the entry's astro dataset
   (Abstract / AIC / Summary), full-parameter or LoRA;
3. **SFT** — the paper-ratio conversation mixture;
4. **Evaluation** — the three benchmarking methods over the world's MCQ
   benchmark.

Native baselines skip stage 2.  The result carries both models (base and
instruct) plus every score, so Table I assembles directly from a list of
:class:`PipelineResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.pretrain import BasePretrainConfig, BasePretrainer, PretrainedBase
from repro.core.scorecards import ScoreCard
from repro.core.world import MicroWorld
from repro.core.zoo import ModelZooEntry
from repro.corpus.datasets import (
    CorpusDataset,
    build_abstract_dataset,
    build_aic_dataset,
    build_summary_dataset,
    with_qa_bridge,
)
from repro.eval.full_instruct import FullInstructEvaluator
from repro.eval.runner import BatchedEvaluationRunner, EvaluationResult
from repro.eval.token_pred import TokenPredictionEvaluator
from repro.model.lora import LoRAConfig, apply_lora, merge_lora
from repro.model.sampling import GenerationConfig
from repro.model.transformer import TransformerLM
from repro.sft_data.mixer import MixtureSpec, build_paper_mixture
from repro.train.cpt import ContinualPretrainer, CPTConfig
from repro.train.sft import SFTConfig, SupervisedFineTuner
from repro.train.trainer import TrainingHistory


# The micro world's fixed stage settings.
CPT_LEARNING_RATE = 9e-4  # x4 for LoRA entries
CPT_BATCH_SIZE = 16
CPT_QA_BRIDGE = 0.3  # fraction of QA-style bridge documents mixed into CPT
LORA_RANK = 8
SFT_LEARNING_RATE = 4e-4
SFT_BATCH_SIZE = 8
FEW_SHOT = 2
EVAL_BATCH_SIZE = 32  # suffix batch for prefix-cached token scoring


def clone_model(model: TransformerLM) -> TransformerLM:
    """Deep copy a model (same config, independent parameters)."""
    twin = TransformerLM(model.config)
    twin.load_state(model.state_copy())
    return twin


@dataclass
class PipelineConfig:
    """The stage settings a run varies, tuned for the micro world; the
    rest are this module's constants.

    The CPT learning rate / epoch ladder is the micro analogue of the
    paper's fixed recipe: all entries share it (the paper used the same
    hyperparameters across scales, which is exactly why small models
    suffered — see Section VI).
    """

    pretrain: BasePretrainConfig = field(default_factory=BasePretrainConfig)
    cpt_epochs: float = 6.0
    sft_scale: float = 0.01  # fraction of the paper's 31k mixture
    sft_epochs: float = 2.0
    max_questions: Optional[int] = None
    gen_max_new_tokens: int = 32
    seed: int = 0


@dataclass
class PipelineResult:
    """Everything one zoo entry's run produced."""

    entry: ModelZooEntry
    base: PretrainedBase
    instruct_model: TransformerLM
    cpt_history: Optional[TrainingHistory]
    sft_history: TrainingHistory
    evaluations: Dict[str, EvaluationResult] = field(default_factory=dict)

    def score_card(self) -> ScoreCard:
        return ScoreCard(
            entry=self.entry,
            scores={
                method: result.score_percent
                for method, result in self.evaluations.items()
            },
        )


class AstroLLaMAPipeline:
    """Runs zoo entries against one micro world."""

    def __init__(
        self, world: MicroWorld, config: Optional[PipelineConfig] = None
    ) -> None:
        self.world = world
        self.config = config or PipelineConfig()
        self._base_cache: Dict[str, PretrainedBase] = {}
        self._cpt_cache: Dict[str, tuple] = {}
        self._result_cache: Dict[str, PipelineResult] = {}

    # ------------------------------------------------------------------
    # stage 1: base model (cached per family+tier+coverage)
    # ------------------------------------------------------------------
    def base_for(self, entry: ModelZooEntry) -> PretrainedBase:
        key = f"{entry.family.name}/{entry.tier}/{entry.base_astro_coverage}"
        if key not in self._base_cache:
            pretrainer = BasePretrainer(self.world, self.config.pretrain)
            self._base_cache[key] = pretrainer.run(entry, seed=self.config.seed)
        cached = self._base_cache[key]
        if cached.entry.name != entry.name:
            # same weights, different zoo identity
            cached = PretrainedBase(
                entry=entry,
                model=cached.model,
                tokenizer=cached.tokenizer,
                covered_fact_ids=cached.covered_fact_ids,
                history=cached.history,
            )
        return cached

    # ------------------------------------------------------------------
    # stage 2: CPT
    # ------------------------------------------------------------------
    def cpt_dataset(self, name: str) -> CorpusDataset:
        builders = {
            "abstract": build_abstract_dataset,
            "aic": build_aic_dataset,
            "summary": build_summary_dataset,
        }
        if name not in builders:
            raise KeyError(f"unknown CPT dataset {name!r}")
        return with_qa_bridge(
            builders[name](self.world.archive),
            self.world.astro,
            CPT_QA_BRIDGE,
            seed=self.config.seed,
        )

    def run_cpt(
        self, entry: ModelZooEntry, base: PretrainedBase
    ) -> tuple:
        """Returns (cpt_model, history)."""
        cfg = self.config
        assert entry.cpt_dataset is not None
        dataset = self.cpt_dataset(entry.cpt_dataset)
        model = clone_model(base.model)
        tokenizer = base.tokenizer
        docs = [tokenizer.encode(d) for d in dataset.documents]
        adapters = None
        if entry.cpt_lora:
            adapters = apply_lora(
                model, LoRAConfig(rank=LORA_RANK), seed=cfg.seed
            )
        cpt = ContinualPretrainer(
            CPTConfig(
                learning_rate=CPT_LEARNING_RATE
                * (4.0 if entry.cpt_lora else 1.0),
                total_batch_size=CPT_BATCH_SIZE,
                max_token_length=model.config.max_seq_len,
                epochs=cfg.cpt_epochs,
                bf16=False,
                seed=cfg.seed,
            )
        )
        result = cpt.run(model, docs, tokenizer.vocab.eos_id)
        if adapters is not None:
            merge_lora(model)
        return model, result.history

    # ------------------------------------------------------------------
    # stage 3: SFT
    # ------------------------------------------------------------------
    def run_sft(
        self, base_model: TransformerLM, tokenizer
    ) -> tuple:
        """Returns (instruct_model, history)."""
        cfg = self.config
        mixture = build_paper_mixture(
            self.world.archive,
            self.world.astro,
            self.world.general,
            spec=MixtureSpec().scaled(cfg.sft_scale),
            seed=cfg.seed,
        )
        model = clone_model(base_model)
        tuner = SupervisedFineTuner(
            tokenizer,
            pad_id=tokenizer.vocab.pad_id,
            eos_id=tokenizer.vocab.eos_id,
            config=SFTConfig(
                learning_rate=SFT_LEARNING_RATE,
                total_batch_size=SFT_BATCH_SIZE,
                max_token_length=min(192, model.config.max_seq_len),
                epochs=cfg.sft_epochs,
                bf16=False,
                seed=cfg.seed,
            ),
        )
        result = tuner.run(model, mixture.examples)
        return model, result.history

    # ------------------------------------------------------------------
    # stage 4: evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        base_model: TransformerLM,
        instruct_model: TransformerLM,
        tokenizer,
        model_name: str,
    ) -> Dict[str, EvaluationResult]:
        cfg = self.config
        runner = BatchedEvaluationRunner(self.world.benchmark, cfg.max_questions)
        few_shot = self.world.benchmark.few_shot(FEW_SHOT)
        prefix = [tokenizer.vocab.eos_id]
        out: Dict[str, EvaluationResult] = {}

        base_eval = TokenPredictionEvaluator(
            base_model,
            tokenizer,
            few_shot,
            prefix_ids=prefix,
            batch_size=EVAL_BATCH_SIZE,
        )
        out["token_base"] = runner.run(base_eval, "token_base", model_name)

        instr_eval = TokenPredictionEvaluator(
            instruct_model,
            tokenizer,
            few_shot,
            prefix_ids=prefix,
            batch_size=EVAL_BATCH_SIZE,
        )
        out["token_instruct"] = runner.run(
            instr_eval, "token_instruct", model_name
        )

        full_eval = FullInstructEvaluator(
            instruct_model,
            tokenizer,
            generation=GenerationConfig(
                max_new_tokens=cfg.gen_max_new_tokens,
                temperature=0.0,
                stop_token_ids=(tokenizer.vocab.eos_id,),
            ),
            prefix_ids=prefix,
        )
        out["full_instruct"] = runner.run(
            full_eval, "full_instruct", model_name
        )
        return out

    # ------------------------------------------------------------------
    def run(self, entry: ModelZooEntry) -> PipelineResult:
        """All four stages for one zoo entry.

        Stage outputs are cached per entry (and bases per tier), so a
        harness that runs the whole zoo plus per-mechanism studies trains
        each model exactly once.
        """
        if entry.name in self._result_cache:
            return self._result_cache[entry.name]
        base = self.base_for(entry)
        cpt_history = None
        if entry.cpt_dataset is not None:
            if entry.name in self._cpt_cache:
                knowledge_model, cpt_history = self._cpt_cache[entry.name]
            else:
                knowledge_model, cpt_history = self.run_cpt(entry, base)
                self._cpt_cache[entry.name] = (knowledge_model, cpt_history)
        else:
            knowledge_model = base.model
        instruct_model, sft_history = self.run_sft(knowledge_model, base.tokenizer)
        evaluations = self.evaluate(
            knowledge_model, instruct_model, base.tokenizer, entry.name
        )
        result = self._assemble_result(
            entry, base, knowledge_model, instruct_model,
            cpt_history, sft_history, evaluations,
        )
        self._result_cache[entry.name] = result
        return result

    def _assemble_result(
        self,
        entry,
        base,
        knowledge_model,
        instruct_model,
        cpt_history,
        sft_history,
        evaluations,
    ) -> PipelineResult:
        return PipelineResult(
            entry=entry,
            base=PretrainedBase(
                entry=entry,
                model=knowledge_model,
                tokenizer=base.tokenizer,
                covered_fact_ids=base.covered_fact_ids,
                history=base.history,
            ),
            instruct_model=instruct_model,
            cpt_history=cpt_history,
            sft_history=sft_history,
            evaluations=evaluations,
        )
