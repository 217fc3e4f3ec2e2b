#!/usr/bin/env python
"""The paper's central mechanism, really trained: capacity-dependent CPT.

Pretrains the 7B-tier and 70B-tier micro analogues, continually pretrains
both on the same AIC corpus with the same recipe (the paper used one recipe
across scales — Section VI explains this is exactly why the small model
suffered), and reports base-token scores before and after.

Expected shape (matches Table I): the small-capacity model *loses* points
(catastrophic forgetting) while the large one *gains*.

Run:  python examples/catastrophic_forgetting.py      (~20-30 min on 1 CPU)
      python examples/catastrophic_forgetting.py --fast  (weaker but quicker)
"""

import argparse
import time

from repro.core import AstroLLaMAPipeline, PipelineConfig, get_entry
from repro.core.pretrain import BasePretrainConfig
from repro.core.world import MicroWorld
from repro.eval import BatchedEvaluationRunner, TokenPredictionEvaluator


def token_base_score(world, model, tokenizer, max_questions=None) -> float:
    evaluator = TokenPredictionEvaluator(
        model,
        tokenizer,
        few_shot=world.benchmark.few_shot(2),
        prefix_ids=[tokenizer.vocab.eos_id],
    )
    runner = BatchedEvaluationRunner(world.benchmark, max_questions=max_questions)
    return runner.run(evaluator, "token_base", "model").score_percent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true",
                        help="smaller world + fewer steps (shape may be noisier)")
    args = parser.parse_args()

    world = MicroWorld.build_test(seed=0) if args.fast else MicroWorld.build_bench(seed=0)
    config = PipelineConfig()
    if args.fast:
        config.pretrain = BasePretrainConfig(total_steps=600)
    pipe = AstroLLaMAPipeline(world, config)

    rows = []
    for native_name, astro_name in [
        ("LLaMA-2-7B", "AstroLLaMA-2-7B-AIC"),
        ("LLaMA-2-70B", "AstroLLaMA-2-70B-AIC"),
    ]:
        native = get_entry(native_name)
        astro = get_entry(astro_name)
        t0 = time.time()
        print(f"pretraining {native_name} micro analogue "
              f"({native.family.base_train_steps} steps)...")
        base = pipe.base_for(native)
        before = token_base_score(world, base.model, base.tokenizer)
        print(f"  base token-prediction score: {before:.1f}%  "
              f"({time.time() - t0:.0f}s)")

        t0 = time.time()
        print(f"continual pretraining -> {astro_name} "
              f"(dataset={astro.cpt_dataset}, same recipe for both tiers)...")
        cpt_model, _ = pipe.run_cpt(astro, base)
        after = token_base_score(world, cpt_model, base.tokenizer)
        print(f"  post-CPT score: {after:.1f}%  (Δ {after - before:+.1f})  "
              f"({time.time() - t0:.0f}s)")
        rows.append((native_name, before, after))

    print("\n=== summary (paper deltas: 7B -7.0, 70B +2.1) ===")
    for name, before, after in rows:
        print(f"  {name:<14s} {before:5.1f}% -> {after:5.1f}%   Δ {after - before:+.1f}")
    small_delta = rows[0][2] - rows[0][1]
    large_delta = rows[1][2] - rows[1][1]
    verdict = "REPRODUCED" if large_delta > small_delta else "NOT reproduced"
    print(f"\n  capacity ordering (large CPT delta > small CPT delta): {verdict}")


if __name__ == "__main__":
    main()
