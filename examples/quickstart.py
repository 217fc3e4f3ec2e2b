#!/usr/bin/env python
"""Quickstart: build a micro world, pretrain a base model, benchmark it.

This walks the whole public API surface in ~2 minutes of CPU time:

1. build a :class:`MicroWorld` (knowledge base -> synthetic astro-ph
   archive -> MCQ benchmark);
2. pretrain the ``LLaMA-2-7B`` micro analogue;
3. evaluate it with the paper's base-model next-token method;
4. print the regenerated Table I from the calibrated scale surrogate.

Run:  python examples/quickstart.py [--steps N] [--questions N]
"""

import argparse
import time

from repro.analysis import table_one_from_surrogate
from repro.core import get_entry
from repro.core.pretrain import BasePretrainConfig, BasePretrainer
from repro.core.world import MicroWorld
from repro.eval import BatchedEvaluationRunner, TokenPredictionEvaluator


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=250,
                        help="pretraining steps (250 = fast demo; the model "
                        "groks the MCQ circuit near ~800)")
    parser.add_argument("--questions", type=int, default=40)
    args = parser.parse_args()

    print("== 1. building the micro world ==")
    world = MicroWorld.build_test(seed=0)
    print(f"   astronomy facts: {len(world.astro)}, general facts: "
          f"{len(world.general)}")
    print(f"   archive papers:  {len(world.archive)}")
    print(f"   benchmark:       {len(world.benchmark)} MCQs "
          f"({len(world.benchmark.test)} test / {len(world.benchmark.dev)} dev)")
    q = world.benchmark.test[0]
    print("\n   sample question:")
    print(f"     Question : {q.question}")
    for line in q.option_block().split("\n"):
        print(f"     {line}")
    print(f"     (correct: {q.correct_letter})")

    print("\n== 2. pretraining the LLaMA-2-7B micro analogue ==")
    entry = get_entry("LLaMA-2-7B")
    t0 = time.time()
    pretrainer = BasePretrainer(world, BasePretrainConfig(total_steps=args.steps))
    base = pretrainer.run(entry)
    print(f"   {base.model.num_parameters():,} parameters, "
          f"{args.steps} steps, final loss "
          f"{base.history.smoothed_final_loss():.3f} "
          f"({time.time() - t0:.0f}s)")

    print("\n== 3. base-model next-token benchmarking (Section V-B) ==")
    evaluator = TokenPredictionEvaluator(
        base.model,
        base.tokenizer,
        few_shot=world.benchmark.few_shot(2),
        prefix_ids=base.prefix_ids,
    )
    print(f"   discovered answer-token convention: "
          f"{evaluator.answer_map.convention}")
    runner = BatchedEvaluationRunner(world.benchmark, max_questions=args.questions)
    result = runner.run(evaluator, "token_base", entry.name)
    print(f"   accuracy: {result.score_percent:.1f}% on "
          f"{result.n_questions} questions (chance = 25%)")

    print("\n== 4. Table I from the calibrated scale surrogate ==")
    print(table_one_from_surrogate().render(show_paper=True))


if __name__ == "__main__":
    main()
