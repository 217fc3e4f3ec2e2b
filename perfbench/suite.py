"""Run every workload, each in its own process, and print every metric.

    python3 perfbench/suite.py --seed 1
        one untraced and one traced run per workload: the end-to-end
        metrics under the names the issue gives them, the per-layer
        metrics with the end-to-end metric each should move, and the
        tracing overhead (traced over untraced end-to-end figures);
    python3 perfbench/suite.py --seed 1 --repeats 10 [--write]
        ten untraced runs per workload on seeds 1..10: each metric's
        median and quartile spread; ``--write`` renders BENCHMARK.json
        with bounds of BOUND_FACTOR times the widest spread seen.

Run from the repository root.  Raw results go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402
from measure import quartile_spread  # noqa: E402

RUN_TIMEOUT_S = 180
BOUND_FACTOR = 4.0  # bound = this many times the widest spread measured
BOUND_FLOOR, BOUND_CAP = 0.05, 0.25
SETUP_BOUND = BOUND_CAP  # set-up is the noisiest figure; it gets the largest bound


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``run.py`` process; its result plus the ``#`` lines it printed."""
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith("# "):
            key, _, payload = line[2:].partition(" ")
            out[key] = json.loads(payload)
    return out


def show_once(workloads, seed: int, seconds: int) -> None:
    per_layer = {name: (unit, moves) for name, unit, _, moves in spec.PER_LAYER}
    for workload in workloads:
        plain = run_one(workload, seed, seconds, 0)
        traced = run_one(workload, seed, seconds, 1)
        report = plain["report"]
        print(f"== {workload} (seed {seed}): correct={plain['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']}")
        print(f"  {'failed_frac':<44} {report['failed_frac']:>12.4g} ratio")
        if workload == "chat-shared":
            print(f"  {'slo_ok_frac':<44} {report['slo_ok_frac']:>12.4g} ratio")
        for name, unit, _ in spec.END_TO_END:
            value = plain["metrics"][name]["value"]
            label = spec.SLOT_MEANING[workload].get(name, name)
            overhead = traced["untraced-comparable"][name] / value - 1.0
            print(f"  {label:<44} {value:>12.4g} {unit:<5} [{name}; traced {overhead:+.1%}]")
        print(f"  report: {json.dumps(report)}")
        print(f"  env: {json.dumps(plain['env'])}")
        print("  per-layer (traced run):")
        for name, m in traced["metrics"].items():
            unit, moves = per_layer.get(name, ("s", "self time"))
            print(f"    {name:<52} {m['value']:>12.4g} {unit:<6} moves {moves}")


def repeat(workloads, first_seed: int, repeats: int, seconds: int) -> dict:
    """``{workload: {metric: [values]}}`` over ``repeats`` seeds.

    Workloads take turns (seed by seed), so each one's runs sample the
    machine over the whole session rather than over one stretch of it.
    """
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    runs = {w: [] for w in workloads}
    for i in range(repeats):
        for workload in workloads:
            runs[workload].append(run_one(workload, first_seed + i, seconds, 0))
    values = {}
    for workload in workloads:
        with open(os.path.join(HERE, "out", f"repeats-{workload}.json"), "w") as fh:
            json.dump(runs[workload], fh, indent=1)
        bad = [r for r in runs[workload] if not r["correct"] or r["failed"]]
        values[workload] = {
            name: [r["metrics"][name]["value"] for r in runs[workload]]
            for name, _, _ in spec.END_TO_END
        }
        print(f"== {workload}: {repeats} runs, {len(bad)} with failures")
        for name, unit, _ in spec.END_TO_END:
            v = values[workload][name]
            print(f"  {name:<14} median {statistics.median(v):>12.5g} {unit:<5} "
                  f"spread {quartile_spread(v):7.2%}")
    return values


def bounds_from(values: dict) -> dict:
    bounds = {}
    for name, _, _ in spec.END_TO_END:
        widest = max(quartile_spread(v[name]) for v in values.values())
        bound = math.ceil(100 * BOUND_FACTOR * widest) / 100
        bounds[name] = min(BOUND_CAP, max(BOUND_FLOOR, bound))
    bounds["setup_s"] = SETUP_BOUND
    return bounds


def benchmark_json(bounds: dict) -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": spec.RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in spec.WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bounds[n]}
            for n, u, b in spec.END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in spec.PER_LAYER
        ]
        + [
            {"name": f"{layer}.self_s", "unit": "s", "better": "lower"}
            for layer in spec.SELF_TIME_LAYERS
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(spec.WORKLOAD_NAMES))
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = set(workloads) - set(spec.WORKLOAD_NAMES)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")
    if args.repeats == 1:
        show_once(workloads, args.seed, args.seconds)
        return 0
    values = repeat(workloads, args.seed, args.repeats, args.seconds)
    if args.write:
        if workloads != spec.WORKLOAD_NAMES:
            parser.error("--write needs every workload")
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(benchmark_json(bounds_from(values)), fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
