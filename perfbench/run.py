"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload chat-shared --seed 1 --seconds 15 --trace 0

Run from the repository root; the program under test is imported from
``./src``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or with ``--trace 1`` the per-layer ones).  Lines before it
starting with ``#`` record the environment and the workload's own
figures.  A traced run also writes its spans to ``perfbench/out/``.
"""

import os

# Pin BLAS/OpenMP pools before numpy is imported (by the workloads): one
# thread keeps runs comparable on a shared machine.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse
import json
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": int(THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import spec
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {spec.WORKLOAD_NAMES}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    tracer = spans.Tracer()
    if args.trace:
        spans.install_layer_spans(tracer)
    result = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    tracer.unwrap_all()

    units = {name: unit for name, unit, _ in spec.END_TO_END}
    e2e = {k: {"value": result.metrics[k], "unit": units[k]} for k in units}
    report = dict(result.report, failed_frac=result.failed / result.attempted)
    print("# env " + json.dumps(environment()))
    print("# report " + json.dumps(report))
    if args.trace:
        print("# untraced-comparable " + json.dumps({k: v["value"] for k, v in e2e.items()}))
        measured = spans.layer_metrics(tracer, spec.SETUP_REPEATS)
        measured.update(result.layer)
        units = {name: unit for name, unit, *_ in spec.PER_LAYER}
        metrics = {
            name: {"value": measured.get(name, 0.0), "unit": units.get(name, "s")}
            for name in spec.per_layer_names()
        }
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        metrics = e2e
    print(
        json.dumps(
            {
                "correct": result.wrong == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
