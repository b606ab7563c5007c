#!/usr/bin/env python3
"""The repo benchmark: one command per workload.

    python3 benchmarks/perf/run.py --workload tcp-fifo-3 --seed 0 --seconds 30 --trace 0
    python3 benchmarks/perf/run.py --workload tcp-fifo-3 --seed 0 --seconds 30 --trace 1
    python3 benchmarks/perf/run.py --compare results/A.json results/B.json

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (BENCHMARK.json lists both); the last line of standard output is
the JSON result object.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

STARTED = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.normpath(os.path.join(HERE, "..", "..", "src"))
if not os.path.isdir(os.path.join(SOURCE, "repro")):
    sys.exit("benchmarks/perf/run.py: no program to measure at %s" % SOURCE)
sys.path.insert(0, SOURCE)

import bench_report  # noqa: E402
from bench_workloads import WORKLOADS, ReferenceClock, RunContext  # noqa: E402


def import_seconds(reps: int = 7) -> float:
    """Median time, in reference seconds, a fresh interpreter takes to
    import everything the workloads use (``bench_workloads`` pulls in the
    tcp, shard, wal and verification stacks) -- the import share of
    ``setup_s``.  Measured in child interpreters because an import can
    only happen once here."""
    code = "import sys; sys.path[:0] = %r; import bench_workloads" % [HERE, SOURCE]
    clock = ReferenceClock()
    samples = []
    for _ in range(reps):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        spent = time.perf_counter() - started
        samples.append(clock.scale() * spent)
    return statistics.median(samples)


def parse_args(argv: "list[str]") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--label",
        default="latest",
        help="results are appended to results/<label>.json",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="shrink every workload's size (the self-test uses 0.05)",
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("A.json", "B.json"),
        help="compare two results files instead of running",
    )
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required (or --compare A.json B.json)")
    return args


def main(argv: "list[str]") -> int:
    args = parse_args(argv)
    if args.compare is not None:
        return bench_report.compare(*args.compare)
    work_dir = os.path.join(HERE, ".work", "%d" % os.getpid())
    context = RunContext(
        seed=args.seed,
        seconds=args.seconds,
        work_dir=work_dir,
        import_seconds=0.0 if args.trace else import_seconds(),
        scale=args.scale,
        started=STARTED,
    )
    workload = WORKLOADS[args.workload]
    os.makedirs(work_dir, exist_ok=True)
    try:
        if args.trace:
            import bench_layers

            result = bench_layers.run(workload, context)
        else:
            result = workload.run(context)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("workload %s  seed %d  trace %d" % (workload.name, args.seed, args.trace))
    for note in result.notes:
        print("  " + note)
    for failure in result.failures[:10]:
        print("  FAILED " + failure)
    for name in sorted(result.metrics):
        value, unit = result.metrics[name]
        print("  %-44s %14.4f %s" % (name, value, unit))
    bench_report.append_run(
        os.path.join(HERE, "results", args.label + ".json"),
        workload.name,
        args,
        result,
    )
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(result.metrics.items())
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
