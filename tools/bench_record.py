"""Fold two benchmark results files into one diffable BENCH_<pr>.json.

``benchmarks/perf/run.py --label <label>`` appends every run it makes to
``benchmarks/perf/results/<label>.json``.  Given the file of the parent
commit's runs and the file of the change's -- made as alternating pairs,
the i-th run of a workload on one side sharing its seed with the i-th on
the other -- this writes, per workload and end-to-end metric of
BENCHMARK.json: every run, the median and quartiles of each side, and
how many pairs the change won.  Keys are sorted and the layout is
versioned, so two such files diff.

Usage:  python tools/bench_record.py PARENT.json CHANGE.json --out BENCH_21.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List

SCHEMA = 1
ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))


def _runs(document: Dict[str, Any], workload: str) -> List[Dict[str, Any]]:
    """The untraced runs of ``workload``, in the order they were made."""
    return [
        run
        for run in document["runs"]
        if run["workload"] == workload and not run["trace"]
    ]


def _side(values: List[float]) -> Dict[str, Any]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"runs": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def fold(
    parent: Dict[str, Any], change: Dict[str, Any], benchmark: Dict[str, Any]
) -> Dict[str, Any]:
    """The BENCH document for two results documents (see the module
    docstring); a workload either side never ran is left out."""
    workloads: Dict[str, Any] = {}
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        before, after = _runs(parent, workload), _runs(change, workload)
        if not before and not after:
            continue
        seeds = [run["seed"] for run in before]
        if len(seeds) < 2 or seeds != [run["seed"] for run in after]:
            raise ValueError(
                "%s: runs do not pair up (parent seeds %s, change seeds %s)"
                % (workload, seeds, [run["seed"] for run in after])
            )
        metrics: Dict[str, Any] = {}
        for metric in benchmark["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            a = [run["metrics"][name]["value"] for run in before]
            b = [run["metrics"][name]["value"] for run in after]
            wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
            ties = sum(x == y for x, y in zip(a, b))
            entry = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": _side(a),
                "change": _side(b),
                "pairs": len(a),
                "wins": wins,
                "ties": ties,
                "losses": len(a) - wins - ties,
            }
            base = entry["parent"]["median"]
            entry["median_change"] = (
                (entry["change"]["median"] - base) / abs(base) if base else 0.0
            )
            metrics[name] = entry
        workloads[workload] = {
            "seeds": seeds,
            "seconds": sorted({run["seconds"] for run in before + after}),
            "failed": {
                "parent": sum(run["failed"] for run in before),
                "change": sum(run["failed"] for run in after),
            },
            "metrics": metrics,
        }
    return {
        "schema": SCHEMA,
        "command": " ".join(benchmark["command"])
        + " --workload <w> --seed <n> --seconds <s> --trace 0",
        "git_sha": {
            side: sorted({run["git_sha"] for run in document["runs"]})
            for side, document in (("parent", parent), ("change", change))
        },
        "workloads": workloads,
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="results file of the parent commit's runs")
    parser.add_argument("change", help="results file of the change's runs")
    parser.add_argument("--out", required=True, help="the BENCH_<pr>.json to write")
    args = parser.parse_args(argv)
    documents = []
    for path in (args.parent, args.change, os.path.join(ROOT, "BENCHMARK.json")):
        with open(path) as handle:
            documents.append(json.load(handle))
    record = fold(*documents)
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for workload, body in record["workloads"].items():
        for name, entry in body["metrics"].items():
            print(
                "%-14s %-16s %12.4f -> %12.4f %+6.1f%%  wins %d/%d"
                % (
                    workload,
                    name,
                    entry["parent"]["median"],
                    entry["change"]["median"],
                    100 * entry["median_change"],
                    entry["wins"],
                    entry["pairs"],
                )
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
