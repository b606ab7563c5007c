"""Results files and ``--compare``.

A results file (``results/<label>.json``) accumulates the runs made
under one label: each invocation appends its metrics, every rep's raw
value, and the machine it ran on.  Keys are sorted and the layout is
versioned so two files diff cleanly.  ``compare`` judges file B against
file A by the rule BENCHMARK.json fixes: per workload and end-to-end
metric, B's median may not be worse than A's by more than the bound.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from typing import Any, Dict, List, Optional, Sequence

SCHEMA = 1
HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.normpath(os.path.join(HERE, "..", "..", "BENCHMARK.json"))


def git_sha() -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=HERE,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def append_run(path: str, workload: str, args: Any, result: Any) -> None:
    """Add this invocation to the results file at ``path``."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    document: Dict[str, Any] = {"schema": SCHEMA, "runs": []}
    if os.path.exists(path):
        with open(path) as handle:
            loaded = json.load(handle)
        if loaded.get("schema") == SCHEMA:
            document = loaded
    document["runs"].append(
        {
            "workload": workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "scale": args.scale,
            "trace": args.trace,
            "git_sha": git_sha(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "failures": result.failures[:10],
            "notes": result.notes,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in result.metrics.items()
            },
            "raw": result.raw,
        }
    )
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def spread(values: Sequence[float]) -> float:
    """Interquartile range over the median (0 with fewer than 2 values)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(centre) if centre else 0.0


def _values(document: Dict[str, Any], workload: str, metric: str) -> List[float]:
    return [
        run["metrics"][metric]["value"]
        for run in document["runs"]
        if run["workload"] == workload
        and not run["trace"]
        and metric in run["metrics"]
    ]


def judge(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> "tuple[str, float]":
    """(``ok`` | ``worse`` | ``unresolved``, B's relative change)."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    change = (median_b - median_a) / abs(median_a) if median_a else 0.0
    worse_by = change if better == "lower" else -change
    if max(spread(a), spread(b)) > bound:
        # Too noisy to call unchanged -- unless B beats A on every run.
        if better == "lower":
            clean_win = max(b) < min(a)
        else:
            clean_win = min(b) > max(a)
        return ("ok" if clean_win else "unresolved"), change
    return ("worse" if worse_by > bound else "ok"), change


def compare(path_a: str, path_b: str, benchmark_json: Optional[str] = None) -> int:
    """Print the comparison table; non-zero when any pairing is worse."""
    with open(benchmark_json or BENCHMARK_JSON) as handle:
        benchmark = json.load(handle)
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    print(
        "%-16s %-16s %12s %12s %8s %6s %7s %7s  %s"
        % ("workload", "metric", "A median", "B median", "change", "bound",
           "A iqr", "B iqr", "verdict")
    )
    verdicts: List[str] = []
    for workload in benchmark["workloads"]:
        for metric in benchmark["end_to_end"]:
            values_a = _values(a, workload["name"], metric["name"])
            values_b = _values(b, workload["name"], metric["name"])
            if not values_a or not values_b:
                continue
            verdict, change = judge(
                values_a, values_b, metric["better"], metric["bound"]
            )
            verdicts.append(verdict)
            print(
                "%-16s %-16s %12.4f %12.4f %+7.1f%% %5.0f%% %6.1f%% %6.1f%%  %s"
                % (
                    workload["name"],
                    metric["name"],
                    statistics.median(values_a),
                    statistics.median(values_b),
                    100 * change,
                    100 * metric["bound"],
                    100 * spread(values_a),
                    100 * spread(values_b),
                    verdict,
                )
            )
    for run in a["runs"] + b["runs"]:
        if not run["correct"]:
            print(
                "INCORRECT %s seed %s: %d of %d failed"
                % (run["workload"], run["seed"], run["failed"], run["attempted"])
            )
            verdicts.append("worse")
    print(
        "%d ok, %d worse, %d unresolved"
        % (verdicts.count("ok"), verdicts.count("worse"), verdicts.count("unresolved"))
    )
    return 1 if "worse" in verdicts else 0
