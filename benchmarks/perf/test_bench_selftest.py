"""Every workload at 1/20 size, through the command the driver runs
(the two that BENCHMARK.json does not gate included): each metric
BENCHMARK.json lists is emitted with its unit, the run is correct, and
the traced layers plus the residual add up."""

import json
import os
import subprocess

import pytest

from bench_workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)

LAYER_SELF_TIMES = (
    "protocols.self_us_per_msg",
    "protocols.reliable.self_us_per_msg",
    "net.codec.encode_self_us_per_msg",
    "net.codec.decode_self_us_per_msg",
    "net.transport.self_us_per_msg",
    "net.host.self_us_per_msg",
    "obs.self_us_per_msg",
    "wal.self_us_per_msg",
)


def run_benchmark(workload, trace):
    done = subprocess.run(
        BENCHMARK["command"]
        + ["--workload", workload, "--seed", "0", "--seconds", "0.8"]
        + ["--trace", str(trace), "--scale", "0.05", "--label", "selftest"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_the_gated_workloads_exist():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_are_emitted(workload):
    result = run_benchmark(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_per_layer_metrics_are_emitted_and_add_up(workload):
    result = run_benchmark(workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    value = {name: m["value"] for name, m in result["metrics"].items()}
    accounted = sum(value[name] for name in LAYER_SELF_TIMES)
    total = value["trace.wall_us_per_msg"]
    assert (
        accounted
        + value["trace.span_overhead_us_per_msg"]
        + value["trace.residual_us_per_msg"]
    ) == pytest.approx(total, rel=0.05)
    assert 0 < accounted < total


def test_an_empty_checkout_fails_without_a_result(tmp_path):
    """With only BENCHMARK.json and this directory present there is no
    program to measure: non-zero exit, no JSON line."""
    import shutil

    target = tmp_path / "benchmarks" / "perf"
    shutil.copytree(
        HERE,
        target,
        ignore=shutil.ignore_patterns("results", ".work", "__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        BENCHMARK["command"] + ["--workload", "tcp-fifo-3", "--seed", "0"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
