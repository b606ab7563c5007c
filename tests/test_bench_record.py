"""tools/bench_record.py: two results files fold into one BENCH record."""

import importlib.util
import json
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(REPO, "tools", "bench_record.py")
)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

BENCHMARK = {
    "command": ["python3", "benchmarks/perf/run.py"],
    "workloads": [{"name": "w"}, {"name": "never-run"}],
    "end_to_end": [
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "cost", "unit": "us", "better": "lower", "bound": 0.25},
    ],
}


def _document(sha, rows, trace_extra=True):
    runs = [
        {
            "workload": "w",
            "seed": seed,
            "seconds": 30.0,
            "trace": 0,
            "git_sha": sha,
            "failed": 0,
            "metrics": {
                "rate": {"value": rate, "unit": "1/s"},
                "cost": {"value": cost, "unit": "us"},
            },
        }
        for seed, rate, cost in rows
    ]
    if trace_extra:  # a traced run in the same file is not a pair member
        runs.append(dict(runs[0], trace=1, seed=99))
    return {"schema": 1, "runs": runs}


class TestFold:
    def test_runs_medians_quartiles_and_wins(self):
        parent = _document("aaa", [(1, 100.0, 9.0), (2, 110.0, 8.0), (3, 120.0, 7.0)])
        change = _document("bbb", [(1, 130.0, 9.0), (2, 105.0, 6.0), (3, 150.0, 5.0)])
        record = bench_record.fold(parent, change, BENCHMARK)
        assert record["schema"] == bench_record.SCHEMA
        assert record["git_sha"] == {"parent": ["aaa"], "change": ["bbb"]}
        assert list(record["workloads"]) == ["w"]
        body = record["workloads"]["w"]
        assert body["seeds"] == [1, 2, 3]
        rate, cost = body["metrics"]["rate"], body["metrics"]["cost"]
        assert rate["parent"]["runs"] == [100.0, 110.0, 120.0]
        assert rate["parent"]["median"] == 110.0
        assert rate["parent"]["q1"] == 100.0 and rate["parent"]["q3"] == 120.0
        assert (rate["wins"], rate["ties"], rate["losses"]) == (2, 0, 1)
        assert rate["median_change"] == pytest.approx(20.0 / 110.0)
        # lower is better: 9 -> 9 ties, 8 -> 6 and 7 -> 5 win
        assert (cost["wins"], cost["ties"], cost["losses"]) == (2, 1, 0)
        # sorted keys, so two records diff
        text = json.dumps(record, sort_keys=True)
        assert json.loads(text) == record

    def test_unpaired_runs_are_refused(self):
        parent = _document("aaa", [(1, 1.0, 1.0), (2, 1.0, 1.0)])
        change = _document("bbb", [(1, 1.0, 1.0), (3, 1.0, 1.0)])
        with pytest.raises(ValueError, match="do not pair up"):
            bench_record.fold(parent, change, BENCHMARK)
