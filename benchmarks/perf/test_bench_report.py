"""The ``--compare`` verdicts."""

import json

import bench_report

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5]


def test_within_the_bound_is_ok():
    verdict, change = bench_report.judge(STEADY, [v * 0.95 for v in STEADY], "higher", 0.1)
    assert verdict == "ok" and abs(change + 0.05) < 1e-9


def test_past_the_bound_is_worse_in_the_metric_s_direction():
    slower = [v * 1.2 for v in STEADY]
    assert bench_report.judge(STEADY, slower, "lower", 0.1)[0] == "worse"
    assert bench_report.judge(STEADY, slower, "higher", 0.1)[0] == "ok"


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins():
    noisy = [80.0, 120.0, 100.0, 90.0, 110.0]
    assert bench_report.judge(noisy, noisy, "lower", 0.1)[0] == "unresolved"
    assert bench_report.judge(noisy, [v / 2 for v in noisy], "lower", 0.1)[0] == "ok"


def test_compare_exits_non_zero_on_worse(tmp_path, capsys):
    benchmark = {
        "workloads": [{"name": "w", "why": ""}],
        "end_to_end": [
            {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}
        ],
    }

    def results(values):
        return {
            "schema": bench_report.SCHEMA,
            "runs": [
                {
                    "workload": "w", "trace": 0, "seed": i, "correct": True,
                    "attempted": 1, "failed": 0,
                    "metrics": {"latency_ms": {"value": v, "unit": "ms"}},
                }
                for i, v in enumerate(values)
            ],
        }

    paths = {}
    for name, document in (
        ("benchmark", benchmark),
        ("a", results(STEADY)),
        ("same", results(STEADY)),
        ("slow", results([v * 1.3 for v in STEADY])),
    ):
        paths[name] = tmp_path / (name + ".json")
        paths[name].write_text(json.dumps(document))
    assert bench_report.compare(paths["a"], paths["same"], paths["benchmark"]) == 0
    assert bench_report.compare(paths["a"], paths["slow"], paths["benchmark"]) == 1
    assert "worse" in capsys.readouterr().out
