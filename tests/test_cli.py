"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestClassifyCommand:
    def test_dsl_predicate(self, capsys):
        assert main(["classify", "x.s < y.s & y.r < x.r"]) == 0
        out = capsys.readouterr().out
        assert "tagged" in out
        assert "min order 1" in out

    def test_catalog_name(self, capsys):
        assert main(["classify", "mobile-handoff"]) == 0
        assert "general" in capsys.readouterr().out

    def test_distinct_flag_changes_crowns(self, capsys):
        main(["classify", "x.s < y.r & y.s < x.r"])
        loose = capsys.readouterr().out
        main(["classify", "x.s < y.r & y.s < x.r", "--distinct"])
        strict = capsys.readouterr().out
        assert "not_implementable" in loose
        assert "general" in strict

    def test_family_specification(self, capsys):
        assert main(["classify", "logically-synchronous"]) == 0
        out = capsys.readouterr().out
        assert "general" in out and "crown-2" in out

    def test_contraction_steps_shown(self, capsys):
        main(["classify", "example-1"])
        # example-1 resolves via the catalogue (single predicate) and its
        # min-order witness is the 2-cycle, already canonical.
        out = capsys.readouterr().out
        assert "tagged" in out

    def test_bad_predicate_raises(self):
        with pytest.raises(Exception):
            main(["classify", "x.q < y.s"])


class TestCatalogCommand:
    def test_lists_every_entry(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "causal-B2" in out
        assert "second-before-first" in out
        assert "not_implementable" in out


class TestSimulateCommand:
    def test_causal_round_trip(self, capsys):
        code = main(
            ["simulate", "x.s < y.s & y.r < x.r", "--messages", "15", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "OK" in out
        assert "all delivered:     True" in out

    def test_catalog_spec_with_colors(self, capsys):
        code = main(
            ["simulate", "global-forward-flush", "--messages", "15", "--seed", "2"]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_diagram_flag(self, capsys):
        code = main(
            [
                "simulate",
                "x.s < y.s & y.r < x.r",
                "--messages",
                "4",
                "--processes",
                "2",
                "--diagram",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "P0 |" in out and "P1 |" in out

    def test_unimplementable_spec_fails_cleanly(self):
        with pytest.raises(ValueError, match="not implementable"):
            main(["simulate", "second-before-first"])

    def test_trace_and_metrics_out(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "run.json"
        metrics_path = tmp_path / "metrics.json"
        code = main(
            [
                "simulate",
                "x.s < y.s & y.r < x.r",
                "--messages",
                "12",
                "--seed",
                "4",
                "--trace-out",
                str(trace_path),
                "--metrics-out",
                str(metrics_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "perfetto" in out

        trace = json.loads(trace_path.read_text())
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == 3 * 12  # inhibit/transit/buffer per message
        assert any(e["ph"] == "s" for e in trace["traceEvents"])

        metrics = json.loads(metrics_path.read_text())
        assert metrics["messages.delivered"]["value"] == 12
        assert "latency.end_to_end" in metrics
        # The hosts' names and the recorder's, in one object: what the
        # export always carried, less the two gauges that copied a count.
        assert set(metrics) == {
            "buffer.occupancy",
            "channel.reordered",
            "latency.buffering",
            "latency.delivery",
            "latency.end_to_end",
            "latency.inhibition",
            "latency.network",
            "messages.delayed",
            "messages.delivered",
            "messages.invoked",
            "messages.user",
            "retx.messages",
            "tag.bytes",
            "tag.bytes.per_message",
        }

    def test_metrics_out_under_faults_is_pinned(self, tmp_path, capsys):
        """The hosts write every lifecycle metric the recorder used to
        rebuild from probes: same names, same values as when it did."""
        import json
        import os

        metrics_path = tmp_path / "m.json"
        code = main(
            [
                "simulate",
                "x.s < y.s & y.r < x.r",
                "--messages",
                "12",
                "--seed",
                "4",
                "--drop-rate",
                "0.2",
                "--fault-seed",
                "3",
                "--metrics-out",
                str(metrics_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        golden = os.path.join(
            os.path.dirname(__file__), "data", "simulate_metrics_golden.json"
        )
        with open(golden) as handle:
            assert json.loads(metrics_path.read_text()) == json.load(handle)


# `repro profile`'s table at --messages 20 --seed 1 (the verb is now
# `repro compare`).  Every value stays pinned; a header naming a per-run
# figure gained "/run".
PROFILE_TABLE = """\
protocol    msgs  inhibit  network  buffer  invoke->r  p95     ctrl  ctrlB  tagB/msg  reordered  stuck
----------  ----  -------  -------  ------  ---------  ------  ----  -----  --------  ---------  -----
tagless     20    0.00     20.14    0.00    20.14      36.16   0     0      1.0       5          0
fifo        20    0.00     20.14    3.03    23.17      36.16   0     0      8.0       5          0
causal-rst  20    0.00     20.14    3.03    23.17      36.16   0     0      136.0     5          0
sync-coord  20    439.57   18.96    0.00    458.52     961.57  48    576    1.0       0          0
"""
RENAMED = {"ctrl": "ctrl/run", "ctrlB": "ctrlB/run", "reordered": "reordered/run"}


def _table(text):
    """``{protocol: {header: cell}}``, columns cut where the rule's
    dashes start."""
    header, rule, *rows = text.strip().splitlines()
    starts = [i for i, c in enumerate(rule) if c == "-" and rule[i - 1 : i] != "-"]

    def cells(line):
        return [line[a:b].strip() for a, b in zip(starts, starts[1:] + [None])]

    return {cells(row)[0]: dict(zip(cells(header), cells(row))) for row in rows}


class TestCompareCommand:
    def test_cost_table_shape(self, capsys):
        assert main(["compare", "--messages", "12", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "protocol" in out and "ctrl/run" in out
        assert "tagless" in out and "sync-coord" in out
        # Every protocol passes its own spec in the table.
        assert "NO" not in out

    def test_profile_table_values_are_pinned(self, capsys):
        """Host facts come from the stats view, phases from the registry;
        the cells read as `repro profile` printed them."""
        code = main(
            ["compare", "--protocols", "tagless", "fifo", "causal-rst",
             "sync-coord", "--messages", "20", "--seeds", "1", "--seed", "1"]
        )
        assert code == 0
        table = capsys.readouterr().out.split("\n\n", 1)[1]
        got = _table(table)
        assert list(got) == ["tagless", "fifo", "causal-rst", "sync-coord"]
        for name, pinned in _table(PROFILE_TABLE).items():
            for header, cell in pinned.items():
                assert got[name][RENAMED.get(header, header)] == cell, (
                    name,
                    header,
                )

    def test_explicit_protocol_subset(self, capsys):
        code = main(
            ["compare", "--protocols", "fifo", "flush", "--messages", "10",
             "--seeds", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fifo" in out and "flush" in out
        assert "sync-coord" not in out

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit, match="unknown protocol"):
            main(["compare", "--protocols", "carrier-pigeon"])

    def test_profile_verb_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile"])
        assert excinfo.value.code == 2


class TestCheckCommand:
    def test_fifo_verified_exhaustively(self, capsys):
        code = main(["check", "fifo", "--workload", "pair", "--exhaustive"])
        out = capsys.readouterr().out
        assert code == 0
        assert "VERIFIED" in out

    def test_broken_fifo_violation_and_artifacts(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "report.json"
        cex_path = tmp_path / "cex.json"
        code = main(
            [
                "check",
                "broken-fifo",
                "--workload",
                "pair",
                "--report-out",
                str(report_path),
                "--counterexample-out",
                str(cex_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "VIOLATED" in out
        assert "counterexample" in out

        report = json.loads(report_path.read_text())
        assert report["format"] == "repro-mc-report-v1"
        assert report["violations"][0]["predicate"] == "fifo"
        assert report["violations"][0]["minimized"] is not None

        from repro.mc import replay_schedule
        from repro.protocols.registry import resolve
        from repro.simulation.persistence import load_schedule

        schedule = load_schedule(str(cex_path))
        outcome = replay_schedule(
            schedule, spec=resolve(schedule.protocol).spec
        )
        assert outcome.violation is not None
        assert outcome.violation.predicate_name == "fifo"

    def test_causal_triangle_default_workload(self, capsys):
        code = main(["check", "causal-rst", "--exhaustive"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mc-triangle" in out
        assert "VERIFIED" in out

    def test_spec_override(self, capsys):
        # FIFO does not implement causal ordering across channels.
        code = main(
            [
                "check",
                "fifo",
                "--spec",
                "causal-B2",
                "--exhaustive",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "VIOLATED" in out

    def test_budgeted_run_is_not_a_proof(self, capsys):
        code = main(
            [
                "check",
                "sync-rdv",
                "--workload",
                "random",
                "--processes",
                "3",
                "--messages",
                "3",
                "--max-schedules",
                "5",
                "--max-depth",
                "10",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "not a proof" in out

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit, match="unknown protocol"):
            main(["check", "carrier-pigeon"])


class TestSelftestCommand:
    def test_all_checks_pass(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "E1 classification table" in out
        assert "checks passed" in out


class TestBroadcastClassifyFlag:
    TEXT = (
        "group(x1) = group(x2), group(y1) = group(y2), "
        "group(x1) != group(y1), receiver(x1) = receiver(y1), "
        "receiver(x2) = receiver(y2), receiver(x1) != receiver(x2) :: "
        "x1.r < y1.r & y2.r < x2.r"
    )

    def test_grouped_analysis(self, capsys):
        assert main(["classify", self.TEXT]) == 0
        out = capsys.readouterr().out
        assert "class:         general" in out
        assert "cross-site" in out

    def test_explain_names_the_cross_site_break(self, capsys):
        assert main(["explain", self.TEXT]) == 0
        out = capsys.readouterr().out
        assert "cross-site at ['x1', 'y1']" in out
        assert "SequencerBroadcastProtocol" in out

    def test_broadcast_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["classify", self.TEXT, "--broadcast"])
        assert excinfo.value.code == 2
