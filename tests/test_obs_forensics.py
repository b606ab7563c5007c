"""Violation forensics: a live broken-FIFO run explains itself."""

import json

import pytest

from repro.faults import FaultPlan
from repro.mc.mutations import mutation_factories
from repro.net import run_cluster_sync
from repro.obs.forensics import build_forensics, render_forensics
from repro.predicates.catalog import FIFO_ORDERING

FAST = 0.001


class _NoViolation:
    class monitor:
        violation = None


class TestBuildForensics:
    def test_no_violation_means_no_report(self):
        assert build_forensics(_NoViolation()) is None
        assert build_forensics(object()) is None


@pytest.fixture(scope="module")
def broken_fifo_report():
    """One seeded loopback run that reliably inverts a FIFO pair."""
    factory = mutation_factories()["broken-fifo"]
    return run_cluster_sync(
        factory,
        2,
        protocol_name="broken-fifo",
        rate=300.0,
        duration=1.0,
        seed=3,
        spec=FIFO_ORDERING,
        faults=FaultPlan(spike_rate=0.3, spike_delay=20.0, seed=3),
        time_scale=FAST,
        run_id="t-forensics",
    )


class TestLiveForensics:
    def test_run_attaches_a_forensics_report(self, broken_fifo_report):
        report = broken_fifo_report
        assert report.violation is not None
        assert report.forensics is not None
        assert report.forensics["spec"] == FIFO_ORDERING.name
        # The rendered violation line and the forensics agree.
        assert report.forensics["predicate"] in report.violation

    def test_names_the_out_of_order_pair(self, broken_fifo_report):
        forensics = broken_fifo_report.forensics
        assignment = forensics["violation"]["assignment"]
        pairs = forensics["out_of_order"]
        assert pairs, forensics
        named = {pairs[0]["sent_first"], pairs[0]["sent_second"]}
        assert named == set(assignment.values())
        assert "▷" in pairs[0]["describe"]

    def test_causal_path_covers_the_assignment(self, broken_fifo_report):
        forensics = broken_fifo_report.forensics
        mids = set(forensics["violation"]["assignment"].values())
        path_mids = {node["message_id"] for node in forensics["causal_path"]}
        assert mids <= path_mids
        # Every node carries a vector timestamp.
        assert all(node["vc"] for node in forensics["causal_path"])
        assert forensics["causal_edges"]

    def test_flight_dumps_feed_timeline_and_window(self, broken_fifo_report):
        forensics = broken_fifo_report.forensics
        assert forensics["hosts_dumped"] == [0, 1]
        mids = set(forensics["violation"]["assignment"].values())
        timeline_mids = {row["message_id"] for row in forensics["timeline"]}
        assert mids <= timeline_mids
        # The violating delivery happened, so its row must exist.
        violating = forensics["violation"]["message_id"]
        kinds = {
            row["kind"]
            for row in forensics["timeline"]
            if row["message_id"] == violating
        }
        assert "deliver" in kinds
        assert forensics["flight_window"]
        # Causal order is the monitor's (the causal path), not the tape's.
        assert not [row for row in forensics["timeline"] if "vc" in row]
        assert not [row for row in forensics["flight_window"] if "vc" in row]

    def test_report_is_json_and_renderable(self, broken_fifo_report):
        forensics = broken_fifo_report.forensics
        round_tripped = json.loads(json.dumps(forensics))
        assert round_tripped["violation"] == forensics["violation"]
        text = render_forensics(forensics)
        assert text.startswith("VIOLATION FORENSICS")
        assert "out-of-order pairs:" in text
        assert "causal path (vector timestamps):" in text
        assert "wall-clock timeline:" in text
        assert "flight window:" in text


class TestRender:
    def test_minimal_report_renders(self):
        text = render_forensics(
            {
                "spec": "fifo",
                "predicate": "fifo-violation",
                "violation": {
                    "time": 1.5,
                    "event": "m2.r",
                    "message_id": "m2",
                    "assignment": {"x": "m1", "y": "m2"},
                },
            }
        )
        assert "spec        fifo" in text
        assert "fired by    m2.r at t=1.500" in text
        assert "x=m1, y=m2" in text
