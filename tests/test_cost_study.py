"""Tests for the protocol cost study behind ``repro compare``."""

import pytest

from repro.core.report import format_table
from repro.protocols.registry import cached_catalogue
from repro.simulation import UniformLatency, random_traffic, run_simulation
from repro.verification import CostRow, cost_study


def workload(seed):
    return random_traffic(4, 30, seed=seed, color_every=6)


def _rows(names, seeds=(2,)):
    catalog = cached_catalogue()
    rows = cost_study(
        [(name, catalog[name].factory, catalog[name].spec) for name in names],
        workload,
        seeds=seeds,
    )
    return {row.name: row for row in rows}


class TestCostStudy:
    def test_phase_breakdown_separates_protocol_classes(self):
        # The study attributes cost to the right phase for at least three
        # catalogue protocols.  The "do nothing" protocol pays nowhere;
        # FIFO and causal pay only in delivery buffering; the coordinator
        # pays in send inhibition.
        rows = _rows(["tagless", "fifo", "causal-rst", "sync-coord"])
        tagless = rows["tagless"]
        assert tagless.inhibition == 0.0
        assert tagless.buffering == 0.0
        assert tagless.control_messages == 0
        # A tagless message carries only the 1-byte None sentinel.
        assert tagless.tag_bytes == 1.0

        for buffering_name in ("fifo", "causal-rst"):
            row = rows[buffering_name]
            assert row.inhibition == 0.0
            assert row.buffering > 0.0
            assert row.tag_bytes > 1.0

        coordinator = rows["sync-coord"]
        assert coordinator.inhibition > 0.0
        assert coordinator.control_messages > 0
        assert all(row.spec_ok and not row.violations for row in rows.values())

    def test_all_messages_accounted(self):
        row = _rows(["fifo"])["fifo"]
        assert row.runs == 1
        assert row.messages == len(workload(2).requests)
        assert row.undelivered == 0
        assert row.end_to_end_p95 >= row.end_to_end

    def test_run_k_is_workload_k_under_network_seed_k(self):
        factory = cached_catalogue()["sync-coord"].factory
        result = run_simulation(
            factory, workload(3), seed=3, latency=UniformLatency(1.0, 40.0)
        )
        row = _rows(["sync-coord"], seeds=[3])["sync-coord"]
        assert row.control_messages == result.stats.control_messages
        assert row.end_to_end == result.stats.mean_end_to_end_latency

    def test_figures_are_means_over_runs(self):
        both = _rows(["causal-rst"], seeds=[1, 2])["causal-rst"]
        one, two = (_rows(["causal-rst"], seeds=[s])["causal-rst"] for s in (1, 2))
        assert both.runs == 2
        assert both.messages == one.messages + two.messages
        for name in ("delayed_deliveries", "tag_bytes", "buffering", "concurrency"):
            assert getattr(both, name) == pytest.approx(
                (getattr(one, name) + getattr(two, name)) / 2
            )

    def test_a_study_needs_a_seed(self):
        with pytest.raises(ValueError, match="at least one seed"):
            _rows(["fifo"], seeds=[])


class TestCostTable:
    def test_table_shape(self):
        rows = list(_rows(["tagless", "fifo"]).values())
        assert all(len(row.cells()) == len(CostRow.HEADERS) for row in rows)
        lines = format_table(CostRow.HEADERS, [row.cells() for row in rows]).splitlines()
        for header in CostRow.HEADERS:
            assert header in lines[0]
        assert set(lines[1]) <= {"-", " "}
        assert lines[2].startswith("tagless")
        assert lines[3].startswith("fifo")
