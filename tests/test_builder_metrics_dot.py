"""Tests for RunBuilder, run metrics, DOT export and protocol comparison."""

import pytest

from repro.events import Event
from repro.graphs.cycles import resolved_cycles
from repro.graphs.dot import predicate_graph_to_dot, user_run_to_dot
from repro.graphs.predicate_graph import PredicateGraph
from repro.predicates.catalog import CAUSAL_B2, CAUSAL_ORDERING, FIFO_ORDERING
from repro.runs.builder import RunBuilder
from repro.runs.limit_sets import is_causally_ordered, is_logically_synchronous
from repro.runs.metrics import run_metrics


class TestRunBuilder:
    def test_ordered_channel(self):
        run = (
            RunBuilder()
            .send("m1", frm=0, to=1)
            .send("m2", frm=0, to=1)
            .deliver("m1")
            .deliver("m2")
            .build()
        )
        assert run.before(Event.send("m1"), Event.send("m2"))
        assert is_causally_ordered(run)

    def test_inverted_channel_builds_a_violation(self):
        run = (
            RunBuilder()
            .send("m1", frm=0, to=1)
            .send("m2", frm=0, to=1)
            .deliver("m2")
            .deliver("m1")
            .build()
        )
        assert not FIFO_ORDERING.admits(run)

    def test_call_order_is_per_process(self):
        run = (
            RunBuilder()
            .send("a", frm=0, to=1)
            .send("b", frm=1, to=0)
            .deliver("a")
            .deliver("b")
            .build()
        )
        # a.s and b.s are at different processes: concurrent.
        assert run.concurrent(Event.send("a"), Event.send("b"))
        assert not is_logically_synchronous(run)

    def test_colors_and_groups_carried(self):
        run = (
            RunBuilder()
            .send("m1", frm=0, to=1, color="red", group="g")
            .deliver("m1")
            .build()
        )
        assert run.message("m1").color == "red"
        assert run.message("m1").group == "g"

    def test_duplicate_send_rejected(self):
        builder = RunBuilder().send("m1", frm=0, to=1)
        with pytest.raises(ValueError, match="already sent"):
            builder.send("m1", frm=0, to=1)

    def test_deliver_before_send_rejected(self):
        with pytest.raises(ValueError, match="before sending"):
            RunBuilder().deliver("ghost")

    def test_double_delivery_rejected(self):
        builder = RunBuilder().send("m1", frm=0, to=1).deliver("m1")
        with pytest.raises(ValueError, match="delivered twice"):
            builder.deliver("m1")

    def test_incomplete_run_needs_flag(self):
        builder = RunBuilder().send("m1", frm=0, to=1).drop("m1")
        with pytest.raises(ValueError, match="incomplete"):
            builder.build()
        run = builder.build(complete=False)
        assert not run.is_complete()

    def test_build_system_round_trips(self):
        builder = (
            RunBuilder()
            .send("m1", frm=0, to=1)
            .deliver("m1")
            .send("m2", frm=1, to=0)
            .deliver("m2")
        )
        system = builder.build_system()
        assert system.users_view() == builder.build()


class TestRunMetrics:
    def sequential_run(self):
        return (
            RunBuilder()
            .send("m1", frm=0, to=1)
            .deliver("m1")
            .send("m2", frm=1, to=0)
            .deliver("m2")
            .build()
        )

    def concurrent_run(self):
        return (
            RunBuilder()
            .send("a", frm=0, to=1)
            .send("b", frm=2, to=3)
            .deliver("a")
            .deliver("b")
            .build()
        )

    def test_sequential_run_has_no_concurrency(self):
        metrics = run_metrics(self.sequential_run())
        assert metrics.concurrent_pairs == 0
        assert metrics.concurrency_ratio == 0.0
        assert metrics.longest_chain == 4
        assert metrics.parallelism == 1.0

    def test_independent_messages_are_concurrent(self):
        metrics = run_metrics(self.concurrent_run())
        assert metrics.longest_chain == 2
        assert metrics.parallelism == 2.0
        assert metrics.width == 2
        assert metrics.concurrent_pairs == 4  # each a-event vs each b-event

    def test_reordering_counted(self):
        run = (
            RunBuilder()
            .send("m1", frm=0, to=1)
            .send("m2", frm=0, to=1)
            .deliver("m2")
            .deliver("m1")
            .build()
        )
        assert run_metrics(run).reordered_channel_pairs == 1

    def test_empty_run(self):
        from repro.runs.user_run import UserRun

        metrics = run_metrics(UserRun())
        assert metrics.events == 0
        assert metrics.parallelism == 0.0

    def test_sync_protocol_has_lower_concurrency_than_tagless(self):
        from repro.protocols import SyncCoordinatorProtocol, TaglessProtocol
        from repro.protocols.base import make_factory
        from repro.simulation import random_traffic, run_simulation

        workload = random_traffic(4, 25, seed=3)
        tagless = run_simulation(make_factory(TaglessProtocol), workload, seed=3)
        sync = run_simulation(
            make_factory(SyncCoordinatorProtocol), workload, seed=3
        )
        assert (
            run_metrics(sync.user_run).concurrency_ratio
            < run_metrics(tagless.user_run).concurrency_ratio
        )


class TestDotExport:
    def test_predicate_graph_dot(self):
        graph = PredicateGraph(CAUSAL_B2)
        dot = predicate_graph_to_dot(graph)
        assert dot.startswith("digraph predicate {")
        assert '"x" -> "y" [label="s>s"]' in dot
        assert dot.rstrip().endswith("}")

    def test_cycle_highlighting_marks_betas(self):
        graph = PredicateGraph(CAUSAL_B2)
        (cycle,) = resolved_cycles(graph)
        dot = predicate_graph_to_dot(graph, highlight_cycle=cycle)
        assert '"x" [shape=doublecircle];' in dot  # the β vertex
        assert '"y" [shape=circle];' in dot
        assert "color=\"red\"" in dot

    def test_user_run_dot(self):
        run = (
            RunBuilder()
            .send("m1", frm=0, to=1, color="red")
            .deliver("m1")
            .build()
        )
        dot = user_run_to_dot(run)
        assert "cluster_p0" in dot and "cluster_p1" in dot
        assert '"m1.s" -> "m1.r" [style=dashed label="red"];' in dot


class TestCompareProtocols:
    def test_rows_capture_the_cost_shape(self):
        from repro.protocols import (
            CausalRstProtocol,
            SyncCoordinatorProtocol,
            TaglessProtocol,
        )
        from repro.protocols.base import make_factory
        from repro.predicates.catalog import ASYNC_ORDERING, LOGICALLY_SYNCHRONOUS
        from repro.simulation import random_traffic
        from repro.verification import cost_study

        rows = cost_study(
            [
                ("tagless", make_factory(TaglessProtocol), ASYNC_ORDERING),
                ("causal", make_factory(CausalRstProtocol), CAUSAL_ORDERING),
                (
                    "sync",
                    make_factory(SyncCoordinatorProtocol),
                    LOGICALLY_SYNCHRONOUS,
                ),
            ],
            lambda seed: random_traffic(3, 20, seed=seed),
            seeds=range(2),
        )
        by_name = {row.name: row for row in rows}
        assert all(row.spec_ok for row in rows)
        assert by_name["tagless"].control_messages == 0
        assert by_name["sync"].control_messages > 0
        assert by_name["causal"].tag_bytes > by_name["tagless"].tag_bytes
        assert by_name["sync"].concurrency < by_name["tagless"].concurrency
