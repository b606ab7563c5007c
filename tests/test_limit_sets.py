"""Tests for the user-view limit sets X_async ⊇ X_co ⊇ X_sync (§3.4)."""

import pytest

from repro.events import Event, Message
from repro.poset import CycleError
from repro.runs.enumeration import enumerate_universe
from repro.runs.limit_sets import (
    causal_violations,
    crown_cycles,
    is_async,
    is_causally_ordered,
    is_logically_synchronous,
    limit_set_memberships,
    message_graph,
    sync_numbering,
)
from repro.runs.user_run import UserRun


class TestAsync:
    def test_complete_valid_run_is_async(self, co_violating_run):
        assert is_async(co_violating_run)

    def test_incomplete_run_is_not_async(self):
        run = UserRun()
        run.add_message(Message(id="m1", sender=0, receiver=1), with_events=False)
        run.add_event(Event.send("m1"))
        assert not is_async(run)


class TestCausalOrdering:
    def test_violation_detected(self, co_violating_run):
        assert causal_violations(co_violating_run) == [("m1", "m2")]
        assert not is_causally_ordered(co_violating_run)

    def test_ordered_run_passes(self, co_ordered_run):
        assert is_causally_ordered(co_ordered_run)

    def test_crossing_run_is_causal(self, crossing_run):
        # Concurrent messages cannot violate causal ordering.
        assert is_causally_ordered(crossing_run)


class TestLogicalSynchrony:
    def test_relay_run_is_sync(self, sync_run):
        assert is_logically_synchronous(sync_run)
        numbering = sync_numbering(sync_run)
        assert numbering == {"m1": 0, "m2": 1}

    def test_crossing_run_is_not_sync(self, crossing_run):
        assert not is_logically_synchronous(crossing_run)
        assert sync_numbering(crossing_run) is None
        assert crown_cycles(crossing_run) == [["m1", "m2"]]

    def test_numbering_witnesses_the_sync_condition(self, sync_run):
        numbering = sync_numbering(sync_run)
        kinds = (Event.send, Event.deliver)
        for x in sync_run.message_ids():
            for y in sync_run.message_ids():
                if x == y:
                    continue
                for make_h in kinds:
                    for make_f in kinds:
                        if sync_run.before(make_h(x), make_f(y)):
                            assert numbering[x] < numbering[y]

    @pytest.mark.parametrize("two_messages", [False, True])
    def test_an_invalid_run_raises_as_a_before_query_does(self, two_messages):
        """A cycle of ▷ itself -- inside one message's events or across
        two -- is no verdict: the run is not a partial order."""
        run = UserRun([Message(id="m1", sender=0, receiver=1)])
        if two_messages:
            run.add_message(Message(id="m2", sender=1, receiver=0))
            run.order_chain([Event.deliver("m1"), Event.send("m2")])
            run.order(Event.deliver("m2"), Event.send("m1"))
        else:
            run.order(Event.deliver("m1"), Event.send("m1"))
        with pytest.raises(CycleError):
            run.before(Event.send("m1"), Event.deliver("m1"))
        with pytest.raises(CycleError):
            sync_numbering(run)

    def test_message_graph_edges(self, sync_run):
        assert message_graph(sync_run).edges() == [("m1", "m2")]

    def test_message_graph_of_crossing_run_has_cycle(self, crossing_run):
        edges = set(message_graph(crossing_run).edges())
        assert ("m1", "m2") in edges and ("m2", "m1") in edges


class TestHierarchy:
    def test_sync_implies_co_implies_async_on_universe(self):
        """X_sync ⊆ X_co ⊆ X_async over every 2-process 2-message run."""
        saw_all_three_levels = set()
        for run in enumerate_universe(2, 2):
            member = limit_set_memberships(run)
            if member["sync"]:
                assert member["co"]
            if member["co"]:
                assert member["async"]
            saw_all_three_levels.add(
                (member["async"], member["co"], member["sync"])
            )
        # The hierarchy is strict: some run is async-only and some co-only.
        assert (True, True, True) in saw_all_three_levels
        assert (True, False, False) in saw_all_three_levels

    def test_hierarchy_strict_with_co_only_runs(self):
        found_co_not_sync = False
        for run in enumerate_universe(2, 2):
            member = limit_set_memberships(run)
            if member["co"] and not member["sync"]:
                found_co_not_sync = True
                break
        assert found_co_not_sync

    def test_memberships_agree_with_direct_predicates(self):
        for run in enumerate_universe(2, 2):
            member = limit_set_memberships(run)
            assert member["async"] == is_async(run)
            assert member["co"] == is_causally_ordered(run)
            assert member["sync"] == is_logically_synchronous(run)
