"""Unit tests for system runs: preconditions, pending sets, projection."""

import pytest

from repro.events import Event, Message
from repro.poset import PartialOrder
from repro.protocols.base import make_factory
from repro.protocols.tagless import TaglessProtocol
from repro.runs.system_run import SystemRun, in_x_gn, in_x_td, in_x_u, numbering_scheme
from repro.simulation.runner import run_simulation
from repro.simulation.workloads import random_traffic


def make_run(n=2, messages=()):
    run = SystemRun(n)
    for message in messages:
        run.register_message(message)
    return run


def full_transfer(run: SystemRun, message: Message) -> None:
    run.append(message.sender, Event.invoke(message.id))
    run.append(message.sender, Event.send(message.id))
    run.append(message.receiver, Event.receive(message.id))
    run.append(message.receiver, Event.deliver(message.id))


M1 = Message(id="m1", sender=0, receiver=1)
M2 = Message(id="m2", sender=0, receiver=1)


class TestAppendPreconditions:
    def test_event_at_wrong_process(self):
        run = make_run(messages=[M1])
        with pytest.raises(ValueError, match="belongs to process"):
            run.append(1, Event.invoke("m1"))

    def test_send_requires_invoke(self):
        run = make_run(messages=[M1])
        with pytest.raises(ValueError, match="requires"):
            run.append(0, Event.send("m1"))

    def test_receive_requires_send(self):
        run = make_run(messages=[M1])
        run.append(0, Event.invoke("m1"))
        with pytest.raises(ValueError, match="requires"):
            run.append(1, Event.receive("m1"))

    def test_deliver_requires_receive(self):
        run = make_run(messages=[M1])
        run.append(0, Event.invoke("m1"))
        run.append(0, Event.send("m1"))
        with pytest.raises(ValueError, match="requires"):
            run.append(1, Event.deliver("m1"))

    def test_no_duplicate_events(self):
        run = make_run(messages=[M1])
        run.append(0, Event.invoke("m1"))
        with pytest.raises(ValueError, match="already executed"):
            run.append(0, Event.invoke("m1"))

    def test_message_outside_process_range(self):
        run = SystemRun(2)
        with pytest.raises(ValueError, match="outside"):
            run.register_message(Message(id="m9", sender=0, receiver=5))


class TestPendingSets:
    def test_lifecycle_of_pending_sets(self):
        run = make_run(messages=[M1])
        assert run.pending_invokes(0) == {Event.invoke("m1")}
        assert run.all_pending() == set()  # nothing requested yet

        run.append(0, Event.invoke("m1"))
        assert run.pending_invokes(0) == set()
        assert run.pending_sends(0) == {Event.send("m1")}
        assert run.controllable(0) == {Event.send("m1")}

        run.append(0, Event.send("m1"))
        assert run.pending_sends(0) == set()
        assert run.pending_receives(1) == {Event.receive("m1")}

        run.append(1, Event.receive("m1"))
        assert run.pending_receives(1) == set()
        assert run.pending_deliveries(1) == {Event.deliver("m1")}

        run.append(1, Event.deliver("m1"))
        assert run.all_pending() == set()
        assert run.is_complete()

    def test_incomplete_run(self):
        run = make_run(messages=[M1])
        run.append(0, Event.invoke("m1"))
        assert not run.is_complete()


class TestHappenedBefore:
    def test_process_order_and_network_edge(self):
        run = make_run(messages=[M1])
        full_transfer(run, M1)
        order = run.happened_before()
        assert order.less(Event.invoke("m1"), Event.deliver("m1"))
        assert order.less(Event.send("m1"), Event.receive("m1"))

    def test_before_agrees_with_a_fresh_order_as_the_run_grows(self):
        trace = run_simulation(
            make_factory(TaglessProtocol), random_traffic(3, 8, seed=4), seed=4
        ).trace
        run = SystemRun(3, trace.messages())
        for record in trace.records():
            # Each append follows the previous round of queries.
            run.append(record.process, record.event)
            events = run.events()
            # Built from the generating graph here, not from the run's order.
            fresh = PartialOrder(events, run.order_graph().edges())
            handed_out = run.happened_before()
            for a in events:
                for b in events:
                    assert run.before(a, b) == fresh.less(a, b), (a, b)
                    assert handed_out.less(a, b) == fresh.less(a, b), (a, b)
        assert len(run) == len(trace) == 32

    def test_happened_before_is_the_callers_own(self):
        run = make_run(messages=[M1, M2])
        full_transfer(run, M1)
        full_transfer(run, M2)
        low, high = Event.deliver("m2"), Event.invoke("m1")
        assert not run.before(low, high)
        run.happened_before().add_relation(low, high)
        assert not run.before(low, high)
        assert not run.happened_before().less(low, high)

    def test_validate_passes_for_appended_runs(self):
        run = make_run(messages=[M1, M2])
        full_transfer(run, M1)
        full_transfer(run, M2)
        run.validate()
        assert run.is_valid()


class TestUsersView:
    def test_projection_keeps_user_events_only(self):
        run = make_run(messages=[M1])
        full_transfer(run, M1)
        view = run.users_view()
        assert view.events() == [Event.send("m1"), Event.deliver("m1")]
        assert view.before(Event.send("m1"), Event.deliver("m1"))

    def test_figure_4_fifo_causality_is_invisible_to_the_user(self):
        """§3.3 / Figure 4: with receives before deliveries, the system
        sees m2.s -> m1.r but the user does not."""
        run = make_run(messages=[M1, M2])
        run.append(0, Event.invoke("m1"))
        run.append(0, Event.send("m1"))
        run.append(0, Event.invoke("m2"))
        run.append(0, Event.send("m2"))
        # Receiver gets m2 first (network reordering) but delivers in FIFO
        # order: r2*, r1*, r1, r2.
        run.append(1, Event.receive("m2"))
        run.append(1, Event.receive("m1"))
        run.append(1, Event.deliver("m1"))
        run.append(1, Event.deliver("m2"))

        system_order = run.happened_before()
        assert system_order.less(Event.send("m2"), Event.deliver("m1"))

        view = run.users_view()
        assert not view.before(Event.send("m2"), Event.deliver("m1"))
        assert view.before(Event.send("m1"), Event.send("m2"))
        assert view.before(Event.deliver("m1"), Event.deliver("m2"))

    def test_projection_of_partial_run(self):
        run = make_run(messages=[M1])
        run.append(0, Event.invoke("m1"))
        run.append(0, Event.send("m1"))
        view = run.users_view()
        assert view.events() == [Event.send("m1")]
        assert not view.is_complete()


class TestPrefix:
    def test_prefix_detection(self):
        short = make_run(messages=[M1])
        short.append(0, Event.invoke("m1"))
        long = short.copy()
        long.append(0, Event.send("m1"))
        assert short.is_prefix_of(long)
        assert not long.is_prefix_of(short)

    def test_divergent_sequences_are_not_prefixes(self):
        left = make_run(messages=[M1, M2])
        left.append(0, Event.invoke("m1"))
        right = make_run(messages=[M1, M2])
        right.append(0, Event.invoke("m2"))
        assert not left.is_prefix_of(right)


class TestSystemLimitSets:
    def test_x_u_requires_adjacent_stars(self):
        run = make_run(messages=[M1, M2])
        run.append(0, Event.invoke("m1"))
        run.append(0, Event.invoke("m2"))  # m1.s* not adjacent to m1.s
        run.append(0, Event.send("m1"))
        run.append(0, Event.send("m2"))
        run.append(1, Event.receive("m1"))
        run.append(1, Event.deliver("m1"))
        run.append(1, Event.receive("m2"))
        run.append(1, Event.deliver("m2"))
        assert not in_x_u(run)

    def test_x_u_member(self):
        run = make_run(messages=[M1])
        full_transfer(run, M1)
        assert in_x_u(run)

    def test_x_td_excludes_receive_reordering(self):
        run = make_run(messages=[M1, M2])
        run.append(0, Event.invoke("m1"))
        run.append(0, Event.send("m1"))
        run.append(0, Event.invoke("m2"))
        run.append(0, Event.send("m2"))
        run.append(1, Event.receive("m2"))
        run.append(1, Event.deliver("m2"))
        run.append(1, Event.receive("m1"))
        run.append(1, Event.deliver("m1"))
        assert in_x_u(run)
        assert not in_x_td(run)

    def test_x_gn_member_and_numbering(self):
        run = make_run(messages=[M1, M2])
        full_transfer(run, M1)
        full_transfer(run, M2)
        assert in_x_td(run)
        assert in_x_gn(run)
        numbering = numbering_scheme(run)
        assert numbering is not None
        # Blocks of four consecutive integers per message.
        assert numbering[Event.deliver("m1")] == numbering[Event.invoke("m1")] + 3
        order = run.happened_before()
        for a in run.events():
            for b in run.events():
                if order.less(a, b):
                    assert numbering[a] < numbering[b]

    def test_x_gn_excludes_interleaved_messages(self):
        """Two crossing messages cannot be drawn with vertical arrows."""
        ma = Message(id="ma", sender=0, receiver=1)
        mb = Message(id="mb", sender=1, receiver=0)
        run = make_run(messages=[ma, mb])
        run.append(0, Event.invoke("ma"))
        run.append(0, Event.send("ma"))
        run.append(1, Event.invoke("mb"))
        run.append(1, Event.send("mb"))
        run.append(1, Event.receive("ma"))
        run.append(1, Event.deliver("ma"))
        run.append(0, Event.receive("mb"))
        run.append(0, Event.deliver("mb"))
        assert in_x_td(run)
        assert not in_x_gn(run)
        assert numbering_scheme(run) is None
