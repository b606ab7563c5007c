"""Tests for the multicast extension (§7)."""

import pytest

from repro.broadcast import (
    ATOMIC_BROADCAST,
    TOTAL_ORDER_VIOLATION,
    CausalBroadcastProtocol,
    SequencerBroadcastProtocol,
    broadcast_groups,
    check_agreement,
    check_total_order,
    delivery_order_at,
    group_broadcasts,
    total_order_cross_check,
)
from repro.core.api import protocol_for
from repro.core.classifier import ProtocolClass, classify, classify_specification
from repro.graphs.predicate_graph import PredicateGraph
from repro.events import Event, Message
from repro.predicates import parse_predicate
from repro.predicates.ast import Conjunct, ForbiddenPredicate, deliver_of, send_of
from repro.predicates.catalog import CAUSAL_B2, CAUSAL_ORDERING
from repro.predicates.guards import GroupGuard, ProcessGuard
from repro.protocols.base import make_factory
from repro.runs.user_run import UserRun
from repro.simulation import UniformLatency, run_simulation
from repro.verification import check_run, check_simulation

ADVERSARIAL = UniformLatency(low=1.0, high=60.0)


class TestGroupGuard:
    def test_equality(self):
        a = Message(id="a", sender=0, receiver=1, group="b1")
        b = Message(id="b", sender=0, receiver=2, group="b1")
        c = Message(id="c", sender=1, receiver=2, group="b2")
        guard = GroupGuard("x", "y")
        assert guard.holds({"x": a, "y": b})
        assert not guard.holds({"x": a, "y": c})

    def test_ungrouped_messages_never_match(self):
        a = Message(id="a", sender=0, receiver=1)
        guard = GroupGuard("x", "y")
        assert not guard.holds({"x": a, "y": a})

    def test_disequality(self):
        a = Message(id="a", sender=0, receiver=1, group="b1")
        c = Message(id="c", sender=1, receiver=2, group="b2")
        guard = GroupGuard("x", "y", equal=False)
        assert guard.holds({"x": a, "y": c})


class TestGroupedClassifier:
    def test_total_order_violation_is_general(self):
        verdict = classify(TOTAL_ORDER_VIOLATION)
        assert verdict.protocol_class is ProtocolClass.GENERAL
        assert verdict.min_order == 2
        assert verdict.witness.cross_site == ("x1", "y1")
        assert "cross-site" in verdict.summary()

    def test_atomic_broadcast_specification_is_general(self):
        verdict = classify_specification(ATOMIC_BROADCAST)
        assert verdict.protocol_class is ProtocolClass.GENERAL

    def test_group_shares_one_vertex(self):
        graph = PredicateGraph(TOTAL_ORDER_VIOLATION)
        assert graph.vertices == ("x1", "y1")
        assert graph.grouped
        assert [repr(e) for e in graph.edges] == ["x1.r>y1.r", "y2.r>x2.r"]
        assert not PredicateGraph(CAUSAL_B2).grouped

    def test_same_site_deliveries_connect(self):
        # Same-site delivery inversion within one pair of broadcasts:
        # x1.r > y1.r and y1.r > x1.r at the same receiver is an event
        # cycle (order 0).
        predicate = ForbiddenPredicate.build(
            [
                Conjunct(deliver_of("x1"), deliver_of("y1")),
                Conjunct(deliver_of("y1"), deliver_of("x1")),
            ],
            guards=[ProcessGuard(("x1", "receiver"), ("y1", "receiver"))],
        )
        verdict = classify(predicate)
        assert verdict.protocol_class is ProtocolClass.TAGLESS

    def test_same_site_copies_do_not_break(self):
        # The total-order shape with both copies of x pinned to one site:
        # x1.r and x2.r are one delivery, so only the junction at y breaks.
        guards = [
            GroupGuard("x1", "x2"),
            GroupGuard("y1", "y2"),
            ProcessGuard(("x1", "receiver"), ("x2", "receiver")),
            ProcessGuard(("y1", "receiver"), ("y2", "receiver"), equal=False),
        ]
        predicate = ForbiddenPredicate.build(
            [
                Conjunct(deliver_of("x1"), deliver_of("y1")),
                Conjunct(deliver_of("y2"), deliver_of("x2")),
            ],
            guards=guards,
            distinct=True,
        )
        verdict = classify(predicate)
        assert verdict.min_order == 1
        assert verdict.witness.cross_site == ("y1",)

    def test_shared_send_is_a_tautology(self):
        # x1.s > x2.r always holds: the copies share one send.
        predicate = ForbiddenPredicate.build(
            [Conjunct(send_of("x1"), deliver_of("x2"))],
            guards=[GroupGuard("x1", "x2")],
        )
        verdict = classify(predicate)
        assert verdict.degenerate
        assert verdict.protocol_class is ProtocolClass.NOT_IMPLEMENTABLE

    def test_unpinned_receiver_relation_rejected(self):
        predicate = ForbiddenPredicate.build(
            [
                Conjunct(deliver_of("x1"), deliver_of("y1")),
                Conjunct(deliver_of("y2"), deliver_of("x2")),
            ],
            guards=[GroupGuard("x1", "x2"), GroupGuard("y1", "y2")],
        )
        with pytest.raises(ValueError, match="receiver relation"):
            classify(predicate)

    def test_acyclic_grouped_predicate_not_implementable(self):
        predicate = parse_predicate("x.r < y.r")
        verdict = classify(predicate)
        assert verdict.protocol_class is ProtocolClass.NOT_IMPLEMENTABLE


class TestCheckers:
    def _two_broadcast_run(self, same_order: bool) -> UserRun:
        # Broadcasts a (from 0) and b (from 1), delivered at sites 2, 3.
        messages = [
            Message(id="a2", sender=0, receiver=2, group="a"),
            Message(id="a3", sender=0, receiver=3, group="a"),
            Message(id="b2", sender=1, receiver=2, group="b"),
            Message(id="b3", sender=1, receiver=3, group="b"),
        ]
        site3 = (
            [Event.deliver("a3"), Event.deliver("b3")]
            if same_order
            else [Event.deliver("b3"), Event.deliver("a3")]
        )
        return UserRun.from_process_sequences(
            messages,
            {
                0: [Event.send("a2"), Event.send("a3")],
                1: [Event.send("b2"), Event.send("b3")],
                2: [Event.deliver("a2"), Event.deliver("b2")],
                3: site3,
            },
        )

    def test_consistent_orders_pass(self):
        run = self._two_broadcast_run(same_order=True)
        assert check_total_order(run) == []
        assert check_run(run, ATOMIC_BROADCAST).safe

    def test_inverted_orders_detected(self):
        run = self._two_broadcast_run(same_order=False)
        violations = check_total_order(run)
        assert violations == [("a", "b", 2, 3)]
        assert not check_run(run, ATOMIC_BROADCAST).safe

    def test_checker_agrees_with_grouped_predicate(self):
        # Routed through the shared engine entry point rather than
        # re-deriving the comparison from evaluation internals.
        for same_order in (True, False):
            run = self._two_broadcast_run(same_order)
            assert total_order_cross_check(run)

    def test_delivery_order_at(self):
        run = self._two_broadcast_run(same_order=False)
        assert delivery_order_at(run, 2) == ["a", "b"]
        assert delivery_order_at(run, 3) == ["b", "a"]

    def test_broadcast_groups(self):
        run = self._two_broadcast_run(same_order=True)
        groups = broadcast_groups(run)
        assert sorted(groups) == ["a", "b"]
        assert len(groups["a"]) == 2

    def test_agreement_on_full_broadcasts(self):
        run = self._two_broadcast_run(same_order=True)
        # Sites 2 and 3 covered; senders 0 and 1 do not self-deliver.
        assert check_agreement(run) == [("a", 1), ("b", 0)]
        # Restricted to the delivery sites everything is covered.


class TestWorkload:
    def test_copies_share_group_and_origin(self):
        workload = group_broadcasts(4, 5, seed=1)
        by_group = {}
        for message in workload.messages():
            by_group.setdefault(message.group, []).append(message)
        assert len(by_group) == 5
        for copies in by_group.values():
            assert len(copies) == 3
            assert len({m.sender for m in copies}) == 1
            assert len({m.receiver for m in copies}) == 3

    def test_needs_two_processes(self):
        with pytest.raises(ValueError):
            group_broadcasts(1, 3)


class TestCausalBroadcast:
    @pytest.mark.parametrize("seed", range(6))
    def test_causal_and_live(self, seed):
        result = run_simulation(
            make_factory(CausalBroadcastProtocol),
            group_broadcasts(4, 10, seed=seed),
            seed=seed,
            latency=ADVERSARIAL,
        )
        outcome = check_simulation(result, CAUSAL_ORDERING)
        assert outcome.ok, outcome.summary()
        assert result.stats.control_messages == 0

    def test_vector_tag_size(self):
        n = 5
        result = run_simulation(
            make_factory(CausalBroadcastProtocol),
            group_broadcasts(n, 6, seed=0),
            seed=0,
        )
        assert result.stats.max_tag_bytes == 8 + n * 8

    def test_not_totally_ordered_somewhere(self):
        total = 0
        for seed in range(8):
            result = run_simulation(
                make_factory(CausalBroadcastProtocol),
                group_broadcasts(4, 10, seed=seed),
                seed=seed,
                latency=ADVERSARIAL,
            )
            total += len(check_total_order(result.user_run))
        assert total > 0


class TestFifoBroadcast:
    from repro.broadcast import FifoBroadcastProtocol

    @pytest.mark.parametrize("seed", range(5))
    def test_per_origin_order_and_liveness(self, seed):
        from repro.broadcast import FifoBroadcastProtocol

        result = run_simulation(
            make_factory(FifoBroadcastProtocol),
            group_broadcasts(4, 10, seed=seed),
            seed=seed,
            latency=ADVERSARIAL,
        )
        assert result.delivered_all
        assert result.stats.control_messages == 0
        # Per-origin FIFO: at every site, each origin's broadcasts appear
        # in broadcast order.
        run = result.user_run
        origin_of = {}
        index_of = {}
        for message in run.messages():
            group = message.group
            origin_of[group] = message.sender
            index_of.setdefault(group, int(group[1:]))
        for process in run.processes():
            seen_per_origin = {}
            for group in delivery_order_at(run, process):
                origin = origin_of[group]
                last = seen_per_origin.get(origin, -1)
                assert index_of[group] > last, (process, group)
                seen_per_origin[origin] = index_of[group]

    def test_weaker_than_causal_somewhere(self):
        from repro.broadcast import FifoBroadcastProtocol

        violated = False
        for seed in range(10):
            result = run_simulation(
                make_factory(FifoBroadcastProtocol),
                group_broadcasts(4, 10, seed=seed),
                seed=seed,
                latency=ADVERSARIAL,
            )
            if not check_simulation(result, CAUSAL_ORDERING).safe:
                violated = True
                break
        assert violated

    def test_single_integer_tag(self):
        from repro.broadcast import FifoBroadcastProtocol

        result = run_simulation(
            make_factory(FifoBroadcastProtocol),
            group_broadcasts(4, 6, seed=0),
            seed=0,
        )
        assert result.stats.max_tag_bytes == 8


class TestSequencerBroadcast:
    @pytest.mark.parametrize("seed", range(6))
    def test_total_order_causal_and_live(self, seed):
        result = run_simulation(
            make_factory(SequencerBroadcastProtocol),
            group_broadcasts(4, 10, seed=seed),
            seed=seed,
            latency=ADVERSARIAL,
        )
        assert result.delivered_all
        assert check_total_order(result.user_run) == []
        assert check_run(result.user_run, ATOMIC_BROADCAST).safe
        assert check_simulation(result, CAUSAL_ORDERING).ok

    def test_uses_control_messages(self):
        result = run_simulation(
            make_factory(SequencerBroadcastProtocol),
            group_broadcasts(4, 10, seed=3),
            seed=3,
        )
        # One REQ/ASSIGN round trip per broadcast from a non-sequencer.
        assert result.stats.control_messages > 0
        assert result.stats.control_messages <= 2 * 10

    def test_deterministic(self):
        def once():
            return run_simulation(
                make_factory(SequencerBroadcastProtocol),
                group_broadcasts(4, 8, seed=5),
                seed=5,
                latency=ADVERSARIAL,
            ).user_run

        assert once() == once()


class TestProtocolForAtomicBroadcast:
    def test_grouped_general_spec_gets_the_sequencer(self):
        # Synchrony over unicast copies (sync-coord, sync-rdv) does not
        # order one broadcast's copies alike at every site; the sequencer
        # does, so protocol_for must not fall back to the sync protocols.
        factory = protocol_for(ATOMIC_BROADCAST)
        assert isinstance(factory(0, 4), SequencerBroadcastProtocol)
        for seed in range(20):
            result = run_simulation(
                factory,
                group_broadcasts(4, 6, seed=seed),
                seed=seed,
                latency=ADVERSARIAL,
            )
            assert result.delivered_all, seed
            assert check_total_order(result.user_run) == [], seed
