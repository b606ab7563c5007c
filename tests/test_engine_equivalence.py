"""Equivalence of the incremental verification engine with the reference
semantics.

Three layers are cross-checked over randomized simulated traces and the
full predicate catalogue:

- the compiled batch search (:func:`repro.verification.engine.
  batch_find_assignment`) against the brute-force reference enumeration
  (:func:`repro.predicates.evaluation.satisfying_assignments`),
- the incremental :class:`~repro.verification.engine.SpecMonitor`
  verdict *and completing event* against batch re-checks of trace
  prefixes,
- the online vector-timestamp causality against the recorded run's
  ``before`` relation.

Plus unit tests for the engine's rewindable state (index marks, causal
clocks, monitor ``push``/``pop``) and the compile cache.
"""

import pytest

from repro.events import DELIVER, SEND, Event, Message
from repro.predicates.ast import Conjunct, ForbiddenPredicate, deliver_of, send_of
from repro.predicates.catalog import CATALOG, CAUSAL_ORDERING
from repro.predicates.evaluation import satisfying_assignments
from repro.predicates.guards import ColorGuard
from repro.protocols import CausalRstProtocol, TaglessProtocol
from repro.protocols.base import make_factory
from repro.simulation import UniformLatency, random_traffic, run_simulation
from repro.simulation.trace import Trace
from repro.verification.engine import (
    MessageIndex,
    OnlineCausality,
    SpecMonitor,
    batch_find_assignment,
    compile_predicate,
    index_for_run,
    monitor_trace,
    spec_admits,
)

ADVERSARIAL = UniformLatency(low=1.0, high=60.0)
SEEDS = range(5)
# Brute enumeration is O(n^arity); keep the cross-checked members small.
MAX_BRUTE_ARITY = 4


def _simulate(seed, protocol=TaglessProtocol, n_processes=3, count=10):
    return run_simulation(
        make_factory(protocol),
        random_traffic(n_processes, count, seed=seed, color_every=3),
        seed=seed,
        latency=ADVERSARIAL,
    )


def _catalog_members(spec, run):
    return [
        predicate
        for predicate in spec.members_for(run)
        if predicate.arity <= MAX_BRUTE_ARITY
    ]


def _prefix_run(trace, up_to_sequence):
    partial = Trace(trace.n_processes)
    for message in trace.messages():
        partial.register_message(message)
    for record in trace.records():
        if record.sequence <= up_to_sequence:
            partial.record(record.time, record.process, record.event)
    return partial.to_user_run()


class TestBatchEquivalence:
    """Compiled plans find an assignment iff the reference enumeration
    does, and any witness they produce satisfies the reference check."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_catalog_against_reference(self, seed):
        run = _simulate(seed).user_run
        index = index_for_run(run)
        compared = 0
        for entry in CATALOG:
            for predicate in _catalog_members(entry.specification, run):
                reference = list(satisfying_assignments(run, predicate))
                engine = batch_find_assignment(run, predicate, index=index)
                assert (engine is not None) == bool(reference), predicate
                if engine is not None:
                    witness = {v: m.id for v, m in engine.items()}
                    assert witness in [
                        {v: m.id for v, m in a.items()} for a in reference
                    ], predicate
                compared += 1
        assert compared > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_spec_admits_matches_reference_verdicts(self, seed):
        run = _simulate(seed).user_run
        for entry in CATALOG:
            spec = entry.specification
            members = spec.members_for(run)
            if any(p.arity > MAX_BRUTE_ARITY for p in members):
                continue
            reference = not any(
                next(iter(satisfying_assignments(run, p)), None) is not None
                for p in members
            )
            if spec.oracle is not None:
                # Oracle specs route the verdict through the oracle; the
                # reference enumeration must still agree with it.
                assert spec_admits(run, spec) == spec.admits(run)
            else:
                assert spec_admits(run, spec) == reference, spec.name


class TestMonitorEquivalence:
    """The incremental monitor's verdict and completing event match what
    batch re-checking of trace prefixes reports."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "protocol", [TaglessProtocol, CausalRstProtocol]
    )
    def test_verdict_matches_batch(self, seed, protocol):
        result = _simulate(seed, protocol=protocol)
        run = result.user_run
        for entry in CATALOG:
            spec = entry.specification
            if any(
                p.arity > MAX_BRUTE_ARITY for p in spec.members_for(run)
            ):
                continue
            hit = monitor_trace(result.trace, spec)
            assert (hit is None) == spec_admits(run, spec), spec.name

    @pytest.mark.parametrize("seed", SEEDS)
    def test_completing_event_is_earliest(self, seed):
        """Truncating the trace just before the reported event leaves an
        admitted run; including it does not."""
        result = _simulate(seed)
        checked = 0
        for entry in CATALOG:
            spec = entry.specification
            if spec.oracle is not None or any(
                p.arity > MAX_BRUTE_ARITY
                for p in spec.members_for(result.user_run)
            ):
                continue
            hit = monitor_trace(result.trace, spec)
            if hit is None:
                continue
            hit_sequence = next(
                r.sequence
                for r in result.trace.records()
                if r.event == hit.event
            )
            assert spec_admits(_prefix_run(result.trace, hit_sequence - 1), spec)
            assert not spec_admits(_prefix_run(result.trace, hit_sequence), spec)
            checked += 1
        assert checked > 0  # tagless under adversarial latency violates

    @pytest.mark.parametrize("seed", SEEDS)
    def test_push_pop_roundtrip(self, seed):
        """Rewinding to a snapshot and re-advancing reproduces the same
        verdict as one straight pass."""
        result = _simulate(seed)
        straight = monitor_trace(result.trace, CAUSAL_ORDERING)

        monitor = SpecMonitor(CAUSAL_ORDERING)
        half = Trace(result.trace.n_processes)
        for message in result.trace.messages():
            half.register_message(message)
        records = result.trace.records()
        for record in records[: len(records) // 2]:
            half.record(record.time, record.process, record.event)
        monitor.advance(half)
        frame = monitor.push()
        consumed_at_frame = monitor.consumed
        first = monitor.advance(result.trace)
        monitor.pop(frame)
        assert monitor.consumed == consumed_at_frame
        second = monitor.advance(result.trace)
        assert first == straight
        assert second == straight

    def test_pop_below_the_settled_count_drops_the_settled_members(self):
        """A member joins once the run has as many messages as its arity;
        after a rewind to fewer messages it must be out again."""
        # Not distinct: x = y = m completes with one delivered message.
        predicate = ForbiddenPredicate.build(
            [
                Conjunct(send_of("x"), deliver_of("y")),
                Conjunct(send_of("y"), deliver_of("x")),
            ]
        )
        monitor = SpecMonitor(predicate)
        frame = monitor.push()
        two = Trace(2)
        two.register_message(Message(id="m1", sender=0, receiver=1))
        two.register_message(Message(id="m2", sender=1, receiver=0))
        two.record(0.0, 0, Event.send("m1"))
        two.record(1.0, 1, Event.send("m2"))
        two.record(2.0, 1, Event.deliver("m1"))
        assert monitor.advance(two) is not None
        monitor.pop(frame)
        one = Trace(2)
        one.register_message(Message(id="m3", sender=0, receiver=1))
        one.record(0.0, 0, Event.send("m3"))
        one.record(1.0, 1, Event.deliver("m3"))
        assert monitor.advance(one) is None

    def test_unknown_message_id_raises_descriptive_error(self):
        """A trace record whose message was never registered names the
        record and the missing id instead of a bare ``KeyError``."""
        trace = Trace(2)
        message = Message(id="m1", sender=0, receiver=1)
        trace.register_message(message)
        trace.record(0.0, 0, Event.send("m1"))
        del trace._messages["m1"]  # simulate a corrupted/partial trace
        with pytest.raises(ValueError, match="m1.*not.*registered"):
            monitor_trace(trace, CAUSAL_ORDERING)


class TestOnlineCausality:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_before_matches_recorded_run(self, seed):
        result = _simulate(seed, count=8)
        causality = OnlineCausality()
        observed = []
        for record in result.trace.records():
            event = record.event
            if event.kind is not SEND and event.kind is not DELIVER:
                continue
            causality.observe(event, result.trace.message(event.message_id))
            observed.append(event)
        run = result.user_run
        for a in observed:
            for b in observed:
                assert causality.before(a, b) == run.before(a, b), (a, b)

    def test_send_after_deliver_rejected(self):
        causality = OnlineCausality()
        message = Message(id="m", sender=0, receiver=1)
        causality.observe(Event.deliver("m"), message)
        with pytest.raises(ValueError, match="send.*after its delivery"):
            causality.observe(Event.send("m"), message)

    def test_double_observe_rejected(self):
        causality = OnlineCausality()
        message = Message(id="m", sender=0, receiver=1)
        causality.observe(Event.send("m"), message)
        with pytest.raises(ValueError):
            causality.observe(Event.send("m"), message)

    def test_rewind_restores_relation(self):
        a = Message(id="a", sender=0, receiver=1)
        b = Message(id="b", sender=1, receiver=0)
        causality = OnlineCausality()
        causality.observe(Event.send("a"), a)
        mark = causality.mark()
        causality.observe(Event.deliver("a"), a)
        causality.observe(Event.send("b"), b)
        assert causality.before(Event.send("a"), Event.send("b"))
        causality.rewind(mark)
        assert not causality.has(Event.send("b"))
        assert causality.has(Event.send("a"))
        # Re-observing after a rewind follows a different interleaving.
        causality.observe(Event.send("b"), b)
        assert not causality.before(Event.send("a"), Event.send("b"))


class TestMessageIndex:
    def test_buckets_and_lookup(self):
        index = MessageIndex()
        a = Message(id="a", sender=0, receiver=1, color="red")
        b = Message(id="b", sender=0, receiver=2, group="g")
        index.add(a)
        index.add(b)
        assert index.message("a") is a
        assert "b" in index
        assert index.bucket("sender", 0) == [a, b]
        assert index.bucket("color", "red") == [a]
        assert index.bucket("group", "g") == [b]
        assert index.bucket("receiver", 9) == []

    def test_mark_rewind(self):
        index = MessageIndex()
        a = Message(id="a", sender=0, receiver=1, color="red")
        index.add(a)
        mark = index.mark()
        index.add(Message(id="b", sender=0, receiver=1, color="red"))
        assert len(index.bucket("color", "red")) == 2
        index.rewind(mark)
        assert index.bucket("color", "red") == [a]
        assert index.message("b") is None
        assert index.all_messages() == [a]


class TestCompiler:
    def test_compilation_is_cached(self):
        predicate = CATALOG[1].specification.predicates[0]
        assert compile_predicate(predicate) is compile_predicate(predicate)

    def test_contradictory_guards_never_satisfiable(self):
        predicate = ForbiddenPredicate.build(
            [Conjunct(send_of("x"), deliver_of("x"))],
            guards=[ColorGuard("x", "red"), ColorGuard("x", "blue")],
        )
        compiled = compile_predicate(predicate)
        assert compiled.never_satisfiable
        run = _simulate(0, count=4).user_run
        assert batch_find_assignment(run, predicate) is None

    def test_plan_covers_all_variables(self):
        for entry in CATALOG:
            for predicate in entry.specification.predicates:
                compiled = compile_predicate(predicate)
                assert sorted(step.variable for step in compiled.plan) == sorted(
                    predicate.variables
                )
