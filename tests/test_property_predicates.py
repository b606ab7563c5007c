"""Property-based tests for predicates, graphs and the classifier."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.classifier import ProtocolClass, classify
from repro.core.containment import empirical_class
from repro.events import DELIVER, SEND
from repro.graphs.beta import cycle_order
from repro.graphs.cycles import resolved_cycles
from repro.graphs.predicate_graph import PredicateGraph
from repro.graphs.reduction import reduce_cycle
from repro.predicates.ast import Conjunct, EventTerm, ForbiddenPredicate
from repro.predicates.dsl import format_predicate, parse_predicate
from repro.predicates.guards import GroupGuard, ProcessGuard
from repro.predicates.spec import Specification

VARIABLES = ["x", "y", "z"]
KINDS = [SEND, DELIVER]


@st.composite
def predicates(draw, max_conjuncts=4, distinct=False):
    count = draw(st.integers(1, max_conjuncts))
    conjuncts = []
    for _ in range(count):
        left = EventTerm(draw(st.sampled_from(VARIABLES)), draw(st.sampled_from(KINDS)))
        right = EventTerm(draw(st.sampled_from(VARIABLES)), draw(st.sampled_from(KINDS)))
        conjuncts.append(Conjunct(left, right))
    return ForbiddenPredicate.build(conjuncts, distinct=distinct)


# Copies x1, x2 and y1, y2 of two broadcasts, and a unicast message z:
# three vertices, so Lemma 4 has a vertex to contract.
GROUPED_VARIABLES = ["x1", "x2", "y1", "y2", "z"]


@st.composite
def grouped_predicates(draw, max_conjuncts=6):
    """Grouped predicates with every receiver relation pinned (a junction
    between two copies must know whether they share a site)."""
    count = draw(st.integers(2, max_conjuncts))
    conjuncts = []
    for _ in range(count):
        left = EventTerm(
            draw(st.sampled_from(GROUPED_VARIABLES)), draw(st.sampled_from(KINDS))
        )
        right = EventTerm(
            draw(st.sampled_from(GROUPED_VARIABLES)), draw(st.sampled_from(KINDS))
        )
        conjuncts.append(Conjunct(left, right))
    guards = [GroupGuard("x1", "x2"), GroupGuard("y1", "y2")]
    for a, b in itertools.combinations(GROUPED_VARIABLES, 2):
        guards.append(
            ProcessGuard((a, "receiver"), (b, "receiver"), equal=draw(st.booleans()))
        )
    return ForbiddenPredicate.build(conjuncts, guards=guards, distinct=True)


class TestDslRoundTrip:
    @given(predicates())
    def test_format_parse_round_trip(self, predicate):
        text = format_predicate(predicate)
        reparsed = parse_predicate(text)
        assert reparsed.conjuncts == predicate.conjuncts


class TestReductionProperties:
    @given(predicates(distinct=True))
    @settings(max_examples=60)
    def test_reduction_preserves_order_and_terminates(self, predicate):
        for cycle in resolved_cycles(PredicateGraph(predicate)):
            reduction = reduce_cycle(cycle)
            assert reduction.order == cycle_order(cycle)
            reduced = reduction.reduced
            assert reduced.length <= cycle.length
            assert reduced.length == 2 or cycle_order(reduced) == reduced.length or (
                cycle.length <= 2
            )

    @given(grouped_predicates())
    @settings(max_examples=60)
    def test_grouped_reduction_preserves_order(self, predicate):
        for cycle in resolved_cycles(PredicateGraph(predicate)):
            reduction = reduce_cycle(cycle)
            assert reduction.order == cycle_order(cycle)
            reduced = reduction.reduced
            assert reduced.length == 2 or cycle_order(reduced) == reduced.length or (
                cycle.length <= 2
            )


class TestClassifierTotality:
    @given(predicates())
    @settings(max_examples=80)
    def test_classifier_always_answers(self, predicate):
        verdict = classify(predicate)
        assert verdict.protocol_class in ProtocolClass
        if verdict.protocol_class is ProtocolClass.TAGLESS:
            # Tagless means the pattern never occurs (or guards are
            # unsatisfiable); on satisfiable predicates a cycle must exist
            # to be implementable at all.
            assert not verdict.satisfiable or verdict.min_order == 0

    @given(predicates(distinct=True))
    @settings(max_examples=60)
    def test_distinct_classifier_matches_cycle_structure(self, predicate):
        verdict = classify(predicate)
        if verdict.protocol_class is ProtocolClass.TAGGED:
            assert verdict.min_order == 1
        if verdict.protocol_class is ProtocolClass.GENERAL:
            assert verdict.min_order is not None and verdict.min_order >= 2


class TestClassifierSoundnessAgainstUniverse:
    """The expensive gold check: symbolic class == exhaustive class."""

    @given(predicates(max_conjuncts=3))
    @settings(max_examples=25, deadline=None)
    def test_two_variable_agreement(self, predicate):
        # Keep it to two variables so the 2-message universe decides.
        if set(v for c in predicate.conjuncts for v in c.variables()) - {"x", "y"}:
            return
        symbolic = classify(predicate).protocol_class
        empirical = empirical_class(
            Specification(name="t", predicates=(predicate,)),
            n_processes=2,
            n_messages=2,
        )
        assert empirical is symbolic

    @given(predicates(max_conjuncts=3, distinct=True))
    @settings(max_examples=25, deadline=None)
    def test_two_variable_agreement_distinct(self, predicate):
        if set(v for c in predicate.conjuncts for v in c.variables()) - {"x", "y"}:
            return
        symbolic = classify(predicate).protocol_class
        empirical = empirical_class(
            Specification(name="t", predicates=(predicate,)),
            n_processes=2,
            n_messages=2,
        )
        assert empirical is symbolic

    @given(predicates(max_conjuncts=4, distinct=True))
    @settings(max_examples=15, deadline=None)
    def test_three_variable_universe_soundness(self, predicate):
        """One arity up, the relation is one-sided: a bounded universe can
        only *under*-detect violations (some witness runs need more
        processes or helper messages than 2p/3m realizes), so the
        empirical class is a lower bound on the symbolic one -- never a
        contradiction."""
        symbolic = classify(predicate).protocol_class
        empirical = empirical_class(
            Specification(name="t", predicates=(predicate,)),
            n_processes=2,
            n_messages=3,
        )
        assert empirical.strength <= symbolic.strength, predicate


class TestMonotonicityProperties:
    @given(predicates(max_conjuncts=4))
    @settings(max_examples=60)
    def test_guards_never_strengthen(self, predicate):
        from repro.predicates.guards import ColorGuard

        guarded = ForbiddenPredicate.build(
            predicate.conjuncts,
            guards=[ColorGuard(predicate.variables[0], "red")],
            distinct=predicate.distinct,
        )
        assert (
            classify(guarded).protocol_class
            is classify(predicate).protocol_class
        )

    @given(predicates(max_conjuncts=4, distinct=True))
    @settings(max_examples=60)
    def test_distinct_never_stronger_than_loose(self, predicate):
        loose = ForbiddenPredicate.build(predicate.conjuncts, distinct=False)
        strict_class = classify(predicate).protocol_class
        loose_class = classify(loose).protocol_class
        # X_loose ⊆ X_strict, so the loose requirement is >= the strict one.
        assert loose_class.strength >= strict_class.strength
