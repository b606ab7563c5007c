"""Tests for the forbidden-predicate AST."""

import pytest

from repro.events import DELIVER, INVOKE, SEND
from repro.graphs.predicate_graph import PredicateGraph
from repro.predicates.ast import (
    Conjunct,
    EventTerm,
    ForbiddenPredicate,
    deliver_of,
    send_of,
)
from repro.predicates.guards import ColorGuard


class TestEventTerm:
    def test_only_user_kinds(self):
        with pytest.raises(ValueError, match="user events"):
            EventTerm("x", INVOKE)

    def test_repr(self):
        assert repr(send_of("x")) == "x.s"
        assert repr(deliver_of("y")) == "y.r"

    def test_helpers(self):
        assert send_of("x").kind is SEND
        assert deliver_of("x").kind is DELIVER


class TestConjunct:
    def test_variables(self):
        conjunct = Conjunct(send_of("x"), deliver_of("y"))
        assert conjunct.variables() == ("x", "y")

    def test_self_loop_variables_deduplicated(self):
        conjunct = Conjunct(send_of("x"), deliver_of("x"))
        assert conjunct.variables() == ("x",)
        assert conjunct.is_self_loop

    def test_intrinsically_false_self_atoms(self):
        assert Conjunct(send_of("x"), send_of("x")).is_intrinsically_false
        assert Conjunct(deliver_of("x"), deliver_of("x")).is_intrinsically_false
        assert Conjunct(deliver_of("x"), send_of("x")).is_intrinsically_false
        assert not Conjunct(send_of("x"), deliver_of("x")).is_intrinsically_false
        assert not Conjunct(send_of("x"), send_of("y")).is_intrinsically_false

    def test_degenerate_self_edge(self):
        # ``x.s ▷ x.r`` holds for every delivered message; the predicate
        # graph's edge for it is the degenerate one.
        def edge(conjunct):
            return PredicateGraph(ForbiddenPredicate.build([conjunct])).edges[0]

        assert edge(Conjunct(send_of("x"), deliver_of("x"))).is_degenerate
        assert not edge(Conjunct(deliver_of("x"), send_of("x"))).is_degenerate


class TestForbiddenPredicate:
    def test_build_infers_variables_in_use_order(self):
        predicate = ForbiddenPredicate.build(
            [
                Conjunct(send_of("b"), send_of("a")),
                Conjunct(deliver_of("a"), deliver_of("c")),
            ]
        )
        assert predicate.variables == ("b", "a", "c")
        assert predicate.arity == 3

    def test_guard_variables_are_collected(self):
        predicate = ForbiddenPredicate.build(
            [Conjunct(send_of("x"), send_of("y"))],
            guards=[ColorGuard("z", "red")],
        )
        assert "z" in predicate.variables

    def test_undeclared_variable_rejected(self):
        with pytest.raises(ValueError, match="undeclared"):
            ForbiddenPredicate(
                variables=("x",),
                conjuncts=(Conjunct(send_of("x"), send_of("y")),),
            )

    def test_empty_conjunction_rejected(self):
        with pytest.raises(ValueError, match="at least one conjunct"):
            ForbiddenPredicate.build([])

    def test_duplicate_variable_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ForbiddenPredicate(
                variables=("x", "x"),
                conjuncts=(Conjunct(send_of("x"), deliver_of("x")),),
            )

    def test_without_conjunct(self):
        predicate = ForbiddenPredicate.build(
            [
                Conjunct(send_of("x"), send_of("y")),
                Conjunct(deliver_of("y"), deliver_of("x")),
            ]
        )
        weaker = predicate.without_conjunct(1)
        assert len(weaker.conjuncts) == 1
        assert weaker.conjuncts[0] == predicate.conjuncts[0]

    def test_repr_contains_name_and_body(self):
        predicate = ForbiddenPredicate.build(
            [Conjunct(send_of("x"), send_of("y"))], name="demo"
        )
        text = repr(predicate)
        assert "demo" in text and "x.s" in text
