"""Tests for attribute guards and their satisfiability check."""

import pytest

from repro.events import Message
from repro.predicates.guards import (
    ColorGuard,
    GroupGuard,
    KeyGuard,
    ProcessGuard,
    guards_satisfiable,
)


def assignment(**kwargs):
    return kwargs


X01 = Message(id="a", sender=0, receiver=1)
X02 = Message(id="b", sender=0, receiver=2)
RED = Message(id="c", sender=1, receiver=0, color="red")


class TestProcessGuard:
    def test_sender_equality(self):
        guard = ProcessGuard(("x", "sender"), ("y", "sender"))
        assert guard.holds(assignment(x=X01, y=X02))
        assert not guard.holds(assignment(x=X01, y=RED))

    def test_cross_role_comparison(self):
        guard = ProcessGuard(("x", "sender"), ("y", "receiver"))
        assert guard.holds(assignment(x=X01, y=RED))  # 0 == 0

    def test_disequality(self):
        guard = ProcessGuard(("x", "receiver"), ("y", "receiver"), equal=False)
        assert guard.holds(assignment(x=X01, y=X02))
        assert not guard.holds(assignment(x=X01, y=X01))

    def test_bad_role_rejected(self):
        with pytest.raises(ValueError):
            ProcessGuard(("x", "origin"), ("y", "sender"))

    def test_variables(self):
        assert ProcessGuard(("x", "sender"), ("y", "sender")).variables() == (
            "x",
            "y",
        )
        assert ProcessGuard(("x", "sender"), ("x", "receiver")).variables() == ("x",)


class TestColorGuard:
    def test_equality(self):
        guard = ColorGuard("x", "red")
        assert guard.holds(assignment(x=RED))
        assert not guard.holds(assignment(x=X01))

    def test_disequality(self):
        guard = ColorGuard("x", "red", equal=False)
        assert guard.holds(assignment(x=X01))
        assert not guard.holds(assignment(x=RED))


class TestSatisfiability:
    def test_empty_guards(self):
        assert guards_satisfiable(())

    def test_equalities_always_satisfiable(self):
        guards = (
            ProcessGuard(("x", "sender"), ("y", "sender")),
            ProcessGuard(("y", "sender"), ("z", "receiver")),
        )
        assert guards_satisfiable(guards)

    def test_conflicting_colors(self):
        guards = (ColorGuard("x", "red"), ColorGuard("x", "blue"))
        assert not guards_satisfiable(guards)

    def test_color_equal_and_unequal(self):
        guards = (ColorGuard("x", "red"), ColorGuard("x", "red", equal=False))
        assert not guards_satisfiable(guards)

    def test_compatible_color_constraints(self):
        guards = (ColorGuard("x", "red"), ColorGuard("x", "blue", equal=False))
        assert guards_satisfiable(guards)

    def test_process_equality_conflicting_with_disequality(self):
        guards = (
            ProcessGuard(("x", "sender"), ("y", "sender")),
            ProcessGuard(("x", "sender"), ("y", "sender"), equal=False),
        )
        assert not guards_satisfiable(guards)

    def test_transitive_equality_conflict(self):
        guards = (
            ProcessGuard(("x", "sender"), ("y", "sender")),
            ProcessGuard(("y", "sender"), ("z", "sender")),
            ProcessGuard(("x", "sender"), ("z", "sender"), equal=False),
        )
        assert not guards_satisfiable(guards)

    def test_disequality_between_distinct_classes_ok(self):
        guards = (
            ProcessGuard(("x", "sender"), ("y", "sender"), equal=False),
        )
        assert guards_satisfiable(guards)

    def test_group_equality_conflicting_with_disequality(self):
        guards = (GroupGuard("x", "y"), GroupGuard("x", "y", equal=False))
        assert not guards_satisfiable(guards)

    def test_transitive_group_conflict(self):
        guards = (
            GroupGuard("x", "y"),
            GroupGuard("y", "z"),
            GroupGuard("x", "z", equal=False),
        )
        assert not guards_satisfiable(guards)

    def test_slot_namespaces_stay_apart(self):
        # Equal groups say nothing about keys or receivers, and the
        # reverse: a disequality in one namespace never meets an equality
        # in another.
        guards = (
            GroupGuard("x", "y"),
            KeyGuard("x", "y", equal=False),
            ProcessGuard(("x", "receiver"), ("y", "receiver"), equal=False),
        )
        assert guards_satisfiable(guards)
        guards = (
            KeyGuard("x", "y"),
            GroupGuard("x", "y", equal=False),
        )
        assert guards_satisfiable(guards)
