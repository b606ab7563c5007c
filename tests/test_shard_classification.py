"""Classification of per-key scoped specs vs their cross-key liftings.

The sharded runtime's load-bearing claim is a classification fact:
scoping an ordering spec to one ordering key (a :class:`KeyGuard`
equality) leaves it order 1 -- implementable by a tagged protocol,
which is exactly the O(1) per-lane checker each shard runs live --
while lifting the same constraint *across* keys (a :class:`KeyGuard`
disequality over a crown) produces only order >= 2 cycles: GENERAL,
needing global knowledge, which is why the cross-key verdict lives in
the coordinator's end-of-run merged oracle instead of in any lane.

This file pins that split with the repo's own decision procedure, the
same way ``tests/test_examples.py`` pins the paper's e1 table.
"""

import pytest

from repro.core.classifier import ProtocolClass, classify, classify_specification
from repro.predicates.ast import Conjunct, ForbiddenPredicate, deliver_of, send_of
from repro.predicates.catalog import CAUSAL_B2, FIFO, crown
from repro.predicates.guards import KeyGuard, ProcessGuard
from repro.predicates.spec import Specification
from tests.conftest import scoped_to_key


def cross_key_crown(name="cross-key-crown"):
    """The cross-key lifting: a 2-crown whose legs carry different keys.

    ``x1.s > x2.r  and  x2.s > x1.r`` with ``key(x1) != key(x2)`` -- two
    messages on two different lanes, possibly two different shards,
    mutually constraining each other's delivery.
    """
    return ForbiddenPredicate.build(
        [
            Conjunct(send_of("x1"), deliver_of("x2")),
            Conjunct(send_of("x2"), deliver_of("x1")),
        ],
        guards=[KeyGuard("x1", "x2", equal=False)],
        name=name,
        distinct=True,
    )


class TestPerKeyScopedSpecsStayTagged:
    """KeyGuard equality does not raise the order: lanes stay order 1."""

    def test_per_key_fifo_is_tagged_order_1(self):
        verdict = classify(scoped_to_key(FIFO, "fifo-per-key"))
        assert verdict.protocol_class is ProtocolClass.TAGGED
        assert verdict.min_order == 1
        assert verdict.tagging_sufficient

    def test_per_key_causal_is_tagged_order_1(self):
        verdict = classify(scoped_to_key(CAUSAL_B2, "causal-per-key"))
        assert verdict.protocol_class is ProtocolClass.TAGGED
        assert verdict.min_order == 1

    def test_key_scoping_preserves_the_unscoped_class(self):
        # Scoping affects which tuples are constrained, not the cycle
        # structure: the scoped verdict must match the unscoped one.
        for predicate in (FIFO, CAUSAL_B2):
            scoped = classify(scoped_to_key(predicate, predicate.name + "@k"))
            unscoped = classify(predicate)
            assert scoped.protocol_class is unscoped.protocol_class
            assert scoped.min_order == unscoped.min_order


class TestCrossKeyLiftingsEscalate:
    """KeyGuard disequality over a crown: only order >= 2 cycles."""

    def test_cross_key_crown_is_general(self):
        verdict = classify(cross_key_crown())
        assert verdict.protocol_class is ProtocolClass.GENERAL
        assert verdict.min_order is not None and verdict.min_order >= 2
        assert verdict.needs_control_messages

    def test_longer_cross_key_crowns_stay_general(self):
        for k in (3, 4):
            base = crown(k)
            lifted = ForbiddenPredicate.build(
                list(base.conjuncts),
                guards=[
                    KeyGuard("x%d" % i, "x%d" % (i + 1), equal=False)
                    for i in range(1, k)
                ],
                name="cross-key-crown-%d" % k,
                distinct=True,
            )
            verdict = classify(lifted)
            assert verdict.protocol_class is ProtocolClass.GENERAL
            assert verdict.min_order >= 2

    def test_same_key_crown_is_still_general(self):
        # The escalation is the crown's, not the guard's: pinning both
        # legs to one key does not rescue it.  What the lanes buy is
        # that *their* specs (fifo/causal) have an order-1 cycle; any
        # spec whose only cycles are crowns needs the merged oracle
        # whether or not the crown crosses keys.
        pinned = ForbiddenPredicate.build(
            [
                Conjunct(send_of("x1"), deliver_of("x2")),
                Conjunct(send_of("x2"), deliver_of("x1")),
            ],
            guards=[KeyGuard("x1", "x2", equal=True)],
            name="same-key-crown",
            distinct=True,
        )
        assert classify(pinned).protocol_class is ProtocolClass.GENERAL


class TestContradictoryKeyGuards:
    def test_equal_and_unequal_key_is_tagless(self):
        predicate = ForbiddenPredicate.build(
            [
                Conjunct(send_of("x"), send_of("y")),
                Conjunct(deliver_of("y"), deliver_of("x")),
            ],
            guards=[
                KeyGuard("x", "y", equal=True),
                KeyGuard("x", "y", equal=False),
            ],
            name="key-contradiction",
        )
        verdict = classify(predicate)
        assert verdict.protocol_class is ProtocolClass.TAGLESS
        assert not verdict.satisfiable and not verdict.guards_ok

    def test_transitive_key_contradiction(self):
        predicate = ForbiddenPredicate.build(
            [
                Conjunct(send_of("x"), deliver_of("y")),
                Conjunct(send_of("y"), deliver_of("z")),
                Conjunct(send_of("z"), deliver_of("x")),
            ],
            guards=[
                KeyGuard("x", "y", equal=True),
                KeyGuard("y", "z", equal=True),
                KeyGuard("x", "z", equal=False),
            ],
            name="key-triangle",
            distinct=True,
        )
        assert classify(predicate).protocol_class is ProtocolClass.TAGLESS


# The e1-style verdict table for the sharded runtime: every row is one
# (spec form, expected class, expected min order) the shard design
# depends on.  min_order None means the cycle analysis never runs
# (unsatisfiable guards).
SHARD_TABLE = [
    ("fifo-per-key", lambda: scoped_to_key(FIFO, "fifo-per-key"),
     ProtocolClass.TAGGED, 1),
    ("causal-per-key", lambda: scoped_to_key(CAUSAL_B2, "causal-per-key"),
     ProtocolClass.TAGGED, 1),
    ("cross-key-crown", cross_key_crown, ProtocolClass.GENERAL, 2),
    ("key-contradiction", lambda: ForbiddenPredicate.build(
        [Conjunct(send_of("x"), send_of("y")),
         Conjunct(deliver_of("y"), deliver_of("x"))],
        guards=[KeyGuard("x", "y", equal=True),
                KeyGuard("x", "y", equal=False)],
        name="key-contradiction"),
     ProtocolClass.TAGLESS, None),
]


class TestShardVerdictTable:
    @pytest.mark.parametrize(
        "name,build,expected_class,expected_order",
        SHARD_TABLE,
        ids=[row[0] for row in SHARD_TABLE],
    )
    def test_row(self, name, build, expected_class, expected_order):
        verdict = classify(build())
        assert verdict.protocol_class is expected_class, verdict.summary()
        assert verdict.min_order == expected_order, verdict.summary()

    def test_specification_level_verdicts(self):
        per_key = Specification(
            name="per-key-lanes",
            predicates=(
                scoped_to_key(FIFO, "fifo-per-key"),
                scoped_to_key(CAUSAL_B2, "causal-per-key"),
            ),
            description="What every lane checks live, O(1) per delivery.",
        )
        lifted = Specification(
            name="cross-key-lifting",
            predicates=(
                scoped_to_key(FIFO, "fifo-per-key"),
                cross_key_crown(),
            ),
            description="The same lanes plus one cross-key constraint.",
        )
        assert (
            classify_specification(per_key).protocol_class
            is ProtocolClass.TAGGED
        )
        # One cross-key member drags the whole specification to GENERAL
        # (the strongest member wins): adding any cross-key constraint
        # makes the live lanes insufficient, hence the merged oracle.
        assert (
            classify_specification(lifted).protocol_class
            is ProtocolClass.GENERAL
        )

    def test_process_guards_compose_with_key_guards(self):
        # fifo already carries channel ProcessGuards; adding the key
        # scope keeps them satisfiable together.
        scoped = scoped_to_key(FIFO, "fifo-per-key")
        assert any(isinstance(g, ProcessGuard) for g in scoped.guards)
        assert any(isinstance(g, KeyGuard) for g in scoped.guards)
        assert classify(scoped).guards_ok
