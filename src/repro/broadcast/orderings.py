"""The total-order (atomic) broadcast specification (§7).

A *grouped* predicate links variables through ``group(x) = group(y)``
guards: they bind copies of one logical broadcast, which share a send but
deliver at different sites.  ``repro.classify`` reads such guards
directly: the predicate graph gives each group one vertex, and a cycle
also breaks where one site's delivery meets another site's delivery of
the same broadcast (see :mod:`repro.graphs.beta`).

Two sites delivering two broadcasts in opposite orders is a two-vertex
cycle whose both junctions are such cross-site breaks: order 2, so
control messages are necessary, and the sequencer protocol is the
constructive witness.  This matches the folklore that in this model
totally ordered broadcast needs coordination while causally ordered
broadcast needs only vector tags.
"""

from __future__ import annotations

from repro.predicates.ast import Conjunct, ForbiddenPredicate, deliver_of
from repro.predicates.guards import GroupGuard, ProcessGuard
from repro.predicates.spec import Specification

# Forbidden: copies x1, x2 of one broadcast and y1, y2 of another such
# that site(x1) = site(y1) delivers x before y while site(x2) = site(y2)
# (a different site) delivers y before x.
TOTAL_ORDER_VIOLATION = ForbiddenPredicate.build(
    [
        Conjunct(deliver_of("x1"), deliver_of("y1")),
        Conjunct(deliver_of("y2"), deliver_of("x2")),
    ],
    guards=[
        GroupGuard("x1", "x2"),
        GroupGuard("y1", "y2"),
        GroupGuard("x1", "y1", equal=False),
        ProcessGuard(("x1", "receiver"), ("y1", "receiver")),
        ProcessGuard(("x2", "receiver"), ("y2", "receiver")),
        ProcessGuard(("x1", "receiver"), ("x2", "receiver"), equal=False),
    ],
    name="total-order-violation",
)

ATOMIC_BROADCAST = Specification(
    name="atomic-broadcast",
    predicates=(TOTAL_ORDER_VIOLATION,),
    description="All sites deliver broadcasts in one total order.",
)
