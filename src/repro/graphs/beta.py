"""β vertices and cycle order (Definition 4.3, extended to broadcasts).

A vertex ``x`` on a cycle is a **β vertex** when its incoming edge ends at
``x.r`` (conjunct ``y.p ▷ x.r``) and its outgoing edge starts at ``x.s``
(conjunct ``x.s ▷ z.q``).  At a β vertex the causal chain through the
cycle must pass "backwards" through the message -- from its delivery to
its send -- which no single message provides; each β vertex therefore
costs the chain one message boundary.  The *order* of a cycle is its
number of β vertices.

A grouped vertex (the copies of one broadcast, §7) has one more way to
break: the incoming edge ends at one copy's delivery and the outgoing
edge leaves another copy's delivery at a different site.  The two
deliveries are causally unrelated, so this **cross-site** break costs a
boundary no tag can bridge, and it counts like β.  Without group guards
every vertex is one variable and the rule is exactly Definition 4.3.
"""

from __future__ import annotations

from typing import List, Optional

from repro.events import DELIVER, SEND
from repro.graphs.cycles import ResolvedCycle
from repro.graphs.predicate_graph import LabeledEdge
from repro.predicates.guards import RECEIVER, SlotClasses


def is_beta_between(
    incoming: LabeledEdge,
    outgoing: LabeledEdge,
    slots: Optional[SlotClasses] = None,
) -> bool:
    """Break test for the vertex where ``incoming`` ends and ``outgoing``
    starts; ``slots`` (the guards' classes) pin copies' sites.

    A chain into a broadcast's shared send reaches every copy, and two
    copies delivered at one site are one delivery, so neither breaks.
    """
    if incoming.q is not DELIVER:
        return False
    if outgoing.p is SEND:
        return True
    here, there = incoming.head_var, outgoing.tail_var
    if here == there:
        return False
    sites = ((here, RECEIVER), (there, RECEIVER))
    if slots is not None and slots.same(*sites):
        return False
    if slots is None or not slots.apart(*sites):
        raise ValueError(
            "receiver relation between %s and %s is not pinned by guards; "
            "refine the predicate with receiver equality or disequality"
            % (here, there)
        )
    return True


def is_beta_at(cycle: ResolvedCycle, position: int) -> bool:
    """β test for the cycle vertex at ``position``."""
    return is_beta_between(
        cycle.incoming_edge(position), cycle.outgoing_edge(position), cycle.slots
    )


def beta_vertices(cycle: ResolvedCycle) -> List[str]:
    """The β vertices of the cycle, in cycle order."""
    return [
        cycle.vertices[i]
        for i in range(cycle.length)
        if is_beta_at(cycle, i)
    ]


def cycle_order(cycle: ResolvedCycle) -> int:
    """The number of β vertices (the paper's "order" of the cycle)."""
    return len(beta_vertices(cycle))
