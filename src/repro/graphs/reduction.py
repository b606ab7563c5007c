"""Lemma 4: contracting a cycle to its canonical weaker predicate.

Every non-β vertex ``y`` on a cycle can be eliminated: its incoming
conjunct ``x.p ▷ y.h`` and outgoing conjunct ``y.h' ▷ z.q`` (with
``(h, h') ≠ (r, s)``) together imply ``x.p ▷ z.q`` (using ``y.s ▷ y.r``
when ``h = s, h' = r``).  On a grouped vertex the two conjuncts may name
different copies of one broadcast: they still compose, through the
shared send or through one delivery at a common site.  Repeating this
while more than two vertices remain and a non-β vertex exists yields a
weaker predicate whose graph is either a two-vertex cycle or an all-β
cycle of the same order -- the canonical forms of Lemma 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.graphs.beta import beta_vertices, cycle_order, is_beta_at
from repro.graphs.cycles import ResolvedCycle
from repro.graphs.predicate_graph import LabeledEdge
from repro.predicates.ast import Conjunct, EventTerm, ForbiddenPredicate


@dataclass(frozen=True)
class ReductionStep:
    """One contraction: ``removed`` eliminated, ``new_edge`` introduced."""

    removed: str
    merged_in: LabeledEdge
    merged_out: LabeledEdge
    new_edge: LabeledEdge

    def __repr__(self) -> str:
        return "contract %s: %r + %r => %r" % (
            self.removed,
            self.merged_in,
            self.merged_out,
            self.new_edge,
        )


@dataclass(frozen=True)
class Reduction:
    """The full Lemma 4 derivation for one cycle."""

    original: ResolvedCycle
    steps: Tuple[ReductionStep, ...]
    reduced: ResolvedCycle

    @property
    def order(self) -> int:
        return cycle_order(self.reduced)


def reduce_cycle(cycle: ResolvedCycle) -> Reduction:
    """Contract non-β vertices until two vertices remain or all are β.

    The cycle order is invariant under every step (contracting a non-β
    vertex neither creates nor destroys β vertices), which is exactly the
    content of Lemma 4.
    """
    steps: List[ReductionStep] = []
    current = cycle
    while current.length > 2:
        position = _first_non_beta(current)
        if position is None:
            break  # all β: canonical crown form
        current, step = _contract(current, position)
        steps.append(step)
    return Reduction(original=cycle, steps=tuple(steps), reduced=current)


def _first_non_beta(cycle: ResolvedCycle) -> Optional[int]:
    for position in range(cycle.length):
        if not is_beta_at(cycle, position):
            return position
    return None


def _contract(cycle: ResolvedCycle, position: int) -> Tuple[ResolvedCycle, ReductionStep]:
    incoming = cycle.incoming_edge(position)
    outgoing = cycle.outgoing_edge(position)
    new_edge = LabeledEdge(
        tail=incoming.tail,
        head=outgoing.head,
        p=incoming.p,
        q=outgoing.q,
        index=-1,  # derived edge; not a conjunct of the original predicate
        tail_var=incoming.tail_var,
        head_var=outgoing.head_var,
    )
    k = cycle.length
    vertices: List[str] = []
    edges: List[LabeledEdge] = []
    # Walk the cycle starting just after `position`, skipping it.
    for offset in range(1, k):
        i = (position + offset) % k
        vertices.append(cycle.vertices[i])
        if offset < k - 1:
            edges.append(cycle.outgoing_edge(i))
    edges.append(new_edge)
    reduced = ResolvedCycle(
        vertices=tuple(vertices), edges=tuple(edges), slots=cycle.slots
    )
    step = ReductionStep(
        removed=cycle.vertices[position],
        merged_in=incoming,
        merged_out=outgoing,
        new_edge=new_edge,
    )
    return reduced, step


def cycle_to_predicate(cycle: ResolvedCycle, name: Optional[str] = None) -> ForbiddenPredicate:
    """The forbidden predicate whose conjuncts are this cycle's edges.

    Each conjunct keeps its own variables.  Guards are not carried over,
    so a grouped cycle's predicate needs its group and receiver guards
    re-attached to mean the same."""
    conjuncts = [
        Conjunct(EventTerm(edge.tail_var, edge.p), EventTerm(edge.head_var, edge.q))
        for edge in cycle.edges
    ]
    return ForbiddenPredicate.build(conjuncts, name=name)
