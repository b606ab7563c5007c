"""Classifying forbidden predicates (Theorems 2, 3 and 4).

Given a predicate ``B``:

1. If the guards are unsatisfiable, or the conjunction itself cannot hold
   in any run (the *event graph* -- conjunct edges plus implicit
   ``x.s → x.r`` -- has a cycle, which is exactly when the predicate graph
   has a cycle of order 0), then ``X_B = X_async``: the **tagless**
   ("do nothing") protocol implements it.
2. Otherwise enumerate the simple cycles of the predicate graph:
   - no usable cycle       → the specification is **not implementable**;
   - a cycle of order 1    → **tagged** protocols suffice (and are needed);
   - only cycles of order ≥ 2 → a **general** protocol (control messages)
     is necessary and sufficient.

The degenerate self-loop ``x.s ▷ x.r`` is excluded from "usable" cycles:
forbidding it outlaws delivery itself, so no live protocol exists (see the
caveat in DESIGN.md).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.graphs.beta import beta_vertices, cycle_order
from repro.graphs.cycles import ResolvedCycle, resolved_cycles
from repro.graphs.predicate_graph import PredicateGraph
from repro.graphs.reduction import Reduction, reduce_cycle
from repro.poset.algorithms import find_cycle
from repro.events import DELIVER
from repro.predicates.ast import Conjunct, EventTerm, ForbiddenPredicate
from repro.predicates.guards import ColorGuard, ProcessGuard, guards_satisfiable
from repro.predicates.spec import Specification


#: How ``X_sync ⊆ X_B`` reads for a grouped predicate: synchrony orders
#: each broadcast as one message, which synchrony over its unicast copies
#: does not (two sites may then deliver two broadcasts in either order).
GROUPED_SYNC = " (each broadcast as one message, not over its unicast copies)"


class ProtocolClass(enum.Enum):
    """The protocol needed to implement a specification, weakest first."""

    TAGLESS = "tagless"
    TAGGED = "tagged"
    GENERAL = "general"
    NOT_IMPLEMENTABLE = "not_implementable"

    @property
    def strength(self) -> int:
        return _STRENGTH[self]

    @property
    def uses_control_messages(self) -> bool:
        return self is ProtocolClass.GENERAL

    @property
    def uses_tags(self) -> bool:
        return self in (ProtocolClass.TAGGED, ProtocolClass.GENERAL)


_STRENGTH = {
    ProtocolClass.TAGLESS: 0,
    ProtocolClass.TAGGED: 1,
    ProtocolClass.GENERAL: 2,
    ProtocolClass.NOT_IMPLEMENTABLE: 3,
}


@dataclass(frozen=True)
class CycleReport:
    """One cycle of the predicate graph with its β analysis."""

    cycle: ResolvedCycle
    betas: Tuple[str, ...]
    order: int

    @property
    def cross_site(self) -> Tuple[str, ...]:
        """The β vertices where two sites' deliveries of one broadcast
        meet (§7): the out-edge leaves a delivery, not the send."""
        return tuple(
            vertex
            for i, vertex in enumerate(self.cycle.vertices)
            if vertex in self.betas and self.cycle.outgoing_edge(i).p is DELIVER
        )

    def __repr__(self) -> str:
        cross = ", cross-site=%s" % list(self.cross_site) if self.cross_site else ""
        return "CycleReport(order=%d, betas=%s%s, %r)" % (
            self.order,
            list(self.betas),
            cross,
            self.cycle,
        )


@dataclass(frozen=True)
class Classification:
    """The full verdict for one forbidden predicate."""

    predicate: ForbiddenPredicate
    protocol_class: ProtocolClass
    satisfiable: bool
    guards_ok: bool
    cycles: Tuple[CycleReport, ...]
    min_order: Optional[int]
    witness: Optional[CycleReport]
    reduction: Optional[Reduction]
    degenerate: bool = False
    notes: Tuple[str, ...] = ()

    @property
    def implementable(self) -> bool:
        return self.protocol_class is not ProtocolClass.NOT_IMPLEMENTABLE

    @property
    def needs_control_messages(self) -> bool:
        return self.protocol_class is ProtocolClass.GENERAL

    @property
    def tagging_sufficient(self) -> bool:
        return self.protocol_class in (ProtocolClass.TAGGED, ProtocolClass.TAGLESS)

    def summary(self) -> str:
        """A multi-line human-readable verdict."""
        lines = [
            "predicate:     %r" % (self.predicate,),
            "class:         %s" % self.protocol_class.value,
            "satisfiable:   %s" % self.satisfiable,
            "cycles:        %d (min order %s)"
            % (len(self.cycles), self.min_order),
        ]
        if self.witness is not None:
            lines.append("witness:       %r" % (self.witness,))
        for note in self.notes:
            lines.append("note:          %s" % note)
        return "\n".join(lines)


def _partitions(items: Tuple[str, ...]):
    """All set partitions, as tuples of blocks (restricted-growth order)."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in _partitions(rest):
        yield ((first,),) + sub
        for i, block in enumerate(sub):
            yield sub[:i] + ((first,) + block,) + sub[i + 1 :]


def _quotient(predicate: ForbiddenPredicate, partition) -> ForbiddenPredicate:
    """The predicate with each block's variables identified (distinct
    semantics on the quotient)."""
    representative = {}
    for block in partition:
        rep = min(block)
        for variable in block:
            representative[variable] = rep

    def rename_term(term: EventTerm) -> EventTerm:
        return EventTerm(representative[term.variable], term.kind)

    conjuncts = []
    seen = set()
    for conjunct in predicate.conjuncts:
        renamed = Conjunct(rename_term(conjunct.left), rename_term(conjunct.right))
        if renamed not in seen:
            seen.add(renamed)
            conjuncts.append(renamed)
    guards = []
    for guard in predicate.guards:
        if isinstance(guard, ProcessGuard):
            guards.append(
                replace(
                    guard,
                    left=(representative[guard.left[0]], guard.left[1]),
                    right=(representative[guard.right[0]], guard.right[1]),
                )
            )
        elif isinstance(guard, ColorGuard):
            guards.append(replace(guard, variable=representative[guard.variable]))
        else:  # KeyGuard and GroupGuard relate two variables
            guards.append(
                replace(
                    guard,
                    left=representative[guard.left],
                    right=representative[guard.right],
                )
            )
    return ForbiddenPredicate.build(
        conjuncts, guards=guards, name=predicate.name, distinct=True
    )


def classify(predicate: ForbiddenPredicate) -> Classification:
    """The paper's decision procedure for a forbidden predicate.

    With ``distinct`` quantification this is exactly the predicate-graph
    algorithm.  Without it, two variables may bind the same message, so the
    specification is the intersection over every variable-identification
    quotient; the strongest quotient verdict wins.  (The paper's examples
    all self-falsify on repeated bindings, where the two notions agree; the
    crowns are the exception and are declared ``distinct``.)
    """
    if predicate.distinct or predicate.arity == 1:
        return _classify_distinct(predicate)
    verdicts = []
    for partition in _partitions(predicate.variables):
        if len(partition) == predicate.arity:
            base = _classify_distinct(predicate)
            verdicts.append(base)
        else:
            verdicts.append(_classify_distinct(_quotient(predicate, partition)))
    strongest = max(verdicts, key=lambda v: v.protocol_class.strength)
    if strongest.protocol_class is base.protocol_class:
        return base
    notes = base.notes + (
        "identifying variables %s strengthens the requirement to %s "
        "(repeated bindings are allowed; declare distinct=True to exclude"
        " them)"
        % (
            list(strongest.predicate.variables),
            strongest.protocol_class.value,
        ),
    )
    return Classification(
        predicate=predicate,
        protocol_class=strongest.protocol_class,
        satisfiable=base.satisfiable or strongest.satisfiable,
        guards_ok=base.guards_ok,
        cycles=base.cycles,
        min_order=base.min_order,
        witness=base.witness,
        reduction=base.reduction,
        degenerate=strongest.degenerate,
        notes=notes,
    )


def _classify_distinct(predicate: ForbiddenPredicate) -> Classification:
    notes: List[str] = []

    guards_ok = guards_satisfiable(predicate.guards)
    if not guards_ok:
        notes.append(
            "guards are unsatisfiable: no message tuple is constrained, "
            "so X_B = X_async and the trivial protocol suffices"
        )
        return Classification(
            predicate=predicate,
            protocol_class=ProtocolClass.TAGLESS,
            satisfiable=False,
            guards_ok=False,
            cycles=(),
            min_order=None,
            witness=None,
            reduction=None,
            notes=tuple(notes),
        )

    # ``x.s > x.r`` conjuncts are tautologies over complete runs (every
    # sent message is delivered; a copy of a broadcast shares the send of
    # its group): drop them.  A predicate reduced to nothing forbids the
    # mere existence of a guard-matching delivered message, which no live
    # protocol can guarantee.
    pgraph = PredicateGraph(predicate)
    tautologies = [e for e in pgraph.edges if e.is_degenerate]
    core_conjuncts = [
        predicate.conjuncts[e.index] for e in pgraph.edges if not e.is_degenerate
    ]
    if tautologies:
        notes.append(
            "dropped %d tautological conjunct(s) of the form x.s > x.r "
            "(always true in a complete run)" % len(tautologies)
        )
    if tautologies and not core_conjuncts:
        notes.append(
            "nothing remains: the specification forbids delivering any "
            "guard-matching message at all, violating liveness"
        )
        return Classification(
            predicate=predicate,
            protocol_class=ProtocolClass.NOT_IMPLEMENTABLE,
            satisfiable=True,
            guards_ok=True,
            cycles=(),
            min_order=None,
            witness=None,
            reduction=None,
            degenerate=True,
            notes=tuple(notes),
        )
    if tautologies:
        core = ForbiddenPredicate.build(
            core_conjuncts,
            guards=predicate.guards,
            name=predicate.name,
            distinct=predicate.distinct,
        )
        pgraph = PredicateGraph(core)

    all_cycles = resolved_cycles(pgraph)
    reports = tuple(
        CycleReport(
            cycle=cycle,
            betas=tuple(beta_vertices(cycle)),
            order=cycle_order(cycle),
        )
        for cycle in all_cycles
    )

    satisfiable = find_cycle(pgraph.event_graph()) is None
    if not satisfiable:
        # Equivalent to the existence of an order-0 cycle: the pattern can
        # never occur, so every run is admitted.
        notes.append(
            "conjunction is unsatisfiable in any partial order "
            "(order-0 cycle); X_B = X_async"
        )
        witness = _min_order_report(reports, include_degenerate=False)
        return Classification(
            predicate=predicate,
            protocol_class=ProtocolClass.TAGLESS,
            satisfiable=False,
            guards_ok=True,
            cycles=reports,
            min_order=witness.order if witness else None,
            witness=witness,
            reduction=reduce_cycle(witness.cycle) if witness else None,
            notes=tuple(notes),
        )

    # After dropping tautologies no x.s > x.r self-loops remain, and the
    # other self-loop shapes are event cycles caught by the check above,
    # so every surviving cycle is usable: it runs through >= 2 vertices,
    # or it is a grouped vertex's loop between two copies' deliveries.
    if not reports:
        notes.append(
            "predicate graph is acyclic; by Theorem 2 the specification "
            "excludes a logically synchronous run and cannot be implemented"
        )
        return Classification(
            predicate=predicate,
            protocol_class=ProtocolClass.NOT_IMPLEMENTABLE,
            satisfiable=True,
            guards_ok=True,
            cycles=reports,
            min_order=None,
            witness=None,
            reduction=None,
            notes=tuple(notes),
        )

    witness = _min_order_report(reports, include_degenerate=False)
    assert witness is not None
    min_order = witness.order
    if min_order == 0:
        # A satisfiable predicate cannot have an order-0 cycle (an order-0
        # cycle is an event cycle).  Defensive: treat as tagless.
        protocol_class = ProtocolClass.TAGLESS
        notes.append("unexpected order-0 cycle on satisfiable predicate")
    elif min_order == 1:
        protocol_class = ProtocolClass.TAGGED
        notes.append(
            "cycle of order 1: X_co ⊆ X_B (Theorem 3.2); tagging user "
            "messages suffices and control messages are unnecessary"
        )
    else:
        protocol_class = ProtocolClass.GENERAL
        notes.append(
            "all cycles have order ≥ 2: X_sync ⊆ X_B%s but X_co ⊄ X_B "
            "(Theorems 3.3/4.2); control messages are necessary"
            % (GROUPED_SYNC if pgraph.grouped else "")
        )
    return Classification(
        predicate=predicate,
        protocol_class=protocol_class,
        satisfiable=True,
        guards_ok=True,
        cycles=reports,
        min_order=min_order,
        witness=witness,
        reduction=reduce_cycle(witness.cycle),
        notes=tuple(notes),
    )


def _min_order_report(
    reports: Tuple[CycleReport, ...], include_degenerate: bool
) -> Optional[CycleReport]:
    candidates = [
        r for r in reports if include_degenerate or not r.cycle.is_degenerate
    ]
    if not candidates:
        return None
    return min(candidates, key=lambda r: (r.order, r.cycle.length))


@dataclass(frozen=True)
class SpecificationClassification:
    """Combined verdict for a multi-predicate specification."""

    specification: Specification
    protocol_class: ProtocolClass
    members: Tuple[Classification, ...]

    @property
    def implementable(self) -> bool:
        return self.protocol_class is not ProtocolClass.NOT_IMPLEMENTABLE


def classify_specification(
    specification: Specification, max_family_arity: int = 6
) -> SpecificationClassification:
    """Classify ``Y = ∩ X_B``: the strongest member class wins.

    ``X_lim ⊆ ∩ X_B`` iff ``X_lim ⊆ X_B`` for every member, so the combined
    class is the maximum over members; one unimplementable member makes the
    whole specification unimplementable.  Families are sampled up to
    ``max_family_arity`` (family members are structurally uniform, e.g.
    every crown of length ≥ 2 has order ≥ 2).
    """
    members = tuple(
        classify(predicate)
        for predicate in specification.all_predicates(max_family_arity)
    )
    if not members:
        raise ValueError(
            "specification %r has no members up to arity %d"
            % (specification.name, max_family_arity)
        )
    combined = max(members, key=lambda c: c.protocol_class.strength)
    return SpecificationClassification(
        specification=specification,
        protocol_class=combined.protocol_class,
        members=members,
    )
