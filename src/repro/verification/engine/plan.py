"""Compiling forbidden predicates into evaluation plans.

A :class:`CompiledPredicate` fixes, once per predicate, everything the
per-event search would otherwise recompute: a variable order chosen by
guard/conjunct selectivity, the guards and conjuncts checkable at each
binding depth, and a candidate *narrower* per variable that turns
equality guards into index lookups (``color(y) = red`` enumerates only
red messages; ``sender(x) = sender(y)`` with ``y`` bound enumerates only
messages from ``y``'s sender).  Narrowing is purely a candidate filter --
every guard and conjunct is still checked -- so compiled search returns
exactly the assignments the brute-force enumeration of
:mod:`repro.predicates.evaluation` finds, just through far fewer
candidates.

The anchored search of the incremental monitor gets two more filters of
the same kind, both consequences of the anchor being the *newest* event
of an :class:`~repro.verification.engine.causality.OnlineCausality`:
anchors that would put the new event before something are skipped
(:class:`Anchor`), and a variable joined by a conjunct to an
already-bound event draws its candidates from that event's causal cone
when the cone is smaller than the attribute bucket (:attr:`PlanStep.cones`).
The unanchored batch search takes neither and stays the reference.

Each plan is then compiled to its *evaluator*: nested closures, one per
step, each holding its step's guards and conjuncts as direct tests, so a
candidate costs a call per level and no interpretation of the plan.
The batch plan and every anchored plan run through the same compiler.

Compilation is cached (:func:`compile_predicate` is memoized on the
frozen :class:`~repro.predicates.ast.ForbiddenPredicate`), so the model
checker pays it once per predicate per process lifetime.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.events import DELIVER, SEND, EventKind, Message
from repro.predicates.ast import Conjunct, EventTerm, ForbiddenPredicate
from repro.predicates.guards import (
    ColorGuard,
    GroupGuard,
    Guard,
    ProcessGuard,
    guards_satisfiable,
)
from repro.verification.engine.causality import OnlineCausality
from repro.verification.engine.indexes import COLOR, GROUP, MessageIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (monitor imports us)
    from repro.verification.engine.monitor import MonitorStats

Assignment = Dict[str, Message]
#: ``ordered(a_id, a_kind, b_id, b_kind)``: both events happened and
#: ``a ▷ b`` (:meth:`OnlineCausality.ordered`'s signature).
Ordered = Callable[[str, EventKind, str, EventKind], bool]
#: ``evaluate(assignment, index, ordered, causality, stats)``: the first
#: completion of ``assignment`` by a compiled plan, or ``None``.
Evaluator = Callable[..., Optional[Assignment]]

# Narrower shapes (attribute lookups that bound a variable's candidates):
#   ("color", constant)            -- ColorGuard equality with a constant
#   ("process", role, var, role')  -- ProcessGuard equality to a bound var
#   ("group", var)                 -- GroupGuard equality to a bound var
Narrower = Tuple

#: A cone join ``(future, bound, kind)`` of a plan step: a conjunct ties
#: the step's ``kind`` event to the already-bound term ``bound``, so the
#: step's message has that event in ``bound``'s future cone
#: (``bound ▷ w.kind``) or past cone (``w.kind ▷ bound``).
ConeJoin = Tuple[bool, EventTerm, EventKind]


@dataclass(frozen=True)
class PlanStep:
    """One variable binding of an evaluation plan."""

    variable: str
    #: Index lookup bounding this variable's candidates (``None`` = all).
    narrower: Optional[Narrower]
    #: Guards that become fully bound at this depth.
    guards: Tuple[Guard, ...]
    #: Conjuncts that become fully bound at this depth.
    conjuncts: Tuple[Conjunct, ...]
    #: Causal cones of bound events that contain every passing candidate.
    cones: Tuple[ConeJoin, ...]


@dataclass(frozen=True)
class Anchor:
    """One way of pinning a new event ``(m, kind)`` into a predicate."""

    variable: str
    #: Pinning the *newest* event of a run here cannot complete an
    #: instance: ``variable.kind`` is the left side of a conjunct and
    #: nothing is after the newest event, or it is a send and the
    #: predicate also uses the message's delivery, which cannot have
    #: happened yet (``OnlineCausality.observe`` rejects that order).
    dead: bool


def _narrower_for(
    variable: str, bound: Sequence[str], guards: Sequence[Guard]
) -> Optional[Narrower]:
    """The most selective index lookup available for ``variable`` once the
    variables in ``bound`` are assigned."""
    bound_set = set(bound)
    process_join: Optional[Narrower] = None
    group_join: Optional[Narrower] = None
    for guard in guards:
        if isinstance(guard, ColorGuard):
            if guard.equal and guard.variable == variable:
                return ("color", guard.color)
        elif isinstance(guard, ProcessGuard):
            if not guard.equal:
                continue
            for mine, other in ((guard.left, guard.right), (guard.right, guard.left)):
                if (
                    mine[0] == variable
                    and other[0] != variable
                    and other[0] in bound_set
                    and process_join is None
                ):
                    process_join = ("process", mine[1], other[0], other[1])
        elif isinstance(guard, GroupGuard):
            if not guard.equal:
                continue
            for mine, other in ((guard.left, guard.right), (guard.right, guard.left)):
                if (
                    mine == variable
                    and other != variable
                    and other in bound_set
                    and group_join is None
                ):
                    group_join = ("group", other)
    return process_join or group_join


def _cones_for(variable: str, conjuncts: Sequence[Conjunct]) -> Tuple[ConeJoin, ...]:
    """The cone joins of a step: one per conjunct between ``variable`` and
    a variable bound before it (every conjunct of a step but a self-loop)."""
    joins: List[ConeJoin] = []
    for conjunct in conjuncts:
        if conjunct.is_self_loop:
            continue
        if conjunct.right.variable == variable:
            joins.append((True, conjunct.left, conjunct.right.kind))
        else:
            joins.append((False, conjunct.right, conjunct.left.kind))
    return tuple(joins)


def _selectivity_order(
    predicate: ForbiddenPredicate, first: Optional[str] = None
) -> Tuple[str, ...]:
    """Greedy variable order: bind the most constrained variable next.

    Scores favour variables whose candidates an index lookup can bound
    (colour constants, equality joins to already-bound variables) and
    variables that complete conjuncts or guards early (pruning partial
    assignments at shallow depth).  Ties break on declared order, keeping
    plans deterministic.
    """
    declared = {v: i for i, v in enumerate(predicate.variables)}
    order: List[str] = []
    if first is not None:
        order.append(first)
    remaining = [v for v in predicate.variables if v not in order]
    while remaining:
        best = None
        best_key = None
        bound = set(order)
        for variable in remaining:
            score = 0
            for guard in predicate.guards:
                names = set(guard.variables())
                if variable not in names:
                    continue
                if isinstance(guard, ColorGuard) and guard.equal:
                    score += 4
                elif guard.equal and len(names) > 1 and (names - {variable}) <= bound:
                    score += 3
                if names <= bound | {variable}:
                    score += 1
            for conjunct in predicate.conjuncts:
                names = set(conjunct.variables())
                if variable in names and names <= bound | {variable}:
                    score += 2
            key = (-score, declared[variable])
            if best_key is None or key < best_key:
                best, best_key = variable, key
        assert best is not None
        order.append(best)
        remaining.remove(best)
    return tuple(order)


def _build_steps(
    predicate: ForbiddenPredicate, order: Tuple[str, ...]
) -> Tuple[PlanStep, ...]:
    position = {variable: i for i, variable in enumerate(order)}
    guards_at: List[List[Guard]] = [[] for _ in order]
    for guard in predicate.guards:
        guards_at[max(position[v] for v in guard.variables())].append(guard)
    conjuncts_at: List[List[Conjunct]] = [[] for _ in order]
    for conjunct in predicate.conjuncts:
        conjuncts_at[max(position[v] for v in conjunct.variables())].append(conjunct)
    return tuple(
        PlanStep(
            variable=variable,
            narrower=_narrower_for(variable, order[:depth], predicate.guards),
            guards=tuple(guards_at[depth]),
            conjuncts=tuple(conjuncts_at[depth]),
            cones=_cones_for(variable, conjuncts_at[depth]),
        )
        for depth, variable in enumerate(order)
    )


def _candidates(
    step: PlanStep,
    assignment: Assignment,
    index: MessageIndex,
    causality: Optional[OnlineCausality],
) -> Sequence[Message]:
    """The messages ``step`` tries for its variable, in registration order."""
    narrower = step.narrower
    if narrower is None:
        bucket = index.all_messages()
    elif narrower[0] == "color":
        bucket = index.bucket(COLOR, narrower[1])
    elif narrower[0] == "process":
        _, role, other, other_role = narrower
        bucket = index.bucket(role, getattr(assignment[other], other_role))
    else:
        _, other = narrower
        group = assignment[other].group
        if group is None:
            return ()
        bucket = index.bucket(GROUP, group)
    if causality is None or not step.cones or not bucket:
        return bucket
    # The step's conjuncts confine every passing candidate to each of
    # these cones as its guards confine it to the bucket: draw from
    # whichever is smallest, in the bucket's (registration) order.  (A
    # bound event that has not occurred has empty cones.)
    smallest, chosen = len(bucket), None
    for future, bound, kind in step.cones:
        cone = (causality.future_of if future else causality.past_of)(
            assignment[bound.variable].id, bound.kind, kind
        )
        size = sum(stop - start for _, start, stop in cone)
        if size < smallest:
            if not size:
                return ()
            smallest, chosen = size, cone
    if chosen is None:
        return bucket
    return sorted(
        (
            message
            for chain, start, stop in chosen
            for _, _, message in chain[start:stop]
        ),
        key=index.position,
    )


def _guard_test(guard: Guard) -> Callable[[Assignment], bool]:
    """``guard.holds``, with the process and colour guards read as plain
    attribute comparisons."""
    if type(guard) is ProcessGuard:
        (left, left_role), (right, right_role) = guard.left, guard.right
        left_of, right_of = attrgetter(left_role), attrgetter(right_role)
        equal = guard.equal
        return lambda assignment: (
            left_of(assignment[left]) == right_of(assignment[right])
        ) == equal
    if type(guard) is ColorGuard:
        variable, color, equal = guard.variable, guard.color, guard.equal
        return lambda assignment: (assignment[variable].color == color) == equal
    return guard.holds


def _compile_step(
    step: PlanStep, inner: Evaluator, distinct: bool, pinned: bool
) -> Evaluator:
    """The closure of one step: bind each candidate to the step's variable
    (or, ``pinned``, take the anchor bound there), check the step's guards
    and conjuncts, and hand what passes to ``inner``."""
    variable = step.variable
    guards = tuple(map(_guard_test, step.guards))
    conjuncts = tuple(
        (c.left.variable, c.left.kind, c.right.variable, c.right.kind)
        for c in step.conjuncts
    )

    def passes(assignment: Assignment, ordered: Ordered) -> bool:
        for holds in guards:
            if not holds(assignment):
                return False
        for a, a_kind, b, b_kind in conjuncts:
            if not ordered(assignment[a].id, a_kind, assignment[b].id, b_kind):
                return False
        return True

    if pinned:
        if not (guards or conjuncts):
            return inner

        def check(assignment, index, ordered, causality, stats):
            if passes(assignment, ordered):
                return inner(assignment, index, ordered, causality, stats)
            return None

        return check

    def bind(assignment, index, ordered, causality, stats):
        candidates = _candidates(step, assignment, index, causality)
        if not candidates:
            return None
        taken = {bound.id for bound in assignment.values()} if distinct else ()
        for message in candidates:
            if stats is not None:
                stats.candidates += 1
            if message.id in taken:
                continue
            assignment[variable] = message
            if passes(assignment, ordered):
                found = inner(assignment, index, ordered, causality, stats)
                if found is not None:
                    return found
        assignment.pop(variable, None)
        return None

    return bind


def _compile_plan(
    steps: Tuple[PlanStep, ...], distinct: bool, pinned: bool = False
) -> Evaluator:
    """A plan's evaluator: its step closures nested, first step outermost."""
    evaluate: Evaluator = lambda assignment, *_: dict(assignment)  # noqa: E731
    for depth in range(len(steps) - 1, -1, -1):
        evaluate = _compile_step(steps[depth], evaluate, distinct, pinned and not depth)
    return evaluate


@dataclass(frozen=True)
class CompiledPredicate:
    """A forbidden predicate with its precomputed evaluation plans."""

    predicate: ForbiddenPredicate
    #: ``True`` when no run can satisfy the predicate (a self-loop conjunct
    #: like ``x.r ▷ x.s``, or contradictory guards): search is skipped.
    never_satisfiable: bool
    #: The plan for unanchored (batch) search.
    plan: Tuple[PlanStep, ...]
    #: Per variable, the plan that binds it first (anchored search).
    anchored_plans: Dict[str, Tuple[PlanStep, ...]]
    #: Per event kind, the variables with a conjunct term of that kind:
    #: pinning each of them to the newest message makes the search cover
    #: exactly the instances *using* that event.
    anchors: Dict[EventKind, Tuple[Anchor, ...]]
    #: :attr:`plan` compiled (:func:`_compile_plan`).
    evaluate: Evaluator = field(repr=False, compare=False)
    #: :attr:`anchored_plans` compiled, each entered with its anchor bound.
    anchored: Dict[str, Evaluator] = field(repr=False, compare=False)

    @property
    def name(self) -> str:
        return self.predicate.name or "anonymous"

    def find(self, index: MessageIndex, ordered: Ordered) -> Optional[Assignment]:
        """The first satisfying assignment, or ``None``."""
        if self.never_satisfiable:
            return None
        return self.evaluate({}, index, ordered, None, None)

    def find_anchored(
        self,
        message: Message,
        kind: EventKind,
        index: MessageIndex,
        ordered: Ordered,
        causality: Optional[OnlineCausality] = None,
        stats: Optional["MonitorStats"] = None,
    ) -> Optional[Assignment]:
        """A satisfying assignment using event ``(message, kind)``, or
        ``None``.  Each candidate anchor variable is pinned to ``message``
        and only the remaining ``m - 1`` variables are searched.

        With the ``causality`` that ``ordered`` answers from,
        whose newest observation must be this event and whose messages
        must all be in ``index``, dead anchors are skipped and candidates
        come from causal cones: the same first assignment through fewer
        candidates.  ``stats.candidates`` (when given) counts the
        candidates tried either way.
        """
        if self.never_satisfiable:
            return None
        for anchor in self.anchors.get(kind, ()):
            if anchor.dead and causality is not None:
                continue
            found = self.anchored[anchor.variable](
                {anchor.variable: message}, index, ordered, causality, stats
            )
            if found is not None:
                return found
        return None


def _plan_never_satisfiable(predicate: ForbiddenPredicate) -> bool:
    if any(conjunct.is_intrinsically_false for conjunct in predicate.conjuncts):
        return True
    return not guards_satisfiable(predicate.guards)


def _anchors(predicate: ForbiddenPredicate) -> Dict[EventKind, Tuple[Anchor, ...]]:
    """Every (event kind, variable) a new event can be pinned to, in
    order of first use, with what maximality already rules out."""
    terms: List[EventTerm] = []
    for conjunct in predicate.conjuncts:
        for term in (conjunct.left, conjunct.right):
            if term not in terms:
                terms.append(term)
    lefts = {conjunct.left for conjunct in predicate.conjuncts}
    anchors: Dict[EventKind, List[Anchor]] = {}
    for term in terms:
        undelivered = term.kind is SEND and EventTerm(term.variable, DELIVER) in terms
        anchors.setdefault(term.kind, []).append(
            Anchor(variable=term.variable, dead=term in lefts or undelivered)
        )
    return {kind: tuple(rows) for kind, rows in anchors.items()}


@functools.lru_cache(maxsize=None)
def compile_predicate(predicate: ForbiddenPredicate) -> CompiledPredicate:
    """Compile (and cache) the evaluation plans of one predicate."""
    anchors = _anchors(predicate)
    plan = _build_steps(predicate, _selectivity_order(predicate))
    anchored_plans = {
        anchor.variable: _build_steps(
            predicate, _selectivity_order(predicate, first=anchor.variable)
        )
        for rows in anchors.values()
        for anchor in rows
    }
    distinct = predicate.distinct
    return CompiledPredicate(
        predicate=predicate,
        never_satisfiable=_plan_never_satisfiable(predicate),
        plan=plan,
        anchored_plans=anchored_plans,
        anchors=anchors,
        evaluate=_compile_plan(plan, distinct),
        anchored={
            variable: _compile_plan(steps, distinct, pinned=True)
            for variable, steps in anchored_plans.items()
        },
    )
