"""AST for forbidden predicates.

A predicate is an existential conjunction of causality atoms between the
*user-visible* events (send ``x.s``, delivery ``x.r``) of message
variables, optionally guarded by attribute constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.events import DELIVER, SEND, EventKind
from repro.predicates.guards import Guard


@dataclass(frozen=True, order=True)
class EventTerm:
    """An event of a message variable: ``x.s`` or ``x.r``."""

    variable: str
    kind: EventKind

    def __post_init__(self) -> None:
        if self.kind not in (SEND, DELIVER):
            raise ValueError(
                "predicates range over user events (s, r); got %r" % (self.kind,)
            )

    def __repr__(self) -> str:
        return "%s.%s" % (self.variable, self.kind.symbol)


def send_of(variable: str) -> EventTerm:
    """The term ``variable.s``."""
    return EventTerm(variable, SEND)


def deliver_of(variable: str) -> EventTerm:
    """The term ``variable.r``."""
    return EventTerm(variable, DELIVER)


@dataclass(frozen=True, order=True)
class Conjunct:
    """A causality atom ``left ▷ right``."""

    left: EventTerm
    right: EventTerm

    def variables(self) -> Tuple[str, ...]:
        """The distinct variables this atom mentions, left first."""
        if self.left.variable == self.right.variable:
            return (self.left.variable,)
        return (self.left.variable, self.right.variable)

    @property
    def is_self_loop(self) -> bool:
        return self.left.variable == self.right.variable

    @property
    def is_intrinsically_false(self) -> bool:
        """``True`` when no run can satisfy this atom alone.

        With ``x.s ▷ x.r`` holding in every run, the self-atoms
        ``x.s ▷ x.s``, ``x.r ▷ x.r`` and ``x.r ▷ x.s`` each force an event
        before itself.
        """
        if not self.is_self_loop:
            return False
        return not (self.left.kind is SEND and self.right.kind is DELIVER)

    def __repr__(self) -> str:
        return "(%r > %r)" % (self.left, self.right)


@dataclass(frozen=True)
class ForbiddenPredicate:
    """``B ≡ ∃ x1..xm ∈ M [guards] : ∧ conjuncts``.

    ``variables`` fixes the quantifier order (and the vertex order of the
    predicate graph).  Distinct variables may bind the same message unless
    ``distinct`` is set; the paper's quantification allows repeats (the
    conjuncts of sensible predicates self-falsify on repeated bindings).
    """

    variables: Tuple[str, ...]
    conjuncts: Tuple[Conjunct, ...]
    guards: Tuple[Guard, ...] = ()
    name: Optional[str] = None
    distinct: bool = False

    def __post_init__(self) -> None:
        if not self.conjuncts:
            raise ValueError("a forbidden predicate needs at least one conjunct")
        declared = set(self.variables)
        used = {v for c in self.conjuncts for v in c.variables()}
        for guard in self.guards:
            used |= set(guard.variables())
        missing = used - declared
        if missing:
            raise ValueError("conjuncts/guards use undeclared variables %s" % sorted(missing))
        if len(declared) != len(self.variables):
            raise ValueError("duplicate variable names in %s" % (self.variables,))

    @staticmethod
    def build(
        conjuncts: Sequence[Conjunct],
        guards: Sequence[Guard] = (),
        name: Optional[str] = None,
        distinct: bool = False,
    ) -> "ForbiddenPredicate":
        """Construct with variables inferred in order of first use."""
        seen = []
        for conjunct in conjuncts:
            for variable in conjunct.variables():
                if variable not in seen:
                    seen.append(variable)
        for guard in guards:
            for variable in guard.variables():
                if variable not in seen:
                    seen.append(variable)
        return ForbiddenPredicate(
            variables=tuple(seen),
            conjuncts=tuple(conjuncts),
            guards=tuple(guards),
            name=name,
            distinct=distinct,
        )

    @property
    def arity(self) -> int:
        return len(self.variables)

    def without_conjunct(self, index: int) -> "ForbiddenPredicate":
        """A weaker predicate with one conjunct removed (Lemma 4 steps)."""
        remaining = tuple(
            c for i, c in enumerate(self.conjuncts) if i != index
        )
        return ForbiddenPredicate.build(
            remaining, guards=self.guards, name=None, distinct=self.distinct
        )

    def __repr__(self) -> str:
        body = " & ".join(repr(c) for c in self.conjuncts)
        guard_text = (
            "[%s] " % ", ".join(repr(g) for g in self.guards) if self.guards else ""
        )
        label = "%s: " % self.name if self.name else ""
        return "%sexists %s %s: %s%s" % (
            label,
            ",".join(self.variables),
            guard_text,
            "distinct " if self.distinct else "",
            body,
        )
