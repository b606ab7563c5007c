"""Attribute guards on predicate variables (§4.1).

The paper allows three message attributes in specifications: the sending
process, the receiving process, and a colour.  Guards restrict which
message tuples a forbidden predicate quantifies over; they never mention
causality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.events import Message

# Roles name the two process attributes of a message.
SENDER = "sender"
RECEIVER = "receiver"
_ROLES = (SENDER, RECEIVER)


class Guard:
    """Base class: a boolean constraint over a variable assignment."""

    def variables(self) -> Tuple[str, ...]:
        """The variables the guard constrains."""
        raise NotImplementedError

    def holds(self, assignment: Mapping[str, Message]) -> bool:
        """Evaluate the guard under a variable-to-message assignment."""
        raise NotImplementedError


@dataclass(frozen=True)
class ProcessGuard(Guard):
    """``process(x.p) = process(y.q)`` (or ``≠``).

    ``left``/``right`` are ``(variable, role)`` pairs where role is
    ``"sender"`` (the process of ``x.s``) or ``"receiver"`` (of ``x.r``).
    """

    left: Tuple[str, str]
    right: Tuple[str, str]
    equal: bool = True

    def __post_init__(self) -> None:
        for _, role in (self.left, self.right):
            if role not in _ROLES:
                raise ValueError("role must be 'sender' or 'receiver', got %r" % role)

    def variables(self) -> Tuple[str, ...]:
        """The variables the guard constrains."""
        if self.left[0] == self.right[0]:
            return (self.left[0],)
        return (self.left[0], self.right[0])

    def holds(self, assignment: Mapping[str, Message]) -> bool:
        """Compare the two process attributes under ``assignment``."""
        left_value = assignment[self.left[0]].attribute(self.left[1])
        right_value = assignment[self.right[0]].attribute(self.right[1])
        return (left_value == right_value) == self.equal

    def __repr__(self) -> str:
        op = "=" if self.equal else "!="
        return "%s(%s) %s %s(%s)" % (
            self.left[1],
            self.left[0],
            op,
            self.right[1],
            self.right[0],
        )


@dataclass(frozen=True)
class ColorGuard(Guard):
    """``color(x) = constant`` (or ``≠``)."""

    variable: str
    color: str
    equal: bool = True

    def variables(self) -> Tuple[str, ...]:
        """The single constrained variable."""
        return (self.variable,)

    def holds(self, assignment: Mapping[str, Message]) -> bool:
        """Compare the variable's colour with the constant."""
        return (assignment[self.variable].color == self.color) == self.equal

    def __repr__(self) -> str:
        op = "=" if self.equal else "!="
        return "color(%s) %s %s" % (self.variable, op, self.color)


@dataclass(frozen=True)
class KeyGuard(Guard):
    """``key(x) = key(y)`` (or ``≠``) over effective ordering keys.

    The sharded runtime (:mod:`repro.net.shard`) sequences messages per
    *ordering key*; scoping a specification to one key attaches a
    same-key guard to its predicate, while a cross-key lifting couples
    variables through a different-key guard.  The key attribute is total
    (unkeyed messages default to their channel key), so unlike
    :class:`GroupGuard` absence can never falsify an equality.
    """

    left: str
    right: str
    equal: bool = True

    def variables(self) -> Tuple[str, ...]:
        """The variables the guard constrains."""
        if self.left == self.right:
            return (self.left,)
        return (self.left, self.right)

    def holds(self, assignment: Mapping[str, Message]) -> bool:
        """Compare the two effective ordering keys."""
        left_key = assignment[self.left].attribute("key")
        right_key = assignment[self.right].attribute("key")
        return (left_key == right_key) == self.equal

    def __repr__(self) -> str:
        op = "=" if self.equal else "!="
        return "key(%s) %s key(%s)" % (self.left, op, self.right)


@dataclass(frozen=True)
class GroupGuard(Guard):
    """``group(x) = group(y)`` (or ``≠``), both groups being present.

    Part of the §7 multicast extension: two variables in the same group
    bind copies of one logical broadcast, which share one send and
    deliver once per site.  The predicate graph gives each group one
    vertex (see :class:`repro.graphs.PredicateGraph`).
    """

    left: str
    right: str
    equal: bool = True

    def variables(self) -> Tuple[str, ...]:
        """The variables the guard constrains."""
        if self.left == self.right:
            return (self.left,)
        return (self.left, self.right)

    def holds(self, assignment: Mapping[str, Message]) -> bool:
        """Compare the two group ids (absent groups never match)."""
        left_group = assignment[self.left].group
        right_group = assignment[self.right].group
        if left_group is None or right_group is None:
            return False
        return (left_group == right_group) == self.equal

    def __repr__(self) -> str:
        op = "=" if self.equal else "!="
        return "group(%s) %s group(%s)" % (self.left, op, self.right)


# Each equality-style guard compares two attribute *slots*
# ``(variable, attribute)``.  Process slots name a role; key and group
# slots live in namespaces no role can take, so they never merge with one.
Slot = Tuple[str, str]
KEY_SLOT = "#key"
GROUP_SLOT = "#group"


def _slot_pair(guard: Guard) -> Optional[Tuple[Slot, Slot]]:
    """The two slots ``guard`` compares (``None`` for colour guards)."""
    if isinstance(guard, ProcessGuard):
        return guard.left, guard.right
    if isinstance(guard, KeyGuard):
        return (guard.left, KEY_SLOT), (guard.right, KEY_SLOT)
    if isinstance(guard, GroupGuard):
        return (guard.left, GROUP_SLOT), (guard.right, GROUP_SLOT)
    return None


class SlotClasses:
    """The equality classes that guards force on attribute slots.

    Equality guards merge classes (union-find); disequality guards are
    kept as pairs, to be tested against the classes.
    """

    def __init__(self, guards: Iterable[Guard]) -> None:
        self._parent: Dict[Slot, Slot] = {}
        self.unequal: List[Tuple[Slot, Slot]] = []
        for guard in guards:
            pair = _slot_pair(guard)
            if pair is None:
                continue
            if guard.equal:
                self._parent[self.find(pair[0])] = self.find(pair[1])
            else:
                self.unequal.append(pair)

    def find(self, slot: Slot) -> Slot:
        """The representative of ``slot``'s class."""
        self._parent.setdefault(slot, slot)
        while self._parent[slot] != slot:
            self._parent[slot] = self._parent[self._parent[slot]]
            slot = self._parent[slot]
        return slot

    def same(self, a: Slot, b: Slot) -> bool:
        """Whether the guards force ``a`` and ``b`` equal."""
        return self.find(a) == self.find(b)

    def apart(self, a: Slot, b: Slot) -> bool:
        """Whether a disequality guard separates ``a``'s and ``b``'s classes."""
        return any(
            (self.same(a, left) and self.same(b, right))
            or (self.same(a, right) and self.same(b, left))
            for left, right in self.unequal
        )


def guards_satisfiable(guards: Tuple[Guard, ...]) -> bool:
    """Whether *some* attribute assignment satisfies all guards.

    A conflict arises when a variable is forced to two different colour
    constants or to a colour it is also said not to have, or when a
    disequality connects two slots (process, key or group) already forced
    equal.  Slot domains are unbounded, so equalities alone are always
    satisfiable.
    """
    color_of: Dict[str, str] = {}
    color_not: Dict[str, set] = {}
    for guard in guards:
        if isinstance(guard, ColorGuard):
            if guard.equal:
                existing = color_of.get(guard.variable)
                if existing is not None and existing != guard.color:
                    return False
                color_of[guard.variable] = guard.color
            else:
                color_not.setdefault(guard.variable, set()).add(guard.color)

    for variable, forbidden in color_not.items():
        if color_of.get(variable) in forbidden:
            return False
    classes = SlotClasses(guards)
    return not any(classes.same(left, right) for left, right in classes.unequal)
