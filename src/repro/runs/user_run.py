"""The user's view of a run: a partial order over send/deliver events.

A :class:`UserRun` is the paper's projected run ``(H, ▷)`` (§3.3).  It is
the object that message-ordering specifications constrain.  A run is
*complete* when every sent message has been delivered
(``x.s ∈ H ⟺ x.r ∈ H``); specifications are sets of complete runs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.events import DELIVER, SEND, Event, EventKind, Message
from repro.events.message import MessageTable
from repro.poset import PartialOrder


class UserRun:
    """A projected run ``(H, ▷)``: messages plus a partial order on their
    send and delivery events.

    The invariant ``x.s ▷ x.r`` is enforced for every message whose both
    events are present (it always holds for projections of real executions
    and for the constructed runs of the paper's proofs).
    """

    def __init__(self, messages: Iterable[Message] = ()):
        self._table = MessageTable()
        self._order = PartialOrder()
        self._present: Set[Event] = set()
        for message in messages:
            self.add_message(message)

    # Construction ---------------------------------------------------------

    def add_message(self, message: Message, with_events: bool = True) -> Message:
        """Register ``message``; by default add both its user events with
        the mandatory ``x.s ▷ x.r`` relation."""
        self._table.add(message)
        if with_events:
            self.add_event(Event.send(message.id))
            self.add_event(Event.deliver(message.id))
        return message

    def add_event(self, event: Event) -> None:
        """Add one user event (enforcing ``x.s ▷ x.r`` when paired)."""
        if event.message_id not in self._table:
            raise ValueError("event %r references unknown message" % (event,))
        if not event.kind.is_user_visible:
            raise ValueError("user runs contain only send/deliver events, got %r" % (event,))
        if event in self._present:
            return
        self._present.add(event)
        self._order.add_element(event)
        # Enforce x.s ▷ x.r whenever both events exist.
        twin_kind = DELIVER if event.kind is SEND else SEND
        twin = Event(event.message_id, twin_kind)
        if twin in self._present:
            send = event if event.kind is SEND else twin
            deliver = twin if event.kind is SEND else event
            self._order.add_relation(send, deliver)

    def order(self, before: Event, after: Event) -> None:
        """Record ``before ▷ after``."""
        for event in (before, after):
            if event not in self._present:
                raise ValueError("event %r is not part of this run" % (event,))
        self._order.add_relation(before, after)

    def order_chain(self, events: Sequence[Event]) -> None:
        """Record ``events[0] ▷ events[1] ▷ ...``."""
        for before, after in zip(events, events[1:]):
            self.order(before, after)

    def copy(self) -> "UserRun":
        """An independent copy of messages, events and order (the copy
        keeps the generating pairs, so it has the same closure)."""
        clone = UserRun()
        for message in self.messages():
            clone._table.add(message)
        clone._present = set(self._present)
        clone._order = self._order.copy()
        return clone

    # Basic queries ----------------------------------------------------------

    def message(self, message_id: str) -> Message:
        """Look up a message by id."""
        return self._table[message_id]

    def messages(self) -> List[Message]:
        """All messages, sorted by id."""
        return self._table.messages()

    def message_ids(self) -> List[str]:
        """All message ids, sorted."""
        return self._table.ids()

    def events(self) -> List[Event]:
        """All present events, sorted."""
        return sorted(self._present)

    def has_event(self, event: Event) -> bool:
        """Whether the event is part of the run."""
        return event in self._present

    def __len__(self) -> int:
        return len(self._present)

    # Order queries ----------------------------------------------------------

    def before(self, a: Event, b: Event) -> bool:
        """``True`` iff ``a ▷ b`` in this run (``False`` when either event
        is not part of it)."""
        return self._order.less(a, b)

    def concurrent(self, a: Event, b: Event) -> bool:
        """Whether two events are incomparable under ▷."""
        return self._order.concurrent(a, b)

    def down_set(self, event: Event) -> Set[Event]:
        """The strict causal past of ``event``: every ``e`` with ``e ▷ event``."""
        return self._order.down_set(event)

    def generating_pairs(self) -> List[Tuple[Event, Event]]:
        """The relations of ▷ as recorded (usually far fewer than the
        closure)."""
        return self._order.generating_pairs()

    def relation_pairs(self) -> List[Tuple[Event, Event]]:
        """The full closure of ▷ as sorted pairs."""
        return self._order.relation_pairs()

    def partial_order(self) -> PartialOrder:
        """The underlying partial order (a defensive copy)."""
        return self._order.copy()

    # Validity ----------------------------------------------------------------

    def is_valid(self) -> bool:
        """``True`` iff ▷ is a partial order (acyclic generators)."""
        return self._order.is_valid()

    def validate(self) -> None:
        """Raise if ▷ is cyclic or some ``x.s ▷ x.r`` is missing."""
        self._order.validate()
        for message in self.messages():
            send = Event.send(message.id)
            deliver = Event.deliver(message.id)
            if (
                send in self._present
                and deliver in self._present
                and not self._order.less(send, deliver)
            ):
                raise ValueError(
                    "run violates x.s ▷ x.r for message %r" % (message.id,)
                )

    def is_complete(self) -> bool:
        """``x.s ∈ H ⟺ x.r ∈ H`` for every message."""
        for message in self.messages():
            has_send = Event.send(message.id) in self._present
            has_deliver = Event.deliver(message.id) in self._present
            if has_send != has_deliver:
                return False
        return True

    def causal_chain(self, a: Event, b: Event) -> Optional[List[Event]]:
        """A shortest witnessing chain ``a ▷ ... ▷ b`` through the run's
        generating relations, or ``None`` when ``a ▷ b`` does not hold.

        The chain explains *why* two events are ordered -- each hop is a
        process-order step or a message edge -- which turns an abstract
        violation report into a story.
        """
        if not self.before(a, b):
            return None
        from collections import deque

        successors: Dict[Event, List[Event]] = {}
        for tail, head in self.generating_pairs():
            successors.setdefault(tail, []).append(head)
        queue = deque([(a, [a])])
        seen = {a}
        while queue:
            node, path = queue.popleft()
            if node == b:
                return path
            for nxt in sorted(successors.get(node, [])):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append((nxt, path + [nxt]))
        return None  # pragma: no cover - before() guarantees a path

    # Canonical form -----------------------------------------------------------

    def canonical_form(self) -> Tuple[Tuple, ...]:
        """A hashable signature: (message attributes, closure pairs).

        Two runs are "the same partial order" in the paper's sense exactly
        when their canonical forms are equal.
        """
        message_sig = tuple(
            (m.id, m.sender, m.receiver, m.color, m.group)
            for m in self.messages()
        )
        event_sig = tuple(repr(e) for e in self.events())
        order_sig = tuple(
            (repr(a), repr(b)) for a, b in self._order.relation_pairs()
        )
        return (message_sig, event_sig, order_sig)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UserRun):
            return NotImplemented
        return self.canonical_form() == other.canonical_form()

    def __hash__(self) -> int:
        return hash(self.canonical_form())

    def __repr__(self) -> str:
        return "UserRun(messages=%d, events=%d, relations=%d)" % (
            len(self._table),
            len(self._present),
            self._order.relation_count(),
        )

    # Process structure ----------------------------------------------------

    def events_of_process(self, process: int) -> List[Event]:
        """The user events located at ``process`` (sends it makes, deliveries
        it receives), in an arbitrary deterministic order."""
        located = []
        for message in self.messages():
            if message.sender == process:
                event = Event.send(message.id)
                if event in self._present:
                    located.append(event)
            if message.receiver == process:
                event = Event.deliver(message.id)
                if event in self._present:
                    located.append(event)
        return sorted(located)

    def process_of_event(self, event: Event) -> int:
        """The process an event executes at (sender or receiver)."""
        message = self._table[event.message_id]
        return message.sender if event.kind is SEND else message.receiver

    def processes(self) -> List[int]:
        """Every process touched by the run's messages, sorted."""
        seen: Set[int] = set()
        for message in self.messages():
            seen.add(message.sender)
            seen.add(message.receiver)
        return sorted(seen)

    # Builders ------------------------------------------------------------

    @staticmethod
    def from_process_sequences(
        messages: Iterable[Message],
        sequences: Dict[int, Sequence[Event]],
        extra_relations: Iterable[Tuple[Event, Event]] = (),
    ) -> "UserRun":
        """Build a run from per-process total orders of user events.

        ``sequences[i]`` lists the user events executed by process ``i`` in
        order.  Message edges ``x.s ▷ x.r`` are implicit; ``extra_relations``
        may add more (rarely needed).
        """
        run = UserRun()
        for message in messages:
            run._table.add(message)
        for process, sequence in sequences.items():
            for event in sequence:
                if run.process_of_event(event) != process:
                    raise ValueError(
                        "event %r does not belong to process %d" % (event, process)
                    )
                run.add_event(event)
        for sequence in sequences.values():
            for before, after in zip(sequence, list(sequence)[1:]):
                run.order(before, after)
        for before, after in extra_relations:
            run.order(before, after)
        return run
