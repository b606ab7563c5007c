"""Online causality: vector-timestamp ``before`` queries with rewind.

The monitor's replay path observes user events in execution order; each
new event is maximal (it is ordered after every earlier event at its
process and, for a delivery, after its own send).  Under that append-only
discipline the happened-before relation is exactly captured by vector
timestamps: ``a ▷ b`` iff ``VC(b)[loc(a)] ≥ own(a)``, an O(1) query with
no transitive-closure maintenance at all.  The timestamps are kept in one
row per message and asked by ``(message id, kind)``
(:meth:`OnlineCausality.ordered`).  ``mark``/``rewind`` undo
observations in LIFO order so the model checker's DFS can share one
causality state across the whole search tree.

Each location's sends, and its deliveries, also form an append-only
*chain*, and every clock component is non-decreasing along a chain (a
later event at a location dominates the earlier ones).  So the events
after ``f`` are a suffix of every chain and the events before ``f`` a
prefix, each found by bisection on one component:
:meth:`OnlineCausality.future_of` and :meth:`OnlineCausality.past_of` return
those *cones* as slices whose size is known before anything is
enumerated, which is what lets the anchored search draw candidates from
the neighbourhood of a bound event instead of from history.

An event's *location* is the process it executes at: the sender for
``x.s``, the receiver for ``x.r`` -- the same attribution
:meth:`repro.runs.user_run.UserRun.events_of_process` uses, so the order
built here matches the batch replay order event for event.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.events import DELIVER, SEND, Event, EventKind, Message

#: What is known of one observed event: ``(location, own, vector clock)``.
EventInfo = Tuple[int, int, Dict[int, int]]
#: One chain entry: ``(vector clock, event, message)``.
ChainEntry = Tuple[Dict[int, int], Event, Message]
#: A causal cone, restricted to one event kind: one ``(chain, start,
#: stop)`` slice per location that holds part of it.  The chains are
#: shared, do not mutate.
Cone = List[Tuple[List[ChainEntry], int, int]]


def _first_at_least(chain: List[ChainEntry], component: int, count: int) -> int:
    """Index of the first entry whose clock ``component`` is ``>= count``.

    The component is non-decreasing along the chain, so this is a
    bisection (by hand: ``bisect``'s ``key=`` needs Python 3.10); it
    gallops in from the tail first because a recent event cuts every
    chain near its end however long the chain has grown.
    """
    low, high, step = 0, len(chain), 1
    while step <= high:
        if chain[high - step][0].get(component, 0) < count:
            low = high - step + 1
            break
        high -= step
        step *= 2
    while low < high:
        middle = (low + high) >> 1
        if chain[middle][0].get(component, 0) < count:
            low = middle + 1
        else:
            high = middle
    return low


class OnlineCausality:
    """Happened-before over an event stream, one observation at a time.

    Per message the structure keeps one *row*: its send's and its
    delivery's ``(location, own, clock)`` (``None`` until that event is
    observed), where ``own`` is the event's position among its
    location's events and ``clock`` its vector timestamp.  A row is read by
    ``(message id, kind)``, so no query builds or hashes an
    :class:`~repro.events.Event`.  Per location it keeps the running
    clock: the join of every event observed there, which is always the
    clock of the *last* event observed there because each new event
    dominates its location's past.  Per event kind and location it also
    keeps the chain of those events, in execution order.

    :meth:`ordered`, :meth:`info_of`, :meth:`future_of` and
    :meth:`past_of` are the id-based queries; :meth:`has`,
    :meth:`before`, :meth:`info`, :meth:`future` and :meth:`past` are
    the same questions asked with an ``Event``.
    """

    __slots__ = ("_rows", "_current", "_chains", "_log")

    def __init__(self) -> None:
        # message id -> [send info, delivery info], slot ``kind is DELIVER``;
        # an info is (location, own counter, vector clock) or None
        self._rows: Dict[str, List[Optional[EventInfo]]] = {}
        # location -> running clock (joined over all events located there)
        self._current: Dict[int, Dict[int, int]] = {}
        # slot -> location -> the events of that kind in execution order
        self._chains: Tuple[Dict[int, List[ChainEntry]], ...] = ({}, {})
        # undo log: (event, location, previous running clock of location)
        self._log: List[Tuple[Event, int, Optional[Dict[int, int]]]] = []

    def __len__(self) -> int:
        return len(self._log)

    def observe(self, event: Event, message: Message) -> None:
        """Record the execution of one user event (send or delivery).

        The event is ordered after everything previously observed at its
        location and, for a delivery, after the message's send.  A send
        observed *after* its own delivery cannot be represented
        append-only (the edge would run below an existing event), so it
        is rejected -- no recorded execution produces that order.
        """
        kind = event.kind
        if kind is SEND:
            location = message.sender
        elif kind is DELIVER:
            location = message.receiver
        else:
            raise ValueError(
                "causality tracks user events (send/deliver), got %r" % (event,)
            )
        slot = kind is DELIVER
        row = self._rows.get(event.message_id)
        if row is None:
            row = self._rows[event.message_id] = [None, None]
        elif row[slot] is not None:
            raise ValueError("event %r observed twice" % (event,))
        elif not slot and row[1] is not None:
            raise ValueError(
                "send %r observed after its delivery; the online "
                "causality path needs sends first" % (event,)
            )
        previous = self._current.get(location)
        clock = dict(previous) if previous is not None else {}
        if slot and row[0] is not None:
            for index, count in row[0][2].items():
                if clock.get(index, 0) < count:
                    clock[index] = count
        own = clock.get(location, 0) + 1
        clock[location] = own
        row[slot] = (location, own, clock)
        self._current[location] = clock
        self._chains[slot].setdefault(location, []).append((clock, event, message))
        self._log.append((event, location, previous))

    # Id-based queries -------------------------------------------------------

    def info_of(self, message_id: str, kind: EventKind) -> Optional[EventInfo]:
        """``(location, own_component, vector_clock)`` of an observed
        event, or ``None`` -- the clock dict is shared, do not mutate."""
        row = self._rows.get(message_id)
        if row is None or (kind is not SEND and kind is not DELIVER):
            return None
        return row[kind is DELIVER]

    def ordered(
        self, a_id: str, a_kind: EventKind, b_id: str, b_kind: EventKind
    ) -> bool:
        """``True`` iff both events were observed and ``a ▷ b`` (O(1)).

        The anchored search's one question per conjunct; the kinds are
        ``SEND`` or ``DELIVER``, the only ones :meth:`observe` takes."""
        rows = self._rows
        row_a = rows.get(a_id)
        row_b = rows.get(b_id)
        if row_a is None or row_b is None:
            return False
        a = row_a[a_kind is DELIVER]
        b = row_b[b_kind is DELIVER]
        if a is None or b is None or a is b:
            return False
        return b[2].get(a[0], 0) >= a[1]

    def future_of(
        self, message_id: str, kind: EventKind, cone_kind: EventKind
    ) -> Cone:
        """The ``cone_kind`` events ``g`` with ``(message_id, kind) ▷ g``:
        of every chain the suffix whose clocks have seen the event.
        Empty when the event has not been observed (nothing is after it
        yet)."""
        info = self.info_of(message_id, kind)
        if info is None:
            return []
        location, own, _ = info
        cone: Cone = []
        for at, chain in self._chains[cone_kind is DELIVER].items():
            # At its own location the event itself carries ``own``.
            start = _first_at_least(chain, location, own + (at == location))
            if start < len(chain):
                cone.append((chain, start, len(chain)))
        return cone

    def past_of(
        self, message_id: str, kind: EventKind, cone_kind: EventKind
    ) -> Cone:
        """The ``cone_kind`` events ``g`` with ``g ▷ (message_id, kind)``:
        of every chain the prefix the event's clock counts.  Empty when
        the event has not been observed."""
        info = self.info_of(message_id, kind)
        if info is None:
            return []
        location, _, clock = info
        chains = self._chains[cone_kind is DELIVER]
        cone: Cone = []
        for at, count in clock.items():
            chain = chains.get(at)
            if chain:
                stop = _first_at_least(chain, at, count + (at != location))
                if stop:
                    cone.append((chain, 0, stop))
        return cone

    # Event-based wrappers ---------------------------------------------------

    def has(self, event: Event) -> bool:
        """Whether ``event`` has been observed."""
        return self.info_of(event.message_id, event.kind) is not None

    def info(self, event: Event) -> Optional[EventInfo]:
        """:meth:`info_of` for an ``Event``."""
        return self.info_of(event.message_id, event.kind)

    def before(self, a: Event, b: Event) -> bool:
        """``True`` iff ``a ▷ b`` in the observed order (O(1))."""
        return (
            self.has(a)
            and self.has(b)
            and self.ordered(a.message_id, a.kind, b.message_id, b.kind)
        )

    def future(self, event: Event, kind: EventKind) -> Cone:
        """:meth:`future_of` for an ``Event``."""
        return self.future_of(event.message_id, event.kind, kind)

    def past(self, event: Event, kind: EventKind) -> Cone:
        """:meth:`past_of` for an ``Event``."""
        return self.past_of(event.message_id, event.kind, kind)

    # Snapshots ------------------------------------------------------------

    def mark(self) -> int:
        """A snapshot token: the number of observations so far."""
        return len(self._log)

    def rewind(self, token: int) -> None:
        """Forget every observation made after ``mark`` returned ``token``;
        a message's row goes with its last observed event."""
        while len(self._log) > token:
            event, location, previous = self._log.pop()
            slot = event.kind is DELIVER
            row = self._rows[event.message_id]
            row[slot] = None
            if row[not slot] is None:
                del self._rows[event.message_id]
            self._chains[slot][location].pop()
            if previous is None:
                del self._current[location]
            else:
                self._current[location] = previous

    def __repr__(self) -> str:
        return "OnlineCausality(events=%d, locations=%d)" % (
            len(self._log),
            len(self._current),
        )
