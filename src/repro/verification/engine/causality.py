"""Online causality: vector-timestamp ``before`` queries with rewind.

The monitor's replay path observes user events in execution order; each
new event is maximal (it is ordered after every earlier event at its
process and, for a delivery, after its own send).  Under that append-only
discipline the happened-before relation is exactly captured by vector
timestamps: ``a ▷ b`` iff ``VC(b)[loc(a)] ≥ own(a)``, an O(1) query with
no transitive-closure maintenance at all.  ``mark``/``rewind`` undo
observations in LIFO order so the model checker's DFS can share one
causality state across the whole search tree.

Each location's sends, and its deliveries, also form an append-only
*chain*, and every clock component is non-decreasing along a chain (a
later event at a location dominates the earlier ones).  So the events
after ``f`` are a suffix of every chain and the events before ``f`` a
prefix, each found by bisection on one component:
:meth:`OnlineCausality.future` and :meth:`OnlineCausality.past` return
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

    Per event the structure stores ``(location, own, clock)`` where
    ``own`` is the event's position among its location's events and
    ``clock`` its vector timestamp.  Per location it keeps the running
    clock: the join of every event observed there, which is always the
    clock of the *last* event observed there because each new event
    dominates its location's past.  Per event kind and location it also
    keeps the chain of those events, in execution order.
    """

    __slots__ = ("_info", "_current", "_chains", "_log")

    def __init__(self) -> None:
        # event -> (location, own counter, vector clock)
        self._info: Dict[Event, Tuple[int, int, Dict[int, int]]] = {}
        # location -> running clock (joined over all events located there)
        self._current: Dict[int, Dict[int, int]] = {}
        # kind -> location -> its events of that kind in execution order
        self._chains: Dict[EventKind, Dict[int, List[ChainEntry]]] = {
            SEND: {},
            DELIVER: {},
        }
        # undo log: (event, location, previous running clock of location)
        self._log: List[Tuple[Event, int, Optional[Dict[int, int]]]] = []

    def __len__(self) -> int:
        return len(self._info)

    def has(self, event: Event) -> bool:
        """Whether ``event`` has been observed."""
        return event in self._info

    def observe(self, event: Event, message: Message) -> None:
        """Record the execution of one user event (send or delivery).

        The event is ordered after everything previously observed at its
        location and, for a delivery, after the message's send.  A send
        observed *after* its own delivery cannot be represented
        append-only (the edge would run below an existing event), so it
        is rejected -- no recorded execution produces that order.
        """
        if event in self._info:
            raise ValueError("event %r observed twice" % (event,))
        if event.kind is SEND:
            location = message.sender
            if Event.deliver(message.id) in self._info:
                raise ValueError(
                    "send %r observed after its delivery; the online "
                    "causality path needs sends first" % (event,)
                )
        elif event.kind is DELIVER:
            location = message.receiver
        else:
            raise ValueError(
                "causality tracks user events (send/deliver), got %r" % (event,)
            )
        previous = self._current.get(location)
        clock = dict(previous) if previous is not None else {}
        if event.kind is DELIVER:
            send_info = self._info.get(Event.send(message.id))
            if send_info is not None:
                for index, count in send_info[2].items():
                    if clock.get(index, 0) < count:
                        clock[index] = count
        own = clock.get(location, 0) + 1
        clock[location] = own
        self._info[event] = (location, own, clock)
        self._current[location] = clock
        self._chains[event.kind].setdefault(location, []).append(
            (clock, event, message)
        )
        self._log.append((event, location, previous))

    def info(self, event: Event) -> Optional[Tuple[int, int, Dict[int, int]]]:
        """``(location, own_component, vector_clock)`` for an observed
        event, or ``None`` -- the clock dict is shared, do not mutate."""
        return self._info.get(event)

    def before(self, a: Event, b: Event) -> bool:
        """``True`` iff ``a ▷ b`` in the observed order (O(1))."""
        if a == b:
            return False
        info_a = self._info.get(a)
        info_b = self._info.get(b)
        if info_a is None or info_b is None:
            return False
        location, own, _ = info_a
        return info_b[2].get(location, 0) >= own

    # Cones ----------------------------------------------------------------

    def future(self, event: Event, kind: EventKind) -> Cone:
        """The ``kind`` events ``g`` with ``event ▷ g``: of every chain
        the suffix whose clocks have seen ``event``.  Empty when ``event``
        has not been observed (nothing is after it yet)."""
        info = self._info.get(event)
        if info is None:
            return []
        location, own, _ = info
        cone: Cone = []
        for at, chain in self._chains[kind].items():
            # At its own location the event itself carries ``own``.
            start = _first_at_least(chain, location, own + (at == location))
            if start < len(chain):
                cone.append((chain, start, len(chain)))
        return cone

    def past(self, event: Event, kind: EventKind) -> Cone:
        """The ``kind`` events ``g`` with ``g ▷ event``: of every chain
        the prefix ``VC(event)`` counts.  Empty when ``event`` has not
        been observed."""
        info = self._info.get(event)
        if info is None:
            return []
        location, _, clock = info
        chains = self._chains[kind]
        cone: Cone = []
        for at, count in clock.items():
            chain = chains.get(at)
            if chain:
                stop = _first_at_least(chain, at, count + (at != location))
                if stop:
                    cone.append((chain, 0, stop))
        return cone

    # Snapshots ------------------------------------------------------------

    def mark(self) -> int:
        """A snapshot token: the number of observations so far."""
        return len(self._log)

    def rewind(self, token: int) -> None:
        """Forget every observation made after ``mark`` returned ``token``."""
        while len(self._log) > token:
            event, location, previous = self._log.pop()
            del self._info[event]
            self._chains[event.kind][location].pop()
            if previous is None:
                del self._current[location]
            else:
                self._current[location] = previous

    def __repr__(self) -> str:
        return "OnlineCausality(events=%d, locations=%d)" % (
            len(self._info),
            len(self._current),
        )
