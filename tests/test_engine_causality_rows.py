"""The monitor's causal order is kept by message row, and asked by id.

:class:`~repro.verification.engine.OnlineCausality` keeps one row per
message (its send's and its delivery's ``(location, own, clock)``) and
answers the anchored search's one question, ``ordered(a_id, a_kind,
b_id, b_kind)``, without building an ``Event``.  Two things are stated
here:

- the row-keyed structure answers every query exactly as the
  ``Event``-keyed one it replaced (kept below as the reference), through
  random observe / mark / rewind walks, and a rewind drops a message's
  row with its last event;
- ``SpecMonitor.advance`` constructs no ``Event`` at all, and does the
  same work as before, candidate for candidate.
"""

import random
from typing import Dict, List, Optional, Tuple

import pytest

from repro.events import DELIVER, INVOKE, SEND, Event, EventKind, Message
from repro.protocols.registry import catalogue_entry
from repro.simulation import UniformLatency, random_traffic, run_simulation
from repro.verification.engine import OnlineCausality, SpecMonitor
from repro.verification.engine.causality import ChainEntry, Cone, _first_at_least


class EventKeyedCausality:
    """The reference: ``OnlineCausality`` as it was when every query
    hashed an ``Event`` into one event-keyed map."""

    def __init__(self) -> None:
        self._info: Dict[Event, Tuple[int, int, Dict[int, int]]] = {}
        self._current: Dict[int, Dict[int, int]] = {}
        self._chains: Dict[EventKind, Dict[int, List[ChainEntry]]] = {
            SEND: {},
            DELIVER: {},
        }
        self._log: List[Tuple[Event, int, Optional[Dict[int, int]]]] = []

    def __len__(self) -> int:
        return len(self._info)

    def has(self, event: Event) -> bool:
        return event in self._info

    def observe(self, event: Event, message: Message) -> None:
        if event in self._info:
            raise ValueError("event %r observed twice" % (event,))
        if event.kind is SEND:
            location = message.sender
            if Event.deliver(message.id) in self._info:
                raise ValueError("send %r observed after its delivery" % (event,))
        elif event.kind is DELIVER:
            location = message.receiver
        else:
            raise ValueError("causality tracks user events, got %r" % (event,))
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
        return self._info.get(event)

    def before(self, a: Event, b: Event) -> bool:
        if a == b:
            return False
        info_a = self._info.get(a)
        info_b = self._info.get(b)
        if info_a is None or info_b is None:
            return False
        location, own, _ = info_a
        return info_b[2].get(location, 0) >= own

    def future(self, event: Event, kind: EventKind) -> Cone:
        info = self._info.get(event)
        if info is None:
            return []
        location, own, _ = info
        cone: Cone = []
        for at, chain in self._chains[kind].items():
            start = _first_at_least(chain, location, own + (at == location))
            if start < len(chain):
                cone.append((chain, start, len(chain)))
        return cone

    def past(self, event: Event, kind: EventKind) -> Cone:
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

    def mark(self) -> int:
        return len(self._log)

    def rewind(self, token: int) -> None:
        while len(self._log) > token:
            event, location, previous = self._log.pop()
            del self._info[event]
            self._chains[event.kind][location].pop()
            if previous is None:
                del self._current[location]
            else:
                self._current[location] = previous


def _entries(cone):
    return [entry for chain, start, stop in cone for entry in chain[start:stop]]


def _assert_agree(rows, reference, messages):
    assert len(rows) == len(reference)
    user = [Event(m.id, kind) for m in messages for kind in (SEND, DELIVER)]
    for event in user + [Event.invoke(messages[0].id)]:
        assert rows.has(event) == reference.has(event), event
        assert rows.info(event) == reference.info(event), event
    for a in user:
        for b in user:
            expected = reference.before(a, b)
            assert rows.before(a, b) == expected, (a, b)
            assert rows.ordered(a.message_id, a.kind, b.message_id, b.kind) == (
                expected
            ), (a, b)
        for kind in (SEND, DELIVER):
            assert _entries(rows.future(a, kind)) == _entries(
                reference.future(a, kind)
            ), (a, kind)
            assert _entries(rows.past(a, kind)) == _entries(
                reference.past(a, kind)
            ), (a, kind)
    # One row per message with an observed event, none for the rest.
    assert set(rows._rows) == {
        m.id for m in messages if reference.has(Event.send(m.id))
    } | {m.id for m in messages if reference.has(Event.deliver(m.id))}


def _walk(seed):
    """A random append-only run (each send before its delivery, some
    messages never delivered) with random marks and rewinds, checking
    agreement after every step."""
    rng = random.Random(seed)
    n_processes = rng.randint(2, 8)
    messages = []
    for i in range(rng.randint(1, 9)):
        sender = rng.randrange(n_processes)
        receiver = (sender + rng.randrange(1, n_processes)) % n_processes
        messages.append(Message("m%d" % i, sender, receiver))
    rows, reference = OnlineCausality(), EventKeyedCausality()
    marks: List[int] = []
    lone_rewinds = 0
    for _ in range(50):
        eligible = [
            (Event.send(m.id), m)
            for m in messages
            if not reference.has(Event.send(m.id))
        ] + [
            (Event.deliver(m.id), m)
            for m in messages
            if reference.has(Event.send(m.id))
            and not reference.has(Event.deliver(m.id))
        ]
        roll = rng.random()
        if eligible and roll < 0.55:
            event, message = rng.choice(eligible)
            rows.observe(event, message)
            reference.observe(event, message)
        elif eligible and roll < 0.65:
            # Observe a message's first event and undo it at once: its
            # only observed event goes, and its row with it.
            fresh = [pair for pair in eligible if pair[0].kind is SEND]
            if fresh:
                event, message = rng.choice(fresh)
                token = rows.mark()
                assert token == reference.mark()
                rows.observe(event, message)
                reference.observe(event, message)
                _assert_agree(rows, reference, messages)
                rows.rewind(token)
                reference.rewind(token)
                assert message.id not in rows._rows
                lone_rewinds += 1
        elif roll < 0.8:
            marks.append(rows.mark())
            assert marks[-1] == reference.mark()
        elif marks:
            token = rng.choice(marks)
            marks = [mark for mark in marks if mark <= token]
            rows.rewind(token)
            reference.rewind(token)
        _assert_agree(rows, reference, messages)
    rows.rewind(0)
    reference.rewind(0)
    _assert_agree(rows, reference, messages)
    assert len(rows) == 0 and not rows._rows and not rows._current
    assert all(not chain for chains in rows._chains for chain in chains.values())
    return lone_rewinds


class TestRowsAgreeWithTheEventKeyedReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_walk(self, seed):
        _walk(seed)

    def test_walks_rewind_lone_events(self):
        assert sum(_walk(seed) for seed in range(40)) > 20

    def test_rejections_leave_no_row(self):
        message = Message("m", 0, 1)
        causality = OnlineCausality()
        with pytest.raises(ValueError):
            causality.observe(Event.invoke("m"), message)
        assert not causality._rows and len(causality) == 0
        causality.observe(Event.deliver("m"), message)
        with pytest.raises(ValueError, match="after its delivery"):
            causality.observe(Event.send("m"), message)
        with pytest.raises(ValueError, match="twice"):
            causality.observe(Event.deliver("m"), message)
        assert causality.info_of("m", SEND) is None
        assert causality.info_of("m", INVOKE) is None
        causality.rewind(0)
        assert not causality._rows


#: ``(protocol, processes, messages, seed, searches, candidates)``: the
#: monitor's counts on these traces at the commit before rows, when
#: every query built an ``Event``.
TRACES = (
    ("fifo", 3, 60, 11, 119, 304),
    ("causal-rst", 8, 40, 12, 79, 46),
)


class TestTheMonitorBuildsNoEvent:
    @pytest.mark.parametrize(
        "protocol, n_processes, count, seed, searches, candidates", TRACES
    )
    def test_advance_constructs_no_event(
        self, monkeypatch, protocol, n_processes, count, seed, searches, candidates
    ):
        entry = catalogue_entry(protocol)
        trace = run_simulation(
            entry.factory,
            random_traffic(n_processes, count, seed=seed, rate=2.0),
            seed=seed,
            latency=UniformLatency(low=1.0, high=30.0),
        ).trace
        monitor = SpecMonitor(entry.spec)
        built = []
        checked = Event.__post_init__

        def counting(event):
            built.append(event)
            checked(event)

        monkeypatch.setattr(Event, "__post_init__", counting)
        violation = monitor.advance(trace)
        assert built == []
        Event.send("control")  # the count does see a construction
        assert len(built) == 1
        monkeypatch.undo()

        assert violation is None
        assert monitor.stats.events_checked == 2 * count
        assert (monitor.stats.searches, monitor.stats.candidates) == (
            searches,
            candidates,
        )
