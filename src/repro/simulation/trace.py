"""Execution traces and statistics.

Every system event (invoke/send/receive/deliver) is recorded with its
virtual time and a global sequence number; the trace converts losslessly
to a :class:`~repro.runs.SystemRun` whose per-process sequences follow
recording order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.events import DELIVER, INVOKE, RECEIVE, SEND, Event, Message
from repro.runs.system_run import SystemRun
from repro.runs.user_run import UserRun


def _items_size(obj: Any) -> int:
    return 8 + sum(map(estimate_size, obj))


#: Exact type -> its size, in subclass-resolution order (``bool`` before
#: ``int``): a subclass takes the entry of the first base it has here.
_SIZES = {
    type(None): lambda obj: 1,
    bool: lambda obj: 1,
    int: lambda obj: 8,
    float: lambda obj: 8,
    str: len,
    bytes: len,
    tuple: _items_size,
    list: _items_size,
    set: _items_size,
    frozenset: _items_size,
    dict: lambda obj: _items_size(obj.keys()) + sum(map(estimate_size, obj.values())),
}


def estimate_size(obj: Any) -> int:
    """A platform-independent byte estimate for tags and control payloads.

    Integers and floats cost 8 bytes, strings and bytes their length,
    booleans and ``None`` one byte; containers add 8 bytes of overhead plus
    their contents.  This deliberately models wire size, not CPython
    object size.
    """
    size = _SIZES.get(type(obj))
    if size is not None:
        return size(obj)
    for base, size in _SIZES.items():
        if isinstance(obj, base):
            return size(obj)
    if isinstance(obj, Message):
        return 16 + estimate_size(obj.id) + estimate_size(obj.color)
    if hasattr(obj, "__dict__"):
        return 8 + estimate_size(vars(obj))
    return 8


def _percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile; 0 on an empty list."""
    if not values:
        return 0.0
    if not 0 <= p <= 100:
        raise ValueError("percentile must be in [0, 100], got %r" % p)
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class TraceRecord:
    """One recorded system event."""

    time: float
    sequence: int
    process: int
    event: Event


@dataclass
class SimulationStats:
    """Aggregate protocol costs measured during a run."""

    user_messages: int = 0
    control_messages: int = 0
    control_bytes: int = 0
    tag_bytes_total: int = 0
    max_tag_bytes: int = 0
    deliveries: int = 0
    delayed_deliveries: int = 0  # deliveries not executed at receive time
    delivery_latencies: List[float] = field(default_factory=list)  # send -> deliver
    end_to_end_latencies: List[float] = field(default_factory=list)  # invoke -> deliver
    # Fault/recovery accounting (repro.faults + repro.protocols.reliable).
    retransmissions: int = 0  # packets re-sent by an ARQ sublayer
    duplicate_receives: int = 0  # repeat arrivals routed to on_duplicate
    packets_dropped: int = 0  # random/scripted drops
    packets_duplicated: int = 0  # random/scripted duplications
    partition_drops: int = 0  # drops caused by a partition window
    crash_drops: int = 0  # packets blackholed at a crashed process
    crashes: int = 0
    restarts: int = 0

    @property
    def mean_tag_bytes(self) -> float:
        return self.tag_bytes_total / self.user_messages if self.user_messages else 0.0

    @property
    def mean_delivery_latency(self) -> float:
        if not self.delivery_latencies:
            return 0.0
        return sum(self.delivery_latencies) / len(self.delivery_latencies)

    @property
    def max_delivery_latency(self) -> float:
        return max(self.delivery_latencies) if self.delivery_latencies else 0.0

    def delivery_latency_percentile(self, p: float) -> float:
        """The nearest-rank ``p``-th percentile of send->deliver latency."""
        return _percentile(self.delivery_latencies, p)

    @property
    def mean_end_to_end_latency(self) -> float:
        """Invoke-to-delivery time: includes send inhibition, which is
        where the logically synchronous protocols pay."""
        if not self.end_to_end_latencies:
            return 0.0
        return sum(self.end_to_end_latencies) / len(self.end_to_end_latencies)

    def control_per_user_message(self) -> float:
        """Control messages per user message sent."""
        return self.control_messages / self.user_messages if self.user_messages else 0.0

    @property
    def goodput(self) -> float:
        """Deliveries per transmission attempt (releases + retransmissions).

        1.0 on a reliable network; every retransmission a fault forces
        lowers it, which is the "cost of recovery" the benchmarks track.
        """
        attempts = self.user_messages + self.retransmissions
        return self.deliveries / attempts if attempts else 0.0


class Trace:
    """Append-only record of the system events of one simulation."""

    def __init__(self, n_processes: int):
        self.n_processes = n_processes
        self._records: List[TraceRecord] = []
        self._messages: Dict[str, Message] = {}
        self._times: Dict[Event, float] = {}
        self._sequence = 0
        self._taps: List[Any] = []

    def attach_tap(self, tap) -> None:
        """Stream every *future* record to ``tap(record, message)``.

        Taps observe, they cannot veto; replaying history to a
        late-attaching consumer is the caller's job (see
        :meth:`repro.net.host.NetHost._attach_observer` and the WAL sink,
        which both attach before traffic starts or replay first).
        """
        self._taps.append(tap)

    def register_message(self, message: Message) -> None:
        """Declare a message of the run (idempotent; conflicts rejected)."""
        existing = self._messages.get(message.id)
        if existing is not None and existing != message:
            raise ValueError("conflicting registration for message %r" % message.id)
        self._messages[message.id] = message

    def record(self, time: float, process: int, event: Event) -> None:
        """Append the execution of ``event`` at ``process``."""
        if event.message_id not in self._messages:
            raise ValueError("event %r for unregistered message" % (event,))
        if event in self._times:
            raise ValueError("event %r recorded twice" % (event,))
        self._records.append(
            TraceRecord(time=time, sequence=self._sequence, process=process, event=event)
        )
        self._times[event] = time
        self._sequence += 1
        if self._taps:
            record = self._records[-1]
            message = self._messages[event.message_id]
            for tap in self._taps:
                tap(record, message)

    # Queries --------------------------------------------------------------

    def records(self) -> List[TraceRecord]:
        """All records in execution order."""
        return list(self._records)

    def records_since(self, index: int) -> List[TraceRecord]:
        """The records appended after the first ``index`` (for incremental
        consumers such as :class:`repro.verification.engine.SpecMonitor`)."""
        return self._records[index:]

    @property
    def record_count(self) -> int:
        """How many records have been appended (no list copy)."""
        return len(self._records)

    def messages(self) -> List[Message]:
        """The registered messages, sorted by id."""
        return [self._messages[mid] for mid in sorted(self._messages)]

    def message(self, message_id: str) -> Optional[Message]:
        """The registered message with this id, or ``None``."""
        return self._messages.get(message_id)

    def has_event(self, event: Event) -> bool:
        """Whether ``event`` was recorded."""
        return event in self._times

    def time_of(self, event: Event) -> float:
        """The virtual time at which ``event`` executed."""
        return self._times[event]

    def __len__(self) -> int:
        return len(self._records)

    # Conversions ------------------------------------------------------------

    def to_system_run(self) -> SystemRun:
        """The trace as a :class:`SystemRun` (lossless)."""
        run = SystemRun(self.n_processes, self.messages())
        for record in self._records:
            run.append(record.process, record.event)
        return run

    def to_user_run(self) -> UserRun:
        """The trace's user view (projection of the system run)."""
        return self.to_system_run().users_view()

    def undelivered_messages(self) -> List[str]:
        """Invoked messages that never reached delivery (liveness check)."""
        stuck = []
        for message_id in sorted(self._messages):
            invoked = Event.invoke(message_id) in self._times
            delivered = Event.deliver(message_id) in self._times
            if invoked and not delivered:
                stuck.append(message_id)
        return stuck
