"""Execution traces and statistics.

Every system event (invoke/send/receive/deliver) is recorded with its
virtual time and a global sequence number; the trace converts losslessly
to a :class:`~repro.runs.SystemRun` whose per-process sequences follow
recording order.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class TraceRecord:
    """One recorded system event."""

    time: float
    sequence: int
    process: int
    event: Event


def _count(name: str, doc: str) -> property:
    """A read-only integer view of the registry counter ``name``."""
    return property(lambda stats: int(stats._read(name)), doc=doc)


class SimulationStats:
    """Aggregate protocol costs measured during a run.

    A read view over :attr:`registry`, which the run's
    :class:`~repro.simulation.host.ProtocolHost` instances write; nothing
    here is stored twice.  Latencies live in the registry's
    memory-bounded histograms: means and maxima are exact, while
    :meth:`delivery_latency_percentile` (the p95 a summary prints) is
    nearest-rank exact up to :data:`~repro.obs.metrics.SAMPLE_LIMIT`
    (4096) deliveries and bucket-approximate past them.  Fault counts are
    not host facts; they
    are :attr:`~repro.simulation.runner.SimulationResult.fault_summary`.
    """

    user_messages = _count("messages.user", "User messages released.")
    control_messages = _count("net.control.messages", "Control messages sent.")
    control_bytes = _count("net.control.bytes", "Control payload bytes sent.")
    tag_bytes_total = _count("tag.bytes", "Tag bytes piggybacked.")
    deliveries = _count("messages.delivered", "Deliveries executed.")
    delayed_deliveries = _count(
        "messages.delayed", "Deliveries not executed at receive time."
    )
    retransmissions = _count("retx.messages", "Packets re-sent by an ARQ sublayer.")
    duplicate_receives = _count(
        "retx.dups", "Repeat arrivals routed to ``on_duplicate``."
    )

    def __init__(self) -> None:
        from repro.obs.metrics import MetricsRegistry  # obs imports this module

        self.registry = MetricsRegistry()

    def _read(self, name: str, field: str = "value") -> float:
        """``field`` of the metric ``name``; 0 while no host has written it."""
        metric = self.registry.get(name)
        return getattr(metric, field) if metric is not None else 0.0

    @property
    def max_tag_bytes(self) -> int:
        return int(self._read("tag.bytes.per_message", "max"))

    @property
    def mean_tag_bytes(self) -> float:
        return self.tag_bytes_total / self.user_messages if self.user_messages else 0.0

    @property
    def mean_delivery_latency(self) -> float:
        return self._read("latency.delivery", "mean")

    @property
    def max_delivery_latency(self) -> float:
        return self._read("latency.delivery", "max")

    def delivery_latency_percentile(self, p: float) -> float:
        """The nearest-rank ``p``-th percentile of send->deliver latency."""
        histogram = self.registry.get("latency.delivery")
        return histogram.percentile(p) if histogram is not None else 0.0

    @property
    def mean_end_to_end_latency(self) -> float:
        """Invoke-to-delivery time: includes send inhibition, which is
        where the logically synchronous protocols pay."""
        return self._read("latency.end_to_end", "mean")

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
