"""Flight recorder: a bounded window of per-host observability records.

Every :class:`~repro.net.host.NetHost` keeps a :class:`FlightRecorder`
whose dump holds the host's last :data:`DEFAULT_CAPACITY` records --
message lifecycle records (invoke/send/receive/deliver) interleaved with
the fault/recovery stream -- each stamped with the wall clock, the
host's virtual clock and a monotone sequence number.

The lifecycle records are not copied: the host's
:class:`~repro.simulation.trace.Trace` is already the one record of a
message's four events, so the recorder tapes only the context probes
(:data:`CONTEXT_PROBES`), each stamped with the trace position it
followed, and builds the lifecycle records from the trace's tail when a
dump is asked for.  The recorder keeps no causal order of its own
either: the verification engine's
:class:`~repro.verification.engine.causality.OnlineCausality` is the one
owner of the vector timestamps, and :mod:`repro.obs.forensics` takes
them from the monitor.

The dump is deterministically serializable (:meth:`to_wire`): a
collector pulls it over a TRACE frame, a violation dumps the surrounding
window into the forensics report, and a draining host can persist it.
"""

from __future__ import annotations

import time as _time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.events import EventKind
from repro.obs.bus import Bus, ProbeEvent
from repro.simulation.trace import RECEIVED, Trace, TraceRecord

__all__ = [
    "CONTEXT_PROBES",
    "DEFAULT_CAPACITY",
    "LIFECYCLE_KINDS",
    "FlightRecord",
    "FlightRecorder",
]

#: Records a dump holds: about the last thousand messages' lifecycles
#: on one host.  Only context records are kept in memory; the lifecycle
#: records are read from the host's trace.
DEFAULT_CAPACITY = 4096

#: The lifecycle record kinds, indexed by :class:`~repro.events.EventKind`
#: value: the paper's four events.  Every context record keeps its probe
#: name as its kind.
LIFECYCLE_KINDS = ("invoke", "send", "receive", "deliver")

#: Non-lifecycle probes worth keeping in the ring (the fault/recovery
#: stream an operator replays when diagnosing a violation window).
CONTEXT_PROBES = (
    "host.inhibit",
    "fault.drop",
    "fault.dup",
    "fault.partition",
    "fault.spike",
    "retx.send",
    "retx.dup",
)


def _jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return repr(value)


def _wall_now(virtual: float) -> float:
    """The wall stamp of a recorder without a clock: taping time."""
    return _time.time()


@dataclass(frozen=True)
class FlightRecord:
    """One taped event: wall + virtual time, kind, payload."""

    seq: int
    wall: float
    time: float  # the host's virtual clock at the event
    kind: str  # "invoke"/"send"/"receive"/"deliver" or a probe name
    data: Dict[str, Any] = field(default_factory=dict)

    @property
    def message_id(self) -> Optional[str]:
        return self.data.get("message_id")

    def to_wire(self) -> Dict[str, Any]:
        """A JSON-safe encoding."""
        return {
            "seq": self.seq,
            "wall": self.wall,
            "t": self.time,
            "kind": self.kind,
            "data": _jsonable(self.data),
        }

    @classmethod
    def from_wire(cls, body: Dict[str, Any]) -> "FlightRecord":
        """Strict inverse of :meth:`to_wire` (an older dump's ``vc`` key
        is ignored)."""
        try:
            return cls(
                seq=int(body["seq"]),
                wall=float(body["wall"]),
                time=float(body["t"]),
                kind=str(body["kind"]),
                data=dict(body.get("data") or {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError("bad flight record %r: %s" % (body, exc)) from exc


class FlightRecorder:
    """A host's last records: its trace's tail and its context probes.

    The window holds ``capacity`` records.  ``trace`` is the host's trace,
    followed from its length at construction, and ``clock`` is the
    :class:`~repro.net.transport.WallClock` whose ``wall_at`` stamps every
    record; without a clock a context record is stamped when it is taped.
    :meth:`attach` subscribes to :data:`CONTEXT_PROBES` only.  The merged
    stream puts every context record after the lifecycle records the
    trace held when it was taped, which is the order the host executed
    them in; a ``send`` record carries no ``tag_bytes`` (the host's
    ``tag.bytes.per_message`` histogram does).
    """

    def __init__(
        self,
        process_id: int,
        capacity: int = DEFAULT_CAPACITY,
        *,
        trace: Optional[Trace] = None,
        clock: Optional[Any] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive, got %r" % capacity)
        self.process_id = process_id
        self.capacity = capacity
        self._trace = trace
        self._wall_at: Callable[[float], float] = (
            clock.wall_at if clock is not None else _wall_now
        )
        #: The trace span followed: from ``_start``, to ``_stop`` once closed.
        self._start = trace.record_count if trace is not None else 0
        self._stop: Optional[int] = None
        #: (lifecycle records before it, wall, probe event) per context record.
        self._ring: "deque[Tuple[int, float, ProbeEvent]]" = deque(
            maxlen=capacity
        )
        self._taped = 0
        self._unsubscribers: List[Callable[[], None]] = []

    # -- wiring ---------------------------------------------------------------

    def attach(self, bus: Bus) -> None:
        """Subscribe to the context probes of ``bus``."""
        for probe in CONTEXT_PROBES:
            self._unsubscribers.append(bus.subscribe(probe, self._on_context))

    def close(self) -> None:
        """Detach from the bus and the trace (the records remain
        queryable)."""
        for unsubscribe in self._unsubscribers:
            unsubscribe()
        self._unsubscribers = []
        if self._stop is None:
            self._stop = self._end()

    def _end(self) -> int:
        if self._stop is not None:
            return self._stop
        return self._trace.record_count if self._trace is not None else 0

    def _on_context(self, event: ProbeEvent) -> None:
        self._ring.append(
            (self._end() - self._start, self._wall_at(event.time), event)
        )
        self._taped += 1

    # -- queries --------------------------------------------------------------

    def __len__(self) -> int:
        return min(self.capacity, self.recorded)

    @property
    def recorded(self) -> int:
        """Total records ever taped (>= ``len`` once the window slides)."""
        return self._end() - self._start + self._taped

    @property
    def dropped(self) -> int:
        """Records that slid out of the window."""
        return self.recorded - len(self)

    def records(self) -> List[FlightRecord]:
        """The retained records, oldest first.

        Lifecycle record ``i`` follows every context record taped after
        ``i`` trace records; only the trace's last ``capacity`` records
        and the retained context records can fall inside the window.
        """
        end = self._end()
        first = max(self._start, end - self.capacity)
        tail = (
            self._trace.records_since(first)[: end - first]
            if self._trace is not None
            else []
        )
        context = list(self._ring)
        older = self._taped - len(context)  # context records out of the ring
        merged: List[FlightRecord] = []
        taken = 0
        for index, record in enumerate(tail, first - self._start):
            while taken < len(context) and context[taken][0] <= index:
                merged.append(self._context_record(older + taken, context[taken]))
                taken += 1
            merged.append(self._lifecycle_record(index + older + taken, record))
        merged.extend(
            self._context_record(older + offset, context[offset])
            for offset in range(taken, len(context))
        )
        return merged[-self.capacity :]

    def _context_record(
        self, taped: int, entry: Tuple[int, float, ProbeEvent]
    ) -> FlightRecord:
        lifecycle, wall, event = entry
        return FlightRecord(
            seq=lifecycle + taped,
            wall=wall,
            time=event.time,
            kind=event.probe,
            data=dict(event.data),
        )

    def _lifecycle_record(self, seq: int, record: TraceRecord) -> FlightRecord:
        trace, event = self._trace, record.event
        message_id = event.message_id
        message = trace.message(message_id)
        data: Dict[str, Any] = {"message_id": message_id, "process": record.process}
        if event.kind in (EventKind.INVOKE, EventKind.SEND):
            data["receiver"] = message.receiver
        else:
            data["sender"] = message.sender
        if event.kind is EventKind.DELIVER:
            data["delayed"] = record.time > trace.row(message_id)[RECEIVED].time
        return FlightRecord(
            seq=seq,
            wall=self._wall_at(record.time),
            time=record.time,
            kind=LIFECYCLE_KINDS[event.kind.value],
            data=data,
        )

    def to_wire(self) -> Dict[str, Any]:
        """The whole window as a deterministic JSON-safe dump."""
        records = self.records()
        recorded = self.recorded
        return {
            "process": self.process_id,
            "capacity": self.capacity,
            "recorded": recorded,
            "dropped": recorded - len(records),
            "records": [record.to_wire() for record in records],
        }

    @classmethod
    def records_from_wire(cls, body: Dict[str, Any]) -> List[FlightRecord]:
        """Decode the record list of a :meth:`to_wire` dump."""
        return [FlightRecord.from_wire(item) for item in body.get("records", [])]
