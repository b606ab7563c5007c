"""Flight recorder: a bounded ring of per-host observability records.

Every :class:`~repro.net.host.NetHost` keeps a :class:`FlightRecorder`
taping the last :data:`DEFAULT_CAPACITY` probe events -- message
lifecycle records (invoke/send/receive/deliver) plus the fault/recovery
stream -- each stamped with the wall clock, the host's virtual clock and
a monotone sequence number.  The recorder keeps no causal order of its
own: the verification engine's
:class:`~repro.verification.engine.causality.OnlineCausality` is the one
owner of the vector timestamps, and :mod:`repro.obs.forensics` takes
them from the monitor.

The ring is deterministically serializable (:meth:`to_wire`): a
collector pulls it over a TRACE frame, a violation dumps the surrounding
window into the forensics report, and a draining host can persist it --
which is also the captured-event groundwork for the ROADMAP's durable
replay log.
"""

from __future__ import annotations

import time as _time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.obs.bus import Bus, ProbeEvent

__all__ = [
    "CONTEXT_PROBES",
    "DEFAULT_CAPACITY",
    "LIFECYCLE_KINDS",
    "FlightRecord",
    "FlightRecorder",
]

#: Default ring size.  At the net runtime's loopback rates (~1.4k msgs/s
#: per host pair, four lifecycle records per message) this holds roughly
#: the last second of traffic per host.
DEFAULT_CAPACITY = 4096

#: Probe points taped by the recorder, and the record kind each becomes.
#: Lifecycle probes map onto the paper's event kinds; everything else
#: keeps its probe name.
LIFECYCLE_KINDS = {
    "host.invoke": "invoke",
    "host.release": "send",
    "host.receive": "receive",
    "host.deliver": "deliver",
}

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


@dataclass(frozen=True)
class FlightRecord:
    """One taped event: wall + virtual time, kind, payload."""

    seq: int
    wall: float
    time: float  # the host's virtual clock at the probe
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
    """A bounded ring buffer over a host's probe bus.

    Attach with :meth:`attach`; the recorder subscribes to the lifecycle
    probes and :data:`CONTEXT_PROBES`.
    """

    def __init__(
        self,
        process_id: int,
        capacity: int = DEFAULT_CAPACITY,
        wall: Callable[[], float] = _time.time,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive, got %r" % capacity)
        self.process_id = process_id
        self.capacity = capacity
        self._wall = wall
        self._ring: "deque[FlightRecord]" = deque(maxlen=capacity)
        self._seq = 0
        self._unsubscribers: List[Callable[[], None]] = []

    # -- wiring ---------------------------------------------------------------

    def attach(self, bus: Bus) -> None:
        """Subscribe to the lifecycle and context probes of ``bus``."""
        for probe in LIFECYCLE_KINDS:
            self._unsubscribers.append(bus.subscribe(probe, self._on_lifecycle))
        for probe in CONTEXT_PROBES:
            self._unsubscribers.append(bus.subscribe(probe, self._on_context))

    def close(self) -> None:
        """Detach from the bus (the ring remains queryable)."""
        for unsubscribe in self._unsubscribers:
            unsubscribe()
        self._unsubscribers = []

    # -- probe handlers -------------------------------------------------------

    def _on_lifecycle(self, event: ProbeEvent) -> None:
        self._append(LIFECYCLE_KINDS[event.probe], event)

    def _on_context(self, event: ProbeEvent) -> None:
        self._append(event.probe, event)

    def _append(self, kind: str, event: ProbeEvent) -> None:
        self._ring.append(
            FlightRecord(
                seq=self._seq,
                wall=self._wall(),
                time=event.time,
                kind=kind,
                data=dict(event.data),
            )
        )
        self._seq += 1

    # -- queries --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def recorded(self) -> int:
        """Total records ever taped (>= ``len`` once the ring wraps)."""
        return self._seq

    @property
    def dropped(self) -> int:
        """Records lost to ring overwrite."""
        return self._seq - len(self._ring)

    def records(self) -> List[FlightRecord]:
        """The retained records, oldest first."""
        return list(self._ring)

    def to_wire(self) -> Dict[str, Any]:
        """The whole ring as a deterministic JSON-safe dump."""
        return {
            "process": self.process_id,
            "capacity": self.capacity,
            "recorded": self._seq,
            "dropped": self.dropped,
            "records": [record.to_wire() for record in self._ring],
        }

    @classmethod
    def records_from_wire(cls, body: Dict[str, Any]) -> List[FlightRecord]:
        """Decode the record list of a :meth:`to_wire` dump."""
        return [FlightRecord.from_wire(item) for item in body.get("records", [])]
