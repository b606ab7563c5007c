"""The instrumentation bus: typed probe points, zero overhead when off.

The bus carries the facts a run's trace does not hold: faults, crashes,
retransmissions, timer firings, link-state changes, shedding and
backpressure, and the one lifecycle fact a trace cannot show (a send
the protocol inhibited).  A message's four events themselves live in
the host's :class:`~repro.simulation.trace.Trace`, which metrics, spans,
the watchdog and the flight recorder read directly.

:class:`~repro.simulation.host.ProtocolHost`, the fault layer and the
:class:`~repro.net.host.NetHost` runtime accept an optional bus and
emit :class:`ProbeEvent` records at the probe points below.  With no
bus attached (the default) a site performs a single ``is None`` check;
with a bus attached, a site first looks its probe up in
:attr:`Bus.observed`, so a probe nobody subscribes to costs one set
lookup and :meth:`Bus.emit` is never called for it (sites that emit
rarely may consult the coarser :attr:`Bus.active` flag instead).
Subscribers only
*observe* -- they cannot reschedule events or consume randomness -- so
attaching a bus never perturbs the deterministic schedule.

:data:`PROBES` is exactly what some component subscribes to (the WAL
sink, :class:`~repro.obs.metrics.MetricsRecorder`,
:class:`~repro.obs.watchdog.Watchdog` and the flight recorder's context
stream); a new probe point lands with its first subscriber.  The names and payload fields are a stable,
documented contract:

====================  =======================================================
probe                 payload fields
====================  =======================================================
``host.inhibit``      ``message_id``, ``process``
``fault.drop``        ``src``, ``dst``, ``kind``, ``message_id``, ``reason``
``fault.dup``         ``src``, ``dst``, ``kind``, ``message_id``
``fault.partition``   ``src``, ``dst``, ``kind``, ``message_id``
``fault.spike``       ``src``, ``dst``, ``kind``, ``message_id``,
                      ``extra_delay``
``crash``             ``process``
``restart``           ``process``
``retx.send``         ``process``, ``message_id``, ``receiver``, ``kind``
``retx.ack``          ``process``, ``peer``, ``cumulative``
``retx.dup``          ``process``, ``message_id``, ``sender``
``timer.fire``        ``process``
``link.up``           ``process``, ``peer``, ``previous``
``link.suspect``      ``process``, ``peer``, ``previous``
``link.down``         ``process``, ``peer``, ``previous``
``link.redial``       ``process``, ``peer``, ``attempts``
``link.giveup``       ``process``, ``peer``, ``attempts``
``net.shed``          ``dst``, ``kind``, ``queued`` (or ``flushed`` on
                      restore)
``net.backpressure``  ``process``, ``state``, ``pending``
====================  =======================================================

``host.inhibit`` is emitted when a protocol returns from ``on_invoke``
without releasing the message.

The ``fault.*``/``crash``/``restart`` probes come from the fault
injection layer (:mod:`repro.faults`): ``fault.drop`` carries a
``reason`` of ``"random"``, ``"scripted"`` or ``"crash"``
(``fault.partition`` is its own probe), ``fault.spike`` reports the
extra latency added.  The ``retx.*`` probes come from the ARQ sublayer
(:mod:`repro.protocols.reliable`): ``retx.send`` per retransmitted
packet, ``retx.ack`` per acknowledgment processed, ``retx.dup`` per
duplicate arrival suppressed by receive-side dedup.

``timer.fire`` is emitted by the host each time a protocol timer's
action actually runs (armed timers that die in a crash never fire); the
WAL (:mod:`repro.wal`) mirrors it so a recorded run carries its timer
history alongside the fault and retransmission streams.

The ``link.*`` / ``net.shed`` / ``net.backpressure`` probes come from
the cluster resilience layer (:mod:`repro.net.resilience` plus the
:class:`~repro.net.host.NetHost` runtime): ``link.up`` /
``link.suspect`` / ``link.down`` mark each failure-detector state
transition for one peer link (``previous`` is the state it left),
``link.redial`` a successful supervised reconnect after ``attempts``
tries, ``link.giveup`` an abandoned one, ``net.shed`` a frame shed
from (or flushed out of) a down-link queue, and ``net.backpressure`` a
high/low watermark crossing of the host's local pending work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Mapping

#: The stable probe-point names (see the module docstring for payloads).
PROBES = frozenset(
    {
        "host.inhibit",
        "fault.drop",
        "fault.dup",
        "fault.partition",
        "fault.spike",
        "crash",
        "restart",
        "retx.send",
        "retx.ack",
        "retx.dup",
        "timer.fire",
        "link.up",
        "link.suspect",
        "link.down",
        "link.redial",
        "link.giveup",
        "net.shed",
        "net.backpressure",
    }
)


@dataclass(frozen=True)
class ProbeEvent:
    """One emitted probe: its point, virtual time, and payload fields."""

    probe: str
    time: float
    data: Mapping[str, Any] = field(default_factory=dict)

    def field_value(self, name: str, default: Any = None) -> Any:
        """A payload field by name (``default`` when absent)."""
        return self.data.get(name, default)


Handler = Callable[[ProbeEvent], None]


class Bus:
    """Dispatches probe events to subscribers; inert while none exist.

    :attr:`observed` is the set of probe names somebody listens to, so a
    call site guards each emission with
    ``if bus is not None and "timer.fire" in bus.observed:`` -- a probe
    nobody subscribes to costs one set lookup: no clock read, no payload
    built, no :meth:`emit` call.
    """

    def __init__(self) -> None:
        self._handlers: Dict[str, List[Handler]] = {}
        #: The probe names with a subscriber.
        self.observed: FrozenSet[str] = frozenset()
        #: ``True`` iff at least one subscriber is attached.
        self.active = False

    def _refresh(self) -> None:
        self.observed = frozenset(
            probe for probe, handlers in self._handlers.items() if handlers
        )
        self.active = bool(self.observed)

    def subscribe(self, probe: str, handler: Handler) -> Callable[[], None]:
        """Attach ``handler`` to one probe point; returns an unsubscriber."""
        if probe not in PROBES:
            raise ValueError(
                "unknown probe %r; expected one of %s" % (probe, sorted(PROBES))
            )
        self._handlers.setdefault(probe, []).append(handler)
        self._refresh()

        def unsubscribe() -> None:
            handlers = self._handlers.get(probe, [])
            if handler in handlers:
                handlers.remove(handler)
            self._refresh()

        return unsubscribe

    def emit(self, probe: str, time: float, **data: Any) -> None:
        """Deliver a probe event to its subscribers (a no-op for a name
        nobody observes, known or not)."""
        if probe not in self.observed:
            return
        event = ProbeEvent(probe=probe, time=time, data=data)
        for handler in list(self._handlers[probe]):
            handler(event)
