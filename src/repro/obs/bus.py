"""The instrumentation bus: typed probe points, zero overhead when off.

Every instrumented component (:class:`~repro.simulation.sim.Simulator`,
:class:`~repro.simulation.network.Network`,
:class:`~repro.simulation.host.ProtocolHost`, the verification harness)
accepts an optional bus and emits :class:`ProbeEvent` records at the probe
points below.  With no bus attached (the default) the instrumented code
performs a single ``is None`` check per probe site; with a bus attached
but no subscribers, :meth:`Bus.emit` is never even called because call
sites also consult the :attr:`Bus.active` flag.  Subscribers only
*observe* -- they cannot reschedule events or consume randomness -- so
attaching a bus never perturbs the deterministic schedule.

Probe points (a stable, documented contract -- tools may rely on these
names and their payload fields):

===============  ============================================================
probe            payload fields
===============  ============================================================
``sim.step``     ``sequence``, ``pending``
``net.send``     ``src``, ``dst``, ``message_id``, ``tag``, ``delay``,
                 ``arrival``
``net.control``  ``src``, ``dst``, ``payload``, ``delay``, ``arrival``
``host.invoke``  ``message_id``, ``process``, ``receiver``
``host.inhibit`` ``message_id``, ``process``
``host.release`` ``message_id``, ``process``, ``receiver``, ``tag_bytes``
``host.receive`` ``message_id``, ``process``, ``sender``, ``sent`` (the
                 send's time, when the receiver's trace holds the send)
``host.deliver`` ``message_id``, ``process``, ``sender``, ``delayed``
``verify.check`` ``spec``, ``protocol``, ``workload``, ``safe``, ``live``,
                 ``violations``
``verify.step``  ``event``, ``sequence``, ``messages``
``verify.match`` ``event``, ``predicate``, ``assignment``
``mc.schedule``  ``index``, ``depth``, ``outcome``
``mc.prune``     ``reason``, ``depth``
``mc.violation`` ``predicate``, ``assignment``, ``depth``
``fault.drop``   ``src``, ``dst``, ``kind``, ``message_id``, ``reason``
``fault.dup``    ``src``, ``dst``, ``kind``, ``message_id``
``fault.partition`` ``src``, ``dst``, ``kind``, ``message_id``
``fault.spike``  ``src``, ``dst``, ``kind``, ``message_id``, ``extra_delay``
``crash``        ``process``
``restart``      ``process``
``retx.send``    ``process``, ``message_id``, ``receiver``, ``kind``
``retx.ack``     ``process``, ``peer``, ``cumulative``
``retx.dup``     ``process``, ``message_id``, ``sender``
``retx.resume``  ``peer``, ``unacked``
``timer.fire``   ``process``
``link.up``      ``process``, ``peer``, ``previous``
``link.suspect`` ``process``, ``peer``, ``previous``
``link.down``    ``process``, ``peer``, ``previous``
``link.redial``  ``process``, ``peer``, ``attempts``
``link.giveup``  ``process``, ``peer``, ``attempts``
``net.shed``     ``dst``, ``kind``, ``queued`` (or ``flushed`` on restore)
``net.backpressure`` ``process``, ``state``, ``pending``
===============  ============================================================

The ``mc.*`` probes are emitted by the model checker's explorer
(:mod:`repro.mc.explorer`): one ``mc.schedule`` per explored maximal
schedule (``outcome`` is ``"complete"``, ``"violation"`` or
``"truncated"``), one ``mc.prune`` per skipped subtree (``reason`` is
``"sleep"`` or ``"state"``), one ``mc.violation`` per counterexample.

The ``verify.step``/``verify.match`` probes are emitted by the
incremental verification engine
(:class:`repro.verification.engine.SpecMonitor`): one ``verify.step``
per user event the monitor checks (``sequence`` is the trace record's
sequence number, ``messages`` the registered-message count at that
point), one ``verify.match`` when an event completes a forbidden
instance.

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
tries, ``link.giveup`` an abandoned one, ``retx.resume`` the ARQ
sublayer retransmitting its unacked window on a restored link,
``net.shed`` a frame shed from (or flushed out of) a down-link queue,
and ``net.backpressure`` a high/low watermark crossing of the host's
local pending work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping

#: The stable probe-point names (see the module docstring for payloads).
PROBES = frozenset(
    {
        "sim.step",
        "net.send",
        "net.control",
        "host.invoke",
        "host.inhibit",
        "host.release",
        "host.receive",
        "host.deliver",
        "verify.check",
        "verify.step",
        "verify.match",
        "mc.schedule",
        "mc.prune",
        "mc.violation",
        "fault.drop",
        "fault.dup",
        "fault.partition",
        "fault.spike",
        "crash",
        "restart",
        "retx.send",
        "retx.ack",
        "retx.dup",
        "retx.resume",
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

    Call sites are expected to guard emissions with
    ``if bus is not None and bus.active:`` so that the disabled and the
    attached-but-unobserved configurations cost one or two attribute
    loads per probe site -- nothing is allocated and no handler list is
    consulted.
    """

    def __init__(self) -> None:
        self._handlers: Dict[str, List[Handler]] = {}
        self._wildcard: List[Handler] = []
        #: ``True`` iff at least one subscriber is attached (kept as a plain
        #: attribute so hot paths can read it without a method call).
        self.active = False

    def _refresh_active(self) -> None:
        self.active = bool(self._wildcard) or any(self._handlers.values())

    def subscribe(self, probe: str, handler: Handler) -> Callable[[], None]:
        """Attach ``handler`` to one probe point; returns an unsubscriber."""
        if probe not in PROBES:
            raise ValueError(
                "unknown probe %r; expected one of %s" % (probe, sorted(PROBES))
            )
        self._handlers.setdefault(probe, []).append(handler)
        self.active = True

        def unsubscribe() -> None:
            handlers = self._handlers.get(probe, [])
            if handler in handlers:
                handlers.remove(handler)
            self._refresh_active()

        return unsubscribe

    def subscribe_all(self, handler: Handler) -> Callable[[], None]:
        """Attach ``handler`` to every probe point; returns an unsubscriber."""
        self._wildcard.append(handler)
        self.active = True

        def unsubscribe() -> None:
            if handler in self._wildcard:
                self._wildcard.remove(handler)
            self._refresh_active()

        return unsubscribe

    def emit(self, probe: str, time: float, **data: Any) -> None:
        """Deliver a probe event to its subscribers (no-op when inactive)."""
        if not self.active:
            return
        handlers = self._handlers.get(probe)
        if not handlers and not self._wildcard:
            return
        if probe not in PROBES:
            raise ValueError(
                "unknown probe %r; expected one of %s" % (probe, sorted(PROBES))
            )
        event = ProbeEvent(probe=probe, time=time, data=data)
        if handlers:
            for handler in list(handlers):
                handler(event)
        for handler in list(self._wildcard):
            handler(event)


class ProbeLog:
    """A subscriber that records every probe event, in emission order."""

    def __init__(self, bus: Bus):
        self._events: List[ProbeEvent] = []
        self._unsubscribe = bus.subscribe_all(self._events.append)

    def events(self) -> List[ProbeEvent]:
        """All recorded events, oldest first."""
        return list(self._events)

    def events_for(self, probe: str) -> List[ProbeEvent]:
        """The recorded events of one probe point."""
        return [event for event in self._events if event.probe == probe]

    def close(self) -> None:
        """Stop recording (detach from the bus)."""
        self._unsubscribe()

    def __len__(self) -> int:
        return len(self._events)
