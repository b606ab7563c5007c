"""Per-process protocol hosting.

The host is the boundary the paper draws around inhibitory protocols: the
application *requests* (invoke), the protocol decides when to *release*
(send) and when to *deliver*; arrivals (receive) cannot be refused.  The
host enforces the event preconditions and records everything.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Set, Tuple

from repro.events import Event, Message
from repro.simulation.network import Network, Packet
from repro.simulation.sim import Simulator
from repro.simulation.trace import SimulationStats, Trace, estimate_size

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs depends on us)
    from repro.obs.bus import Bus
    from repro.obs.metrics import Counter


class ProtocolError(RuntimeError):
    """A protocol violated an event precondition (a bug in the protocol)."""


class HostContext:
    """The services a protocol may use, scoped to one process."""

    def __init__(self, host: "ProtocolHost"):
        self._host = host

    @property
    def process_id(self) -> int:
        return self._host.process_id

    @property
    def n_processes(self) -> int:
        return self._host.n_processes

    @property
    def now(self) -> float:
        return self._host.sim.now

    def release(self, message: Message, tag: Any = None) -> None:
        """Execute the send event ``x.s`` (the message enters the network)."""
        self._host.release(message, tag)

    def deliver(self, message: Message) -> None:
        """Execute the delivery event ``x.r``."""
        self._host.deliver(message)

    def send_control(self, dst: int, payload: Any) -> None:
        """Emit a protocol control message (general protocols only)."""
        self._host.send_control(dst, payload)

    def retransmit(self, message: Message, tag: Any = None) -> None:
        """Re-transmit an already-sent user message (no new send event).

        The ARQ sublayer's recovery path: the paper's ``x.s`` happened at
        the original release, so a retransmission is pure network traffic
        -- accounted as such, never re-recorded in the trace.
        """
        self._host.retransmit_user(message, tag)

    def retransmit_control(self, dst: int, payload: Any) -> None:
        """Re-transmit a control message, accounted as retransmission."""
        self._host.retransmit_control(dst, payload)

    def schedule(self, delay: float, action) -> None:
        """Run ``action`` after ``delay`` virtual time units.

        Timers are *volatile*: one scheduled before a crash of this
        process never fires (see :mod:`repro.faults`).
        """
        self._host.schedule_timer(delay, action)

    def emit(self, probe: str, **data: Any) -> None:
        """Emit a protocol-level probe on the host's bus (no-op without
        subscribers); the host adds the virtual time and process id."""
        self._host.emit_probe(probe, **data)


class ProtocolHost:
    """Runs one protocol instance at one process and records its events."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        trace: Trace,
        stats: SimulationStats,
        process_id: int,
        protocol: "Protocol",
        bus: "Optional[Bus]" = None,
    ):
        self.sim = sim
        self.network = network
        self.trace = trace
        self.stats = stats
        self._bus = bus
        self.process_id = process_id
        self.n_processes = network.n_processes
        self.protocol = protocol
        self.ctx = HostContext(self)
        # The host is the one writer of its costs: each metric is fetched
        # from the stats registry once, here.  Control messages and
        # absorbed duplicates are costs many runs never pay, so their
        # counters appear with the first one (see send_control).
        registry = stats.registry
        self._user_count = registry.counter("messages.user", "user messages released")
        self._tag_total = registry.counter("tag.bytes", "total tag bytes piggybacked")
        self._tag_sizes = registry.histogram(
            "tag.bytes.per_message", "tag size distribution"
        )
        self._delivery_count = registry.counter(
            "messages.delivered", "deliveries executed"
        )
        self._delayed_count = registry.counter(
            "messages.delayed", "deliveries after receive time"
        )
        self._retx_count = registry.counter("retx.messages", "retransmissions sent")
        self._dup_count: Optional[Counter] = None
        #: destination -> (channel label, control message and byte counters).
        self._control: Dict[int, Tuple[str, Counter, Counter]] = {}
        #: Latency distributions: virtual time here, wall seconds on a
        #: :class:`~repro.net.host.NetProtocolHost`.
        self.delivery_latency = registry.histogram(
            "latency.delivery", "send -> deliver time"
        )
        self.e2e_latency = registry.histogram(
            "latency.end_to_end", "invoke -> deliver time"
        )
        self._invoked: Set[str] = set()
        self._sent: Set[str] = set()
        self._received: Set[str] = set()
        self._receive_time: Dict[str, float] = {}
        self._delivered: Set[str] = set()
        # Reactive applications (repro.apps) observe deliveries.
        self.delivery_listener: Optional[Any] = None
        # The WAL's redo-log hook (repro.wal.sink.WalSink.attach_host):
        # called with (process_id, "invoke", message) / (process_id,
        # "packet", packet) -- "duplicate" for a user packet whose
        # message was already received -- before the input is processed,
        # so the log holds every input in processing order even when
        # handling raises.
        self.input_listener: Optional[Any] = None
        # Crash state (driven by repro.faults.FaultInjector): while down,
        # the faulty transport blackholes arrivals and timers are inert.
        # The epoch invalidates every timer armed before a crash.
        self.down = False
        self.crash_epoch = 0
        network.attach(process_id, self._on_packet)

    def start(self) -> None:
        """Fire the protocol's ``on_start`` hook."""
        self.protocol.on_start(self.ctx)

    # Application-facing -------------------------------------------------------

    def invoke(self, message: Message) -> None:
        """The user requests a send (event ``x.s*``)."""
        if message.sender != self.process_id:
            raise ProtocolError(
                "message %r invoked at process %d but its sender is %d"
                % (message.id, self.process_id, message.sender)
            )
        if message.id in self._invoked:
            raise ProtocolError("message %r invoked twice" % message.id)
        if self.input_listener is not None:
            self.input_listener(self.process_id, "invoke", message)
        self.trace.register_message(message)
        self._invoked.add(message.id)
        self.trace.record(self.sim.now, self.process_id, Event.invoke(message.id))
        bus = self._bus
        if bus is not None and bus.active:
            bus.emit(
                "host.invoke",
                self.sim.now,
                message_id=message.id,
                process=self.process_id,
                receiver=message.receiver,
            )
        self.protocol.on_invoke(self.ctx, message)
        if message.id not in self._sent and bus is not None and bus.active:
            # The protocol returned without releasing: the send is inhibited.
            bus.emit(
                "host.inhibit",
                self.sim.now,
                message_id=message.id,
                process=self.process_id,
            )

    # Protocol-facing -----------------------------------------------------------

    def release(self, message: Message, tag: Any) -> None:
        """Execute ``x.s``: validate, record, and transmit."""
        if message.id not in self._invoked:
            raise ProtocolError(
                "protocol released %r before it was invoked" % message.id
            )
        if message.id in self._sent:
            raise ProtocolError("message %r released twice" % message.id)
        self._sent.add(message.id)
        self.trace.record(self.sim.now, self.process_id, Event.send(message.id))
        tag_bytes = estimate_size(tag)
        self._user_count.inc()
        self._tag_total.inc(tag_bytes)
        self._tag_sizes.observe(tag_bytes)
        bus = self._bus
        if bus is not None and bus.active:
            bus.emit(
                "host.release",
                self.sim.now,
                message_id=message.id,
                process=self.process_id,
                receiver=message.receiver,
                tag_bytes=tag_bytes,
            )
        self.network.send_user(self.process_id, message.receiver, message, tag)

    def deliver(self, message: Message) -> None:
        """Execute ``x.r``: validate, record, account latency."""
        if message.id not in self._received:
            raise ProtocolError(
                "protocol delivered %r before it was received" % message.id
            )
        if message.id in self._delivered:
            raise ProtocolError("message %r delivered twice" % message.id)
        self._delivered.add(message.id)
        self.trace.record(self.sim.now, self.process_id, Event.deliver(message.id))
        self._delivery_count.inc()
        delayed = self.sim.now > self._receive_time[message.id]
        if delayed:
            self._delayed_count.inc()
        self._account_latency(message)
        bus = self._bus
        if bus is not None and bus.active:
            bus.emit(
                "host.deliver",
                self.sim.now,
                message_id=message.id,
                process=self.process_id,
                sender=message.sender,
                delayed=delayed,
            )
        if self.delivery_listener is not None:
            self.delivery_listener(message)

    def _account_latency(self, message: Message) -> None:
        """Latency of one delivery, in virtual time from the shared trace.

        The one part of :meth:`deliver` a runtime replaces: a TCP
        receiver holds no send record, so
        :class:`~repro.net.host.NetProtocolHost` accounts from the wall
        stamps its frames carry instead.
        """
        now, trace = self.sim.now, self.trace
        self.delivery_latency.observe(now - trace.time_of(Event.send(message.id)))
        self.e2e_latency.observe(now - trace.time_of(Event.invoke(message.id)))

    def send_control(self, dst: int, payload: Any) -> None:
        """Emit a control message and account its cost."""
        channel = self._control.get(dst)
        if channel is None:
            registry = self.stats.registry
            channel = self._control[dst] = (
                "p%d->p%d" % (self.process_id, dst),
                registry.counter("net.control.messages", "control messages sent"),
                registry.counter("net.control.bytes", "control payload bytes"),
            )
        label, messages, size = channel
        messages.inc(label=label)
        size.inc(estimate_size(payload), label=label)
        self.network.send_control(self.process_id, dst, payload)

    def retransmit_user(self, message: Message, tag: Any) -> None:
        """Re-send an already-released user message (ARQ recovery)."""
        if message.id not in self._sent:
            raise ProtocolError(
                "protocol retransmitted %r before it was released" % message.id
            )
        self._retx_count.inc(label="user")
        self.emit_probe(
            "retx.send",
            message_id=message.id,
            receiver=message.receiver,
            kind="user",
        )
        self.network.send_user(self.process_id, message.receiver, message, tag)

    def retransmit_control(self, dst: int, payload: Any) -> None:
        """Re-send a control message, accounted as retransmission too."""
        self._retx_count.inc(label="control")
        self.emit_probe(
            "retx.send", message_id=None, receiver=dst, kind="control"
        )
        self.send_control(dst, payload)

    def schedule_timer(self, delay: float, action) -> None:
        """Schedule a protocol timer with volatile-loss crash semantics:
        the action is dropped if this process crashed after arming it."""
        epoch = self.crash_epoch

        def guarded() -> None:
            if self.down or self.crash_epoch != epoch:
                return  # the timer did not survive the crash
            self.emit_probe("timer.fire")
            action()

        self.sim.schedule(delay, guarded)

    def emit_probe(self, probe: str, **data: Any) -> None:
        """Emit a protocol-level probe with time and process filled in."""
        bus = self._bus
        if bus is not None and bus.active:
            bus.emit(probe, self.sim.now, process=self.process_id, **data)

    # Network-facing --------------------------------------------------------

    def _on_packet(self, packet: Packet) -> None:
        """One arrival on its own: a batch of one."""
        self._handle_packet(packet)
        self.end_batch()

    def end_batch(self) -> None:
        """Tell the protocol that every arrival of this batch has been
        handed over (:meth:`Protocol.on_batch_end`).  A runtime that
        reads several packets at once (:class:`~repro.net.host.NetHost`)
        feeds them through :meth:`_handle_packet` and calls this once."""
        hook = getattr(self.protocol, "on_batch_end", None)
        if hook is not None:
            hook(self.ctx)

    def _handle_packet(self, packet: Packet) -> None:
        message = packet.message
        duplicate = packet.is_user and message.id in self._received
        if self.input_listener is not None:
            self.input_listener(
                self.process_id, "duplicate" if duplicate else "packet", packet
            )
        if packet.is_user:
            if duplicate:
                # A second copy (network duplication or a retransmission
                # racing the original).  The receive event already happened;
                # protocols that deduplicate get the copy via on_duplicate,
                # anything else sees it as the bug it would be.
                if getattr(self.protocol, "accepts_duplicates", False):
                    if self._dup_count is None:
                        self._dup_count = self.stats.registry.counter(
                            "retx.dups", "duplicate arrivals absorbed by dedup"
                        )
                    self._dup_count.inc()
                    self.emit_probe(
                        "retx.dup", message_id=message.id, sender=message.sender
                    )
                    self.protocol.on_duplicate(self.ctx, message, packet.tag)
                    return
                raise ProtocolError("message %r received twice" % message.id)
            self.trace.register_message(message)
            self._received.add(message.id)
            self._receive_time[message.id] = self.sim.now
            self.trace.record(
                self.sim.now, self.process_id, Event.receive(message.id)
            )
            bus = self._bus
            if bus is not None and bus.active:
                # The send's time rides along when this trace holds it: the
                # simulator's shared trace always does, a TCP receiver's
                # only for a message it sent itself.
                send, sent = Event.send(message.id), {}
                if self.trace.has_event(send):
                    sent["sent"] = self.trace.time_of(send)
                bus.emit(
                    "host.receive",
                    self.sim.now,
                    message_id=message.id,
                    process=self.process_id,
                    sender=message.sender,
                    **sent,
                )
            self.protocol.on_user_message(self.ctx, message, packet.tag)
        else:
            self.protocol.on_control(self.ctx, packet.src, packet.payload)
