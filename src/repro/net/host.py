"""One protocol host on a real TCP endpoint.

:class:`NetHost` is the process-level runtime: it owns an asyncio
server, dials its peers (the rendezvous handshake), and runs one
**unmodified** :class:`~repro.protocols.base.Protocol` instance behind
the same :class:`~repro.simulation.host.ProtocolHost` event preconditions
the simulator enforces.  The only substitutions are at the edges:

- the simulator is a :class:`~repro.net.transport.WallClock` (timers via
  ``loop.call_later``),
- the transport is an :class:`~repro.net.transport.AsyncTransport`
  (frames on sockets), optionally under a
  :class:`~repro.faults.transport.FaultyTransport` for WAN emulation,
- delivery latency is measured from wall timestamps carried in the
  frames rather than from the (remote) send record.

Everything above those edges -- protocols, tags, the trace contract,
probe points -- is byte-for-byte the simulation stack.

Every stream is a :class:`~repro.net.codec.FrameLink`.  An accepted
peer's reads are dispatched in the callback that read them, and the
replies it queues leave before it returns, so a hop costs one loop
iteration; a dialed peer link brings back only HEARTBEAT echoes, and
its end hands the peer to the re-dial supervisor.

An ``observer`` stream carries the trace alone: the history in RECORDS
chunks, READY, then each new record through the tap.  Probes stay in
the host; their counts reach clients as its METRICS.
"""

from __future__ import annotations

import asyncio
import functools
import math
import random
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.events import Message
from repro.net import codec
from repro.net.endpoint import Endpoint
from repro.net.resilience import LINK_DOWN, LinkMonitor, ResilienceConfig
from repro.net.transport import (
    DEFAULT_TIME_SCALE,
    AsyncTransport,
    WallClock,
    packet_from_frame,
)
from repro.obs.bus import Bus
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRecorder
from repro.obs.openmetrics import render_openmetrics
from repro.obs.watchdog import Watchdog
from repro.simulation.host import ProtocolHost
from repro.simulation.network import Network, Packet
from repro.simulation.trace import (
    INVOKED,
    RECEIVED,
    SENT,
    SimulationStats,
    Trace,
    TraceRecord,
)
from repro.wal import records as wal_records

#: Seconds the rendezvous gets: each peer dial, and :meth:`NetHost.ready`.
DIAL_TIMEOUT = 20.0

#: Virtual units a batch of peer arrivals stays open after the read
#: that opened it: the ARQ's owed acks wait that long for a segment
#: going the other way to carry them (TCP's delayed ACK).  1/60 of the
#: ARQ's 30-unit RTO, so a delayed ack never races a retransmission;
#: in virtual units so it scales with ``time_scale`` as the RTO does
#: (5 ms at the default 0.01).
ACK_DELAY = 0.5

#: Most record bytes one RECORDS frame holds (less its version and kind).
_CHUNK_BYTES = codec.MAX_FRAME_BYTES - 2


def record_frames(tapped: Iterable[Tuple[TraceRecord, Message]]) -> Iterator[bytes]:
    """Trace records as the WAL's ``EVENT`` records, in RECORDS frames.

    A chunk is to the observer stream what a segment is to the log: a
    message's body rides its first mention in it, so each chunk resolves
    by itself (a record that would overflow one is rebuilt for the next)."""
    frame, spell = wal_records.frame_text, wal_records.event_text
    data, seen = bytearray(), set()
    for record, message in tapped:
        encoded = frame(wal_records.EVENT, spell(record, message, seen))
        if data and len(data) + len(encoded) > _CHUNK_BYTES:
            yield codec.encode_frame(codec.RECORDS, data)
            data, seen = bytearray(), set()
            encoded = frame(wal_records.EVENT, spell(record, message, seen))
        data += encoded
    if data:
        yield codec.encode_frame(codec.RECORDS, data)


class NetProtocolHost(ProtocolHost):
    """A :class:`ProtocolHost` whose latency accounting is wall-clock.

    The receiver never holds the sender's trace, so a delivery cannot
    look up the send/invoke records; instead the wall timestamps carried
    in the user frame (stashed by :meth:`NetHost._dispatch_packet`) feed
    the stats registry's :attr:`delivery_latency` and :attr:`e2e_latency`
    histograms.  Latencies are therefore **real seconds**, not virtual
    units.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: message id -> wall time of the original release / user invoke,
        #: populated from inbound frames at receive time.
        self.sent_wall: Dict[str, float] = {}
        self.invoked_wall: Dict[str, float] = {}
        #: The first record stamped by this incarnation's wall clock (set
        #: when it starts): those before it, which WAL recovery replayed,
        #: are in the dead incarnation's clock.
        self.live_from: float = float("inf")

    def _wall(self, record: Optional[TraceRecord], default: float) -> float:
        """The wall time of one of this host's own records, ``default``
        for a missing, a replayed or another process's one."""
        if record is None or record.process != self.process_id:
            return default
        if record.sequence < self.live_from:
            return default
        return self.sim.wall_at(record.time)

    def stamp(self, packet: Packet) -> "tuple[float, float]":
        """(sent, invoked) wall times for an outbound packet's frame: its
        send and invoke records', so a retransmission reuses them."""
        now = time.time()
        if packet.is_user and packet.message is not None:
            row = self.trace.row(packet.message.id)
            sent = self._wall(row[SENT], now)
            return sent, self._wall(row[INVOKED], sent)
        return now, now

    def _account_latency(self, message: Message) -> None:
        now = time.time()
        sent = self.sent_wall.pop(message.id, None)
        invoked = self.invoked_wall.pop(message.id, None)
        if sent is None:
            # Self-addressed messages loop back without a frame; their
            # stamps are the local records'.
            row = self.trace.row(message.id)
            sent = self._wall(row[SENT], now)
            invoked = self._wall(row[INVOKED], sent)
        self.delivery_latency.observe(now - sent)
        self.e2e_latency.observe(now - (sent if invoked is None else invoked))

    @property
    def pending_local(self) -> int:
        """Messages this process still owes work on: invoked-but-unsent
        plus received-but-undelivered (the graceful-drain condition)."""
        return self._unsent + self._buffered


class NetHost(Endpoint):
    """Serve one catalogue protocol instance over TCP.

    An :class:`~repro.net.endpoint.Endpoint` (handshake, load clients,
    teardown and ``serve_forever`` live there) that also accepts ``peer``
    and ``observer`` streams and dials its own peers.  Lifecycle:
    :meth:`start` (listen + dial + handshake) -> ``await`` :meth:`ready`
    -> traffic (local :meth:`invoke` calls or INVOKE_BATCH rows from a
    load generator) -> :meth:`shutdown` (drain, cancel timers, close).
    """

    def __init__(
        self,
        protocol_factory: Callable[[int, int], object],
        process_id: int,
        ports: List[int],
        *,
        host: str = "127.0.0.1",
        run_id: str = "default",
        faults: Optional[Any] = None,
        time_scale: float = DEFAULT_TIME_SCALE,
        observability: bool = True,
        wal_dir: Optional[str] = None,
        wal_meta: Optional[Dict[str, Any]] = None,
        wal_sync_every: int = 64,
        resilience: Optional[ResilienceConfig] = None,
        listen_port: Optional[int] = None,
        incarnation: Optional[int] = None,
    ) -> None:
        n_processes = len(ports)
        if not 0 <= process_id < n_processes:
            raise ValueError(
                "process_id %d out of range for %d ports" % (process_id, n_processes)
            )
        #: The server binds ``listen_port``: normally this host's own
        #: ports[] entry; a fault proxy deployment overrides it so the
        #: proxy owns the public port and forwards here (see
        #: :mod:`repro.faults.proxy`).
        super().__init__(
            host,
            listen_port if listen_port is not None else ports[process_id],
            run_id,
            {"process": process_id, "processes": n_processes},
        )
        self._roles["peer"] = (self._serve_peer, self._end_peer)
        self._roles["observer"] = (self._serve_observer, self._end_observer)
        self._requests[codec.INVOKE_BATCH] = self._handle_invoke
        self.process_id = process_id
        self.n_processes = n_processes
        self.ports = list(ports)
        self.time_scale = time_scale
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self.bus = Bus()
        self.clock = WallClock(time_scale=time_scale)
        self.transport = AsyncTransport(
            process_id, queue_limit=self.resilience.queue_limit
        )
        outbound: Any = self.transport
        if faults is not None:
            from repro.faults import FaultyTransport

            outbound = FaultyTransport(faults, self.transport)
        self.outbound = outbound
        self.network = Network(
            self.clock,  # type: ignore[arg-type]  # WallClock duck-types Simulator
            n_processes,
            bus=self.bus,
            transport=outbound,
        )
        self.trace = Trace(n_processes)
        self.stats = SimulationStats()
        self.host = NetProtocolHost(
            self.clock,  # type: ignore[arg-type]
            self.network,
            self.trace,
            self.stats,
            process_id,
            protocol_factory(process_id, n_processes),
            bus=self.bus,
        )
        self.transport._stamp = self.host.stamp
        #: The in-host observability plane (all opt-out via
        #: ``observability=False`` for overhead measurements): a flight
        #: recorder whose dump is the tail of the host's trace merged
        #: with the fault/recovery probes it tapes, a metrics recorder
        #: adding the fault, link and backpressure metrics to the stats
        #: registry the METRICS frame exposes, and the liveness watchdog
        #: whose diagnoses of the host's trace ride the STATS reply.
        self.flight: Optional[FlightRecorder] = None
        self.metrics: Optional[MetricsRecorder] = None
        self.watchdog: Optional[Watchdog] = None
        if observability:
            self.metrics = MetricsRecorder(self.bus, self.stats.registry)
            self.watchdog = Watchdog(self.bus)
        #: Observer links past their history replay: what the tap feeds.
        self._observers: Set[codec.FrameLink] = set()
        self._tapped: List[Tuple[TraceRecord, Message]] = []
        self._inbound_peers: Set[int] = set()
        #: Whether the trace tap feeding observers is attached.
        self._tapping = False
        #: Durable replay log (repro.wal).  Recovery runs *before* the
        #: sink attaches, so replayed inputs are not logged twice.
        self.wal: Optional[Any] = None
        self.recovery: Optional[Any] = None
        self.crashed = False
        #: Whether this host rebuilt state from an existing WAL.
        self.recovered = False
        self._redialing: Set[int] = set()
        #: Session resumption state: this host's incarnation number (in
        #: every HELLO it sends) and the highest incarnation seen per
        #: peer -- a HELLO from a lower one is a stale duplicate and is
        #: rejected without disturbing the live link.
        self.incarnation = incarnation if incarnation is not None else 0
        self._peer_incarnations: Dict[int, int] = {}
        #: Failure detection (phi-accrual over HEARTBEAT echoes on the
        #: dialed peer links) and reconnect supervision state.
        self.monitor: LinkMonitor = self.resilience.monitor()
        self.heartbeats_sent = 0
        self.redials = 0
        self._redial_rng = random.Random(0x52D1 ^ process_id)
        #: Leading re-dial delay per peer: a link that flaps immediately
        #: after a "successful" reconnect (e.g. a proxy accepting and
        #: then dropping us) escalates this instead of spinning.
        self._redial_delay: Dict[int, float] = {}
        self._link_up_at: Dict[int, float] = {}
        #: Backpressure: latched congestion state + transition counter.
        self._congested = False
        self.backpressure_transitions = 0
        #: Whether peer arrivals are in a batch that has not ended yet.
        self._batch_open = False
        if wal_dir is not None:
            self._init_wal(wal_dir, wal_meta, wal_sync_every)
        if observability:
            # Built after recovery: a replayed record's time is in the
            # dead incarnation's clock, so the window starts where
            # recovery ended.
            self.flight = FlightRecorder(process_id, trace=self.trace, clock=self.clock)
            self.flight.attach(self.bus)

    # -- durability (repro.wal) ------------------------------------------------

    def _init_wal(
        self,
        wal_dir: str,
        wal_meta: Optional[Dict[str, Any]],
        wal_sync_every: int,
    ) -> None:
        """Recover from this process's segment directory, then log into it.

        Existing records mean a previous incarnation crashed here: its
        INPUT stream replays through the live host (outbound and timers
        suppressed) so the protocol's durable state -- ARQ sequence
        numbers, reassembly buffers, tags, delivered sets -- comes back
        before any peer connects.  ``on_restart`` then runs at the
        rendezvous point (:meth:`_check_ready`) to re-arm recovery.
        """
        import os

        from repro.wal import WalSink, read_log, replay_into_host

        directory = os.path.join(wal_dir, "p%d" % self.process_id)
        existing = read_log(directory)
        if existing.records:
            self.recovery = replay_into_host(
                self.host, existing.records, process_id=self.process_id
            )
            self.recovered = True
            for error in self.recovery.errors:
                self.errors.append("wal recovery: %s" % error)
            # Session resumption: each incarnation stamps its META
            # records, so the successor outranks every HELLO the dead
            # incarnation may still have in flight.
            for record in existing.records:
                if record.kind == wal_records.META:
                    prior = record.body.get("incarnation")
                    if prior is not None:
                        self.incarnation = max(
                            self.incarnation, int(prior) + 1
                        )
        meta = {
            "run": self.run_id,
            "process": self.process_id,
            "processes": self.n_processes,
            "incarnation": self.incarnation,
        }
        if wal_meta:
            meta.update(wal_meta)
        sink = WalSink(
            directory,
            meta=meta,
            sync_every=wal_sync_every,
            clock=lambda: self.clock.now,
        )
        sink.attach_trace(self.trace)
        sink.attach_host(self.host)
        sink.attach_bus(self.bus)
        self.wal = sink

    async def crash(self) -> None:
        """Die abruptly: no drain, no graceful close, no final fsync.

        Volatile state is gone exactly as a SIGKILL would lose it; the
        WAL keeps every record already appended (the writer is
        unbuffered, so only a power failure could tear the tail).  A new
        :class:`NetHost` pointed at the same ``wal_dir`` recovers.
        """
        if self._stopping:
            return
        self.crashed = True
        await self._teardown()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Listen, dial every peer, and complete the rendezvous."""
        loop = asyncio.get_running_loop()
        self.clock.start(loop)
        self.host.live_from = self.trace.record_count
        self.transport.bind_loop(loop)
        await super().start()
        self._spawn(self._dial_peers())
        self._spawn(self._resilience_loop())
        if self.n_processes == 1:
            self._check_ready()

    async def ready(self) -> None:
        """Wait until every peer link (both directions) is up."""
        await asyncio.wait_for(self._ready.wait(), DIAL_TIMEOUT)

    def invoke(self, message: Message) -> None:
        """Application entry: the user requests a send at this process."""
        if self.draining:
            raise RuntimeError(
                "host %d is draining; no further invokes" % self.process_id
            )
        self.host.invoke(message)
        # Rising edge checked inline (the periodic loop would lag a
        # burst); the falling edge is the resilience loop's job.
        if (
            not self._congested
            and self.local_pending() > self.resilience.high_watermark
        ):
            self._set_congested(True, self.local_pending())

    def local_pending(self) -> int:
        """Local drain condition (see :attr:`NetProtocolHost.pending_local`)."""
        return self.host.pending_local

    def _close(self) -> None:
        self._flush_tap()
        for recorder in (self.flight, self.metrics, self.watchdog):
            if recorder is not None:
                recorder.close()
        if self.wal is not None:
            self.wal.close()

    async def _teardown(self) -> None:
        """What :meth:`crash` and :meth:`shutdown` share: stop the timers
        and the dialed links too (peers then see EOF in both directions,
        exactly as they would if the process had gone)."""
        self.clock.cancel_all()
        await super()._teardown()
        for writer in list(self.transport._writers.values()):
            writer.close()  # the dialed links' ends see _stopping: no re-dial

    # -- rendezvous ----------------------------------------------------------

    async def _dial_peers(self) -> None:
        try:
            await asyncio.gather(
                *(
                    self._dial(dst)
                    for dst in range(self.n_processes)
                    if dst != self.process_id
                )
            )
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            self.errors.append("rendezvous failed: %s" % exc)
            self._done.set()
            return
        self._check_ready()

    async def _dial(self, dst: int) -> None:
        deadline = time.monotonic() + DIAL_TIMEOUT
        while True:
            try:
                await self._dial_once(dst)
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                await asyncio.sleep(0.05)

    async def _dial_once(self, dst: int, confirm: bool = False) -> None:
        """One connect + HELLO attempt; registers the link on success.

        With ``confirm`` (a re-dial), the link counts only once the
        peer echoes a HEARTBEAT sent after the HELLO: a connect that a
        blackholing middlebox accepts is not a restored link, and the
        frames queued for it must keep queueing.  No echo within the
        silence that reads a fresh link as down is a failed attempt.
        """
        loop = asyncio.get_running_loop()
        #: Whether the first frame back is a HEARTBEAT (False: the link ended).
        echoed = loop.create_future()

        def first_frame(link: codec.FrameLink, frames: List[codec.Frame]) -> None:
            if frames and not echoed.done():
                echoed.set_result(frames[0].kind == codec.HEARTBEAT)

        def ended(link: codec.FrameLink, exc: Optional[BaseException]) -> None:
            if not echoed.done():
                echoed.set_result(False)

        _, link = await loop.create_connection(
            lambda: codec.FrameLink(first_frame, ended),
            self.bind_host,
            self.ports[dst],
        )
        hello = {
            "process": self.process_id,
            "role": "peer",
            "run": self.run_id,
            "incarnation": self.incarnation,
        }
        try:
            link.write(codec.encode_frame(codec.HELLO, hello))
            if confirm:
                beat = {"process": self.process_id, "n": 0}
                link.write(codec.encode_frame(codec.HEARTBEAT, beat))
            await link.drain()
            if confirm:
                config = self.resilience
                try:
                    ok = await asyncio.wait_for(
                        echoed,
                        config.down_phi * math.log(10.0) * config.heartbeat_interval,
                    )
                except asyncio.TimeoutError:
                    ok = False
                if not ok or self.crashed:
                    raise ConnectionError("peer %d did not echo a heartbeat" % dst)
            if link.closed:
                raise ConnectionError("peer %d closed the link" % dst)
        except BaseException:
            # A failed attempt (reset, cancel, no echo) leaves no socket.
            link.close()
            raise
        # From here on the link carries the peer's heartbeat echoes, and
        # its end hands the peer to the reconnect supervisor.
        link.on_frames = functools.partial(self._on_echoes, dst)
        link.on_end = functools.partial(self._on_dialed_end, dst)
        self.transport.connect(dst, link.transport)
        self._link_up_at[dst] = time.monotonic()
        self.monitor.watch(dst, time.monotonic())

    async def _redial(self, dst: int) -> None:
        """Supervised reconnection: retry with exponential backoff and
        jitter until the link is back or the give-up deadline passes.

        Replaces the original one-shot re-dial.  The first attempt fires
        immediately (a restarted peer's listener is usually already
        back); each refused or unanswered attempt backs off (the link
        counts only once the peer echoes, so a connect a blackholing
        proxy accepts is a failed attempt).  A link that flaps right
        after "succeeding" (a fault proxy accepting, then severing)
        escalates a leading delay across supervisor runs so the loop
        converges to the backoff cadence instead of spinning.
        """
        policy = self.resilience.reconnect
        attempts = 0
        try:
            leading = self._redial_delay.get(dst, 0.0)
            if leading:
                await asyncio.sleep(leading)
            for delay in policy.delays(self._redial_rng):
                if self.crashed or self._done.is_set():
                    return
                if delay:
                    await asyncio.sleep(delay)
                    if self.crashed or self._done.is_set():
                        return
                if self.transport.link_up(dst):
                    return  # restored concurrently (peer dial-back path)
                attempts += 1
                try:
                    await self._dial_once(dst, confirm=True)
                except OSError:
                    continue
                self._on_link_restored(dst, attempts)
                return
            self.errors.append(
                "gave up re-dialing peer %d after %.1fs (%d attempts)"
                % (dst, policy.deadline, attempts)
            )
            self._emit_link_probe("link.giveup", dst, attempts=attempts)
        except asyncio.CancelledError:
            pass
        finally:
            self._redialing.discard(dst)

    def _on_link_restored(self, dst: int, attempts: int) -> None:
        """The supervised re-dial succeeded: resume the session."""
        self.redials += 1
        self._emit_link_probe("link.redial", dst, attempts=attempts)
        self._emit_link_probe("link.up", dst, previous="down")
        flushed = self.transport.flush(dst)
        if self._ready.is_set():
            try:
                self.host.protocol.on_link_restored(self.host.ctx, dst)
            except Exception as exc:  # noqa: BLE001 - protocol bug, not fatal
                self.errors.append(
                    "link-restored hook for peer %d: %s" % (dst, exc)
                )
        if flushed:
            self._emit_link_probe("net.shed", dst, flushed=flushed)
        # A link lost *during* rendezvous (a slow-starting peer behind a
        # proxy: the dial "succeeds" against the proxy, then dies with an
        # EOF when the upstream refuses) comes back through this path, so
        # readiness must be re-evaluated here or the host waits forever.
        self._check_ready()

    def _supervise_redial(self, dst: int) -> None:
        """Start a reconnect supervisor for ``dst`` unless one is
        already running (or the host is going away).

        Runs during the initial rendezvous too: once ``_dial`` has
        registered the link its retry loop is done, so a pre-ready EOF
        (the peer's listener came up after its fault proxy) has no other
        recovery path.
        """
        if self.crashed or self._done.is_set():
            return
        if dst in self._redialing:
            return
        self._redialing.add(dst)
        self._spawn(self._redial(dst))

    def _emit_link_probe(self, probe: str, peer: int, **data: Any) -> None:
        if self.bus.active:
            self.bus.emit(
                probe, self.clock.now, process=self.process_id, peer=peer, **data
            )

    def _on_echoes(
        self, dst: int, link: codec.FrameLink, frames: List[codec.Frame]
    ) -> None:
        for frame in frames:
            if frame.kind == codec.HEARTBEAT:
                self.monitor.observe(dst, time.monotonic())
            # Anything else host-ward on a dialed link is ignored.

    def _on_dialed_end(
        self, dst: int, link: codec.FrameLink, exc: Optional[BaseException]
    ) -> None:
        """EOF (or a torn stream): the peer's incarnation -- or just the
        link -- is gone.  Tear it down so ``link_up`` reports it, then
        hand the destination to the reconnect supervisor."""
        if self._stopping:
            return
        if self.transport._writers.get(dst) is link.transport:
            self.transport.disconnect(dst)
        transition = self.monitor.mark_down(dst)
        if transition is not None:
            self._emit_link_probe("link.down", dst, previous=transition[0])
        up_for = time.monotonic() - self._link_up_at.get(dst, 0.0)
        if up_for < 1.0:
            # Immediate flap: escalate the next supervisor's lead-in.
            current = self._redial_delay.get(dst, 0.0)
            self._redial_delay[dst] = min(
                max(current * 2.0, self.resilience.reconnect.base),
                self.resilience.reconnect.cap,
            )
        else:
            self._redial_delay[dst] = 0.0
        self._supervise_redial(dst)

    # -- failure detection / degradation ---------------------------------------

    async def _resilience_loop(self) -> None:
        """Heartbeat the dialed links, reclassify them, and check the
        backpressure falling edge -- every ``heartbeat_interval``."""
        interval = self.resilience.heartbeat_interval
        beat = 0
        try:
            while not self._done.is_set():
                await asyncio.sleep(interval)
                if self._done.is_set():
                    return
                # A draining host keeps heartbeating: settling pending
                # obligations needs live, monitored links.
                beat += 1
                self._send_heartbeats(beat)
                self._evaluate_links()
                self._check_backpressure()
        except asyncio.CancelledError:
            return

    def _send_heartbeats(self, beat: int) -> None:
        for dst in range(self.n_processes):
            if dst == self.process_id or not self.transport.link_up(dst):
                continue
            writer = self.transport._writers[dst]
            writer.write(
                codec.encode_frame(
                    codec.HEARTBEAT,
                    {"process": self.process_id, "n": beat},
                )
            )
            self.heartbeats_sent += 1

    def _evaluate_links(self) -> None:
        for peer, old, new in self.monitor.evaluate(time.monotonic()):
            self._emit_link_probe("link." + new, peer, previous=old)
            if new == LINK_DOWN:
                # The socket may still look open (a blackholed link
                # produces no EOF): force the teardown so the reconnect
                # supervisor takes over.
                writer = self.transport._writers.get(peer)
                self.transport.disconnect(peer)
                if writer is not None and not writer.is_closing():
                    writer.close()
                self._supervise_redial(peer)

    def _check_backpressure(self) -> None:
        pending = self.local_pending()
        if not self._congested and pending > self.resilience.high_watermark:
            self._set_congested(True, pending)
        elif self._congested and pending < self.resilience.low_watermark:
            self._set_congested(False, pending)

    def _set_congested(self, congested: bool, pending: int) -> None:
        self._congested = congested
        self.backpressure_transitions += 1
        state = "high" if congested else "low"
        if self.bus.active:
            self.bus.emit(
                "net.backpressure",
                self.clock.now,
                process=self.process_id,
                state=state,
                pending=pending,
            )
        frame = codec.encode_frame(
            codec.BACKPRESSURE,
            {"process": self.process_id, "state": state, "pending": pending},
        )
        for link, role in self._links.items():
            if role == "load":
                link.write(frame)

    def _check_ready(self) -> None:
        peers = self.n_processes - 1
        if (
            len(self._inbound_peers) >= peers
            and len(self.transport.connected) >= peers
            and not self._ready.is_set()
        ):
            self._ready.set()
            if self.recovered:
                # The protocol already re-lived its history during WAL
                # replay (on_start included); what it needs now is the
                # restart hook -- the ARQ sublayer retransmits everything
                # unacked, as a simulated restart does.
                if self.bus.active:
                    self.bus.emit("restart", self.clock.now, process=self.process_id)
                self.host.protocol.on_restart(self.host.ctx)
            else:
                self.host.start()  # the protocol's on_start, exactly once

    # -- inbound connections ---------------------------------------------------

    def _serve_peer(self, link: codec.FrameLink, hello: Dict[str, Any]) -> None:
        peer = int(hello.get("process", -1))
        incarnation = int(hello.get("incarnation", 0))
        known = self._peer_incarnations.get(peer)
        if known is not None and incarnation < known:
            # A stale duplicate HELLO -- a frame the peer's *dead*
            # incarnation had in flight, or a delayed proxy replay.
            # Rejecting it must not disturb the live link.
            self.errors.append(
                "rejected stale HELLO from peer %d "
                "(incarnation %d < %d)" % (peer, incarnation, known)
            )
            link.close()
            return
        self._peer_incarnations[peer] = incarnation
        self._inbound_peers.add(peer)
        if (
            self._ready.is_set()
            and 0 <= peer < self.n_processes
            and peer != self.process_id
            and not self.transport.link_up(peer)
            and peer not in self._redialing
        ):
            # A crashed peer came back and dialed us; our outbound
            # stream died with its old incarnation, so dial back.
            self._redialing.add(peer)
            self._spawn(self._redial(peer))
        self._check_ready()
        link.on_frames = self._on_peer_frames

    def _end_peer(self, link: codec.FrameLink, exc: Optional[BaseException]) -> None:
        if exc is not None and not self._stopping:
            self.errors.append("peer stream: %s" % exc)

    def _on_peer_frames(self, link: codec.FrameLink, frames: List[codec.Frame]) -> None:
        """Dispatch the frames one peer read completed.

        A batch is every frame read, from any peer, within ACK_DELAY of
        the read that opened it: what the protocol sends meanwhile (a
        reply, a new invoke's segment) carries the acks it owes, and the
        batch end pays the rest.  What the dispatch sends is a reply,
        written when the read ends."""
        if frames:
            transport = self.transport
            transport.hold_replies()
            try:
                for frame in frames:
                    self._on_peer_frame(frame, link)
            finally:
                transport.send_replies()
        if not self._batch_open:
            self._batch_open = True
            self.clock.schedule(ACK_DELAY, self._end_batch)

    def _end_batch(self) -> None:
        self._batch_open = False
        try:
            self.host.end_batch()
        except Exception as exc:  # noqa: BLE001 - as in _dispatch_packet
            self.errors.append("dispatch: %s" % exc)

    def _on_peer_frame(self, frame: "codec.Frame", link: codec.FrameLink) -> None:
        if frame.kind in (codec.USER, codec.CONTROL):
            self._dispatch_packet(packet_from_frame(frame), frame.body.get("invoked"))
        elif frame.kind == codec.HEARTBEAT and not frame.body.get("echo"):
            # Echo back on the same socket: the dialer's watcher
            # feeds its failure detector from these.
            body = dict(frame.body)
            body["echo"] = True
            link.write(codec.encode_frame(codec.HEARTBEAT, body))
        # Anything else on a peer link is ignored (forward compat).

    def _dispatch_packet(
        self, packet: Packet, invoked: Optional[float] = None
    ) -> None:
        message = packet.message
        if (
            packet.is_user
            and message is not None
            and self.trace.row(message.id)[RECEIVED] is None
        ):
            # The sender's release and invoke wall times, from the first
            # copy's frame (delivery pops them).
            self.host.sent_wall.setdefault(message.id, packet.send_time)
            if invoked is not None:
                self.host.invoked_wall.setdefault(message.id, invoked)
        try:
            self.host._handle_packet(packet)  # _end_batch ends the batch
        except Exception as exc:  # ProtocolError and protocol bugs
            self.errors.append("dispatch: %s" % exc)

    # -- observers -------------------------------------------------------------

    def _serve_observer(self, link: codec.FrameLink, hello: Dict[str, Any]) -> None:
        link.on_frames = lambda link, frames: None  # observers only listen
        self._spawn(self._open_observer(link))

    async def _open_observer(self, link: codec.FrameLink) -> None:
        await self._ready.wait()
        if link.closed:
            return
        self._attach_observer(link)
        link.write(codec.encode_frame(codec.READY, self.ready_body))
        await link.drain()

    def _end_observer(
        self, link: codec.FrameLink, exc: Optional[BaseException]
    ) -> None:
        self._observers.discard(link)

    def _attach_observer(self, link: codec.FrameLink) -> None:
        # What the tap holds is already in the trace the newcomer is sent.
        self._flush_tap()
        trace = self.trace
        history = [(r, trace.message(r.event.message_id)) for r in trace.records()]
        for frame in record_frames(history):
            link.write(frame)
        self._observers.add(link)
        if not self._tapping:
            # Once per host, not once per first observer: the tap outlives
            # an observer that leaves, and the next run's must not add a
            # second one (every event would be framed twice).
            self.trace.attach_tap(self._tap_record)
            self._tapping = True

    def _tap_record(self, record: TraceRecord, message: Message) -> None:
        if not self._tapped:
            # One frame per loop tick, like the transport's outboxes.
            asyncio.get_running_loop().call_soon(self._flush_tap)
        self._tapped.append((record, message))

    def _flush_tap(self) -> None:
        tapped, self._tapped = self._tapped, []
        for frame in record_frames(tapped):
            for link in self._observers:
                link.write(frame)

    # -- load clients ----------------------------------------------------------

    def _handle_invoke(self, frame: "codec.Frame") -> None:
        rows = codec.invoke_rows(frame.body, self.n_processes)
        if self.draining:
            return  # late invokes after DRAIN are dropped by contract
        for message_id, sender, receiver, key, _, color in rows:
            if sender != self.process_id:
                self.errors.append(
                    "invoke for sender %d routed to host %d"
                    % (sender, self.process_id)
                )
                continue
            try:
                self.invoke(
                    Message(message_id, sender, receiver, color, ordering_key=key)
                )
            except Exception as exc:  # noqa: BLE001
                self.errors.append("invoke %s: %s" % (message_id, exc))

    # -- stats -----------------------------------------------------------------

    def stats_body(self) -> Dict[str, Any]:
        """The host's counters and latency histograms as a STATS body."""
        self._flush_tap()  # a run settles on STATS, then asks the observer
        stats = self.stats
        body: Dict[str, Any] = {
            "process": self.process_id,
            "invoked": stats.invocations,
            "user_messages": stats.user_messages,
            "control_messages": stats.control_messages,
            "control_bytes": stats.control_bytes,
            "deliveries": stats.deliveries,
            "delayed_deliveries": stats.delayed_deliveries,
            "retransmissions": stats.retransmissions,
            "duplicate_receives": stats.duplicate_receives,
            "pending": self.local_pending(),
            "unacked": self.host.protocol.unacked(),
            "frames_sent": self.transport.frames_sent,
            "bytes_sent": self.transport.bytes_sent,
            "errors": list(self.errors),
            # Memory-bounded wire histograms (plain JSON, see
            # Histogram.to_wire) -- not the raw sample lists of old.
            "latencies": self.host.delivery_latency.to_wire(),
            "e2e_latencies": self.host.e2e_latency.to_wire(),
            # Resilience layer: link states keyed by peer id (stringified
            # for JSON), reconnect/degradation counters.
            "incarnation": self.incarnation,
            "links": {
                str(peer): state
                for peer, state in self.monitor.states().items()
            },
            "congested": self._congested,
            "redials": self.redials,
            "heartbeats_sent": self.heartbeats_sent,
            "frames_queued": self.transport.pending_frames,
            "frames_shed": self.transport.user_shed + self.transport.control_shed,
        }
        if self.watchdog is not None:
            protocols: List[Optional[object]] = [None] * self.n_processes
            protocols[self.process_id] = self.host.protocol
            # Only locally-diagnosable phases: this host's trace never
            # holds the remote deliver, so every delivered message would
            # read "in-flight" to its sender forever.  Inhibited (invoked
            # but never released here) and buffered (received but never
            # delivered here) are authoritative local knowledge;
            # global in-flight detection is the load generator's quiesce.
            stuck = [
                entry
                for entry in self.watchdog.stuck(self.trace, protocols)
                if entry.phase != "in-flight"
            ]
            body["stuck_total"] = len(stuck)
            body["stuck"] = [
                {
                    "message_id": entry.message_id,
                    "phase": entry.phase,
                    "process": entry.process,
                    "since": entry.since,
                    "since_wall": self.clock.wall_at(entry.since),
                    "reason": entry.reason,
                }
                for entry in stuck[:20]
            ]
        outbound = self.outbound
        if outbound is not self.transport:  # fault layer attached
            body.update(
                packets_dropped=outbound.packets_dropped,
                packets_duplicated=outbound.packets_duplicated,
                partition_drops=outbound.partition_drops,
                spikes=outbound.spikes,
            )
        return body

    def trace_body(self) -> Dict[str, Any]:
        """The flight-recorder dump plus the clock fix a collector needs.

        ``wall``/``virtual`` are sampled at reply build time from the
        clock that stamps every record of the dump; together with the
        request/response times at the collector they bound this host's
        clock offset (see :func:`repro.net.collector.estimate_offset`).
        """
        now = self.clock.now
        return {
            "process": self.process_id,
            "wall": self.clock.wall_at(now),
            "virtual": now,
            "time_scale": self.time_scale,
            "flight": self.flight.to_wire() if self.flight is not None else None,
        }

    def metrics_body(self) -> Dict[str, Any]:
        """OpenMetrics exposition text (plus raw snapshot) for METRICS."""
        registry = self.stats.registry
        return {
            "process": self.process_id,
            "wall": time.time(),
            "text": render_openmetrics(registry, {"process": str(self.process_id)}),
            "snapshot": registry.snapshot(),
        }
