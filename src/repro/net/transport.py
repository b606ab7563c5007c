"""Real-time scheduling and socket transmission for the net runtime.

Two adapters let the *simulation* stack run over real hardware without
modification:

:class:`WallClock`
    duck-types :class:`~repro.simulation.sim.Simulator` for the two
    members the hosts and transports consume (``now`` and
    ``schedule``), mapping virtual time units onto wall-clock seconds
    via ``time_scale`` and timers onto ``loop.call_later``.

:class:`AsyncTransport`
    implements the :class:`~repro.simulation.network.Transport`
    abstraction by writing wire frames to per-destination TCP
    connections.  Because it is a plain ``Transport``, the fault layer's
    :class:`~repro.faults.transport.FaultyTransport` stacks on top of it
    unchanged -- drop/dup/spike/partition plans then emulate a WAN on
    real sockets.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Callable, Deque, Dict, Iterable, Optional, Set, Tuple

from repro.net import codec
from repro.simulation.network import Network, Packet, Transport

#: Default real seconds per virtual time unit.  The catalogue's timer
#: constants (e.g. the ARQ sublayer's 30-unit RTO) were tuned for the
#: simulator's latency scale; 0.01 maps that RTO to 300ms of wall time.
DEFAULT_TIME_SCALE = 0.01


class WallClock:
    """A :class:`~repro.simulation.sim.Simulator` face over real time.

    ``now`` reports *virtual* units (elapsed wall seconds divided by
    ``time_scale``) so protocol timer arithmetic keeps its simulated
    magnitudes; ``schedule`` arms a real ``loop.call_later`` timer.
    Outstanding timers are tracked so shutdown can cancel them --
    :meth:`cancel_all` is the real-time analogue of a simulator simply
    dropping its event queue.
    """

    def __init__(self, time_scale: float = DEFAULT_TIME_SCALE) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be positive, got %r" % time_scale)
        self.time_scale = time_scale
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._t0 = 0.0
        #: Wall time of :meth:`start` -- converts virtual stamps (e.g. a
        #: watchdog's ``since``) back to wall clock for cross-host views.
        self.started_wall = 0.0
        self._handles: Set[asyncio.TimerHandle] = set()
        self._closed = False

    def start(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        """Bind to the running loop and zero the virtual clock."""
        self._loop = loop or asyncio.get_running_loop()
        self._t0 = self._loop.time()
        self.started_wall = time.time()
        self._closed = False

    @property
    def now(self) -> float:
        """Virtual time units elapsed since :meth:`start`."""
        if self._loop is None:
            return 0.0
        return (self._loop.time() - self._t0) / self.time_scale

    def wall_at(self, virtual: float) -> float:
        """The wall time corresponding to virtual time ``virtual``."""
        return self.started_wall + virtual * self.time_scale

    @property
    def pending_timers(self) -> int:
        """Armed, not-yet-fired timers (cancellation test hook)."""
        return len(self._handles)

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action`` after ``delay`` *virtual* units of real time."""
        if delay < 0:
            raise ValueError("cannot schedule into the past (delay=%r)" % delay)
        if self._loop is None:
            raise RuntimeError("WallClock.schedule before start()")
        if self._closed:
            return  # shutting down: new timers are dropped, not armed
        handle_box = []

        def fire() -> None:
            self._handles.discard(handle_box[0])
            action()

        handle = self._loop.call_later(delay * self.time_scale, fire)
        handle_box.append(handle)
        self._handles.add(handle)

    def cancel_all(self) -> int:
        """Cancel every outstanding timer; returns how many were armed."""
        cancelled = len(self._handles)
        for handle in self._handles:
            handle.cancel()
        self._handles.clear()
        self._closed = True
        return cancelled


class AsyncTransport(Transport):
    """Socket-backed :class:`~repro.simulation.network.Transport`.

    Outbound packets become :data:`~repro.net.codec.USER` /
    :data:`~repro.net.codec.CONTROL` frames on the per-destination
    stream; a packet for the local process short-circuits through
    ``loop.call_soon`` (no self-connection), preserving the simulator's
    guarantee that an arrival never runs re-entrantly inside the send
    that caused it.

    ``_stamp`` (assigned by the host) supplies the ``(sent, invoked)``
    wall timestamps embedded in user frames; the host keeps them keyed
    by message id so a retransmission carries its *original* release
    time and latency accounting at the receiver stays honest.

    Frames for a live link wait in a per-peer outbox, and each write
    takes a peer's whole outbox in order.  When it is written depends on
    what queued it:

    - a *reply* -- a frame queued while a peer read dispatches (between
      :meth:`hold_replies` and :meth:`send_replies`: a GRANT for a REQ,
      the USER a GRANT releases, a DONE for a delivery) -- leaves at the
      end of the read that made it, so a hop costs one loop iteration;
    - everything else (invokes, timers, batch-end acks) goes in one write
      per peer per loop tick, from a :meth:`flush_outboxes` scheduled
      with ``call_soon`` by the first frame of the tick.

    A packet for a destination whose link is down is not discarded: it
    goes into a bounded per-peer queue (``queue_limit`` frames) that
    :meth:`flush` writes out when the reconnect supervisor restores the
    link.  Past the limit the *oldest USER frame* is shed first --
    control frames (acks, protocol coordination) are what lets the
    cluster recover, so they survive preferentially.  Sheds are counted
    and emitted as ``net.shed`` probes.
    """

    def __init__(self, process_id: int, queue_limit: int = 2048) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.process_id = process_id
        self._stamp: Optional[Callable[[Packet], "tuple[float, float]"]] = None
        self._writers: Dict[int, asyncio.WriteTransport] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.frames_sent = 0
        self.bytes_sent = 0
        #: Frame writes coalesce: frames for a live link are buffered in
        #: a per-peer outbox and written as *one* ``transport.write`` per
        #: peer (see the class docstring for when).  All kinds go
        #: through the outbox, so per-connection FIFO order is exactly
        #: preserved; only the syscall count changes.  Requires a bound
        #: loop -- before :meth:`bind_loop` frames write through.
        self._outbox: Dict[int, list] = {}
        self._flush_scheduled = False
        #: Peers a running read's dispatch queued frames for; ``None``
        #: outside a read.
        self._replies: Optional[Set[int]] = None
        self.flushes = 0
        #: Packets for peers with no (or a closed) connection -- counted,
        #: not raised: during shutdown in-flight traffic may race closes.
        #: Since the resilience layer these packets are also *queued* for
        #: the reconnect flush, so unroutable != lost.
        self.unroutable = 0
        self.queue_limit = queue_limit
        #: dst -> queued (kind, frame bytes) awaiting a link.
        self._pending: Dict[int, Deque[Tuple[int, bytes]]] = {}
        self.user_shed = 0
        self.control_shed = 0
        self.queued_flushed = 0

    def bind_loop(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop

    def connect(self, dst: int, writer: asyncio.WriteTransport) -> None:
        """Register the outbound stream's transport for destination ``dst``."""
        self._writers[dst] = writer

    def disconnect(self, dst: int) -> None:
        self._writers.pop(dst, None)

    @property
    def pending_frames(self) -> int:
        """Total frames queued across all down links."""
        return sum(len(queue) for queue in self._pending.values())

    def flush(self, dst: int) -> int:
        """Write every frame queued for ``dst`` to its restored link.

        Control frames go first: a flushed ack unblocks the peer's
        retransmit timers before the user data lands.  Returns how many
        frames were written; a still-down link flushes nothing.
        """
        queue = self._pending.get(dst)
        writer = self._writers.get(dst)
        if not queue or writer is None or writer.is_closing():
            return 0
        ordered = [item for item in queue if item[0] != codec.USER]
        ordered += [item for item in queue if item[0] == codec.USER]
        queue.clear()
        for _, data in ordered:
            writer.write(data)
            self.frames_sent += 1
            self.bytes_sent += len(data)
        self.queued_flushed += len(ordered)
        return len(ordered)

    def _enqueue(self, network: Network, dst: int, kind: int, data: bytes) -> None:
        queue = self._pending.setdefault(dst, deque())
        queue.append((kind, data))
        if len(queue) <= self.queue_limit:
            return
        for index, (queued_kind, _) in enumerate(queue):
            if queued_kind == codec.USER:
                del queue[index]
                self.user_shed += 1
                shed = "user"
                break
        else:
            queue.popleft()
            self.control_shed += 1
            shed = "control"
        bus = getattr(network, "bus", None)
        sim = getattr(network, "sim", None)
        if bus is not None and bus.active:
            bus.emit(
                "net.shed",
                sim.now if sim is not None else 0.0,
                dst=dst,
                kind=shed,
                queued=len(queue),
            )

    def link_up(self, dst: int) -> bool:
        """Whether an open outbound stream to ``dst`` exists right now
        (a restarted peer's old stream counts as down once it closes)."""
        writer = self._writers.get(dst)
        return writer is not None and not writer.is_closing()

    @property
    def connected(self) -> Set[int]:
        return set(self._writers)

    # -- Transport -----------------------------------------------------------

    def transmit(self, network: Network, packet: Packet) -> None:
        """Frame the packet and write it to the destination's stream."""
        if packet.dst == self.process_id:
            # Local loopback: dispatch on the next loop tick.
            if self._loop is None:
                raise RuntimeError("AsyncTransport used before bind_loop()")
            handler = network.handler_for(packet.dst)
            self._loop.call_soon(handler, packet)
            return
        kind, head, sections = self._frame_for(packet)
        data = codec.encode_frame(kind, head, sections)
        writer = self._writers.get(packet.dst)
        if writer is None or writer.is_closing():
            self.unroutable += 1
            self._enqueue(network, packet.dst, kind, data)
            return
        if self._loop is not None:
            self._outbox.setdefault(packet.dst, []).append((kind, data, network))
            self.frames_sent += 1
            self.bytes_sent += len(data)
            if self._replies is not None:
                self._replies.add(packet.dst)
            elif not self._flush_scheduled:
                self._flush_scheduled = True
                self._loop.call_soon(self.flush_outboxes)
            return
        writer.write(data)
        self.frames_sent += 1
        self.bytes_sent += len(data)

    def hold_replies(self) -> None:
        """A peer read starts dispatching: what it queues is a reply."""
        self._replies = set()

    def send_replies(self) -> None:
        """The read that :meth:`hold_replies` opened ends: write the
        whole outbox of each peer it queued a frame for."""
        replies, self._replies = self._replies, None
        if replies:
            self.flush_outboxes(replies)

    def flush_outboxes(self, dsts: Optional[Iterable[int]] = None) -> None:
        """Write the coalesced outbox of each peer in ``dsts`` (default:
        every peer, the tick's scheduled flush), one write per peer.

        A link that went down *within* the tick demotes its buffered
        frames to the reconnect queue frame-by-frame, so the resilience
        layer's kind-aware shedding still applies.
        """
        if dsts is None:
            self._flush_scheduled = False
            if not self._outbox:
                return
            outbox, self._outbox = self._outbox, {}
        else:
            queued = self._outbox
            outbox = {dst: queued.pop(dst) for dst in dsts}
        for dst, items in outbox.items():
            writer = self._writers.get(dst)
            if writer is None or writer.is_closing():
                for kind, data, network in items:
                    self.unroutable += 1
                    self.frames_sent -= 1
                    self.bytes_sent -= len(data)
                    self._enqueue(network, dst, kind, data)
                continue
            writer.write(b"".join(data for _, data, _ in items))
            self.flushes += 1

    # -- framing -------------------------------------------------------------

    def _frame_for(self, packet: Packet) -> "tuple[int, dict, tuple]":
        """``(kind, head, sections)`` for :func:`codec.encode_frame`: the
        codec spells the message and the tag or payload into sections."""
        sent, invoked = (
            self._stamp(packet) if self._stamp is not None else (time.time(),) * 2
        )
        if packet.is_user:
            message = packet.message
            assert message is not None
            head = {"src": packet.src, "dst": packet.dst, "sent": sent, "invoked": invoked}
            return codec.USER, head, (message, packet.tag)
        head = {"src": packet.src, "dst": packet.dst, "sent": sent}
        return codec.CONTROL, head, (None, packet.payload)


def packet_from_frame(frame: "codec.Frame") -> Packet:
    """Rebuild a :class:`~repro.simulation.network.Packet` from a frame.

    The packet keeps the text its tag or payload arrived as
    (``wire_text``), for the receiver's log."""
    body = frame.body
    try:
        if frame.kind == codec.USER:
            return Packet(
                src=body["src"],
                dst=body["dst"],
                kind="user",
                message=codec.message_from_wire(body),
                tag=codec.decode_value(body.get("tag")),
                send_time=body.get("sent", 0.0),
                wire_text=frame.value_text,
            )
        if frame.kind == codec.CONTROL:
            return Packet(
                src=body["src"],
                dst=body["dst"],
                kind="control",
                payload=codec.decode_value(body.get("payload")),
                send_time=body.get("sent", 0.0),
                wire_text=frame.value_text,
            )
    except KeyError as exc:
        raise codec.MalformedFrame(
            "%s frame missing field %s" % (frame.kind_name, exc)
        ) from exc
    raise codec.MalformedFrame(
        "frame kind %s does not describe a packet" % frame.kind_name
    )
