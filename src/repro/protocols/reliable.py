"""The ARQ sublayer: reliable FIFO channels over a faulty network.

Every protocol in the catalogue assumes the paper's channel model --
no loss, no duplication.  :class:`ReliableProtocol` restores that
assumption *underneath* any existing protocol without modifying it:
each outgoing packet (user data or the inner protocol's control
messages, in one unified per-destination sequence space) carries a
sequence number, receivers acknowledge cumulatively and reassemble in
order, senders retransmit on a timer with exponential backoff and
jitter.  Stacking ``Reliable(FIFOProtocol)`` over a lossy transport
must satisfy the same :class:`~repro.verification.spec.Specification`
checks as ``FIFOProtocol`` over a reliable one.

Wire format (all tuples, sized by
:func:`~repro.simulation.trace.estimate_size`):

``("rdata", seq, inner_tag)``
    tag of a released user message -- segment ``seq`` to that receiver;
``("rctl", seq, payload)``
    control packet tunnelling the inner protocol's ``payload`` as
    segment ``seq``;
``("rack", n)``
    cumulative acknowledgment: every segment below ``n`` arrived.
    Acks are unsequenced and never retransmitted (they are refreshed
    by duplicates instead).  An arrival only records that its source
    is *owed* one; the ack goes out when the host ends the batch
    (:meth:`ReliableProtocol.on_batch_end`) and carries the frontier
    as it stands then, so segments that arrived together share one.

Crash-restart: sequence numbers, unacked segments, and reassembly
buffers are durable (a restart rebuilds them by replaying the WAL);
timers, their backoff state and the owed-ack set are volatile and
rebuilt by
:meth:`ReliableProtocol.on_restart`, which also retransmits everything
still unacked (an owed ack lost in a crash is a lost ack: the sender's
retransmission is re-acked as a duplicate).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.events import Message
from repro.protocols.base import Protocol
from repro.simulation.host import HostContext

#: An outgoing segment awaiting acknowledgment.
#: ``("data", message, inner_tag)`` or ``("ctl", payload)``.
Segment = Tuple[Any, ...]


class _InnerContext:
    """The context handed to the wrapped protocol: releases and control
    sends are intercepted and sequenced; everything else passes through."""

    def __init__(self, outer: "ReliableProtocol", ctx: HostContext):
        self._outer = outer
        self._ctx = ctx

    @property
    def process_id(self) -> int:
        return self._ctx.process_id

    @property
    def n_processes(self) -> int:
        return self._ctx.n_processes

    @property
    def now(self) -> float:
        return self._ctx.now

    def release(self, message: Message, tag: Any = None) -> None:
        self._outer._send_data(self._ctx, message, tag)

    def deliver(self, message: Message) -> None:
        self._ctx.deliver(message)

    def send_control(self, dst: int, payload: Any) -> None:
        self._outer._send_ctl(self._ctx, dst, payload)

    def schedule(self, delay: float, action) -> None:
        self._ctx.schedule(delay, action)

    def emit(self, probe: str, **data: Any) -> None:
        self._ctx.emit(probe, **data)


class ReliableProtocol(Protocol):
    """Wraps an inner protocol with sequencing, acks, and retransmission.

    ``rto`` is the initial retransmission timeout; each timer expiry
    without cumulative-ack progress multiplies it by ``backoff`` (capped
    at ``max_rto``) and applies ±``jitter`` relative noise.  After
    ``max_retries`` consecutive expiries without progress the sender
    gives up on that peer (the watchdog then reports the stuck
    messages).  The model checker uses a small ``max_retries`` to keep
    the transition tree finite.
    """

    protocol_class = "general"
    accepts_duplicates = True
    # Sound because the receive side dedups by sequence number: in a
    # loss-free execution a retransmission is a byte-identical copy that
    # the peer absorbs without the inner protocol ever observing it, so
    # firing the timer cannot change the user-visible run.
    timers_pure_recovery = True

    def __init__(
        self,
        inner: Protocol,
        rto: float = 30.0,
        backoff: float = 2.0,
        max_rto: float = 240.0,
        jitter: float = 0.1,
        max_retries: int = 30,
        retransmit_window: Optional[int] = None,
        send_window: Optional[int] = None,
    ):
        if rto <= 0:
            raise ValueError("rto must be positive")
        if backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if max_rto < rto:
            raise ValueError("max_rto must be >= rto")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if retransmit_window is not None and retransmit_window < 1:
            raise ValueError("retransmit_window must be >= 1 (or None for all)")
        if send_window is not None and send_window < 1:
            raise ValueError("send_window must be >= 1 (or None for unlimited)")
        self.inner = inner
        self.name = "reliable-" + inner.name
        self.rto = rto
        self.backoff = backoff
        self.max_rto = max_rto
        self.jitter = jitter
        self.max_retries = max_retries
        # How many of the lowest unacked segments one expiry retransmits
        # (``None``: the whole window).  Cumulative-ack progress resets
        # the retry counter, so even a window of 1 recovers any number of
        # losses, one timeout apiece -- the model checker uses that to
        # keep its transition tree small.
        self.retransmit_window = retransmit_window
        # Maximum unacked segments in flight per destination (``None``:
        # unlimited).  Excess segments queue here and go out as acks make
        # room.  Deferring a release is exactly the inhibition this
        # protocol family is built on -- to the receiver it is
        # indistinguishable from network latency, so the inner protocol's
        # tags stay correct.  ``send_window=1`` is stop-and-wait, the
        # configuration the model checker explores.
        self.send_window = send_window
        self._queued: Dict[int, list] = {}  # dst -> [segment, ...] awaiting room
        # Durable (rebuilt by WAL redo after a crash):
        self._next_seq: Dict[int, int] = {}  # dst -> next segment seq
        self._unacked: Dict[int, Dict[int, Segment]] = {}  # dst -> seq -> segment
        self._expected: Dict[int, int] = {}  # src -> next in-order seq
        self._buffer: Dict[int, Dict[int, Segment]] = {}  # src -> seq -> segment
        # Volatile (lost at a crash, rebuilt by on_restart):
        self._timer_armed: Dict[int, bool] = {}
        self._arm_frontier: Dict[int, int] = {}  # dst -> min unacked at arm
        self._rto_cur: Dict[int, float] = {}
        self._retries: Dict[int, int] = {}
        self._rng = random.Random(0)
        self._ack_owed: Set[int] = set()  # sources to ack at the batch end

    # -- lifecycle ----------------------------------------------------------

    def on_start(self, ctx: HostContext) -> None:
        self._rng = random.Random(0xA9C1 ^ ctx.process_id)
        self.inner.on_start(_InnerContext(self, ctx))

    def on_restart(self, ctx: HostContext) -> None:
        """Rebuild volatile state and push recovery: the crash destroyed
        the timers, so everything unacked is retransmitted immediately."""
        self._timer_armed = {}
        self._arm_frontier = {}
        self._rto_cur = {}
        self._retries = {}
        self._rng = random.Random(0xA9C1 ^ ctx.process_id)
        self._ack_owed = set()
        self.inner.on_restart(_InnerContext(self, ctx))
        for dst in sorted(self._unacked):
            if self._unacked[dst]:
                self._retransmit_all(ctx, dst)
                self._arm(ctx, dst)

    def on_link_restored(self, ctx: HostContext, dst: int) -> None:
        """The channel to ``dst`` healed (reconnect supervisor callback).

        Everything still unacked there is retransmitted immediately, and
        the per-peer give-up state resets: ``max_retries`` expiries
        without progress meant "the peer is unreachable", which the
        reconnect just disproved.  The receive side needs no repair --
        sequence-number dedup absorbs whatever overlap the flush and the
        retransmission produce.
        """
        self._retries[dst] = 0
        self._rto_cur[dst] = self.rto
        if self._unacked.get(dst):
            self._retransmit_all(ctx, dst)
            self._arm(ctx, dst)

    # -- user-facing hooks --------------------------------------------------

    def on_invoke(self, ctx: HostContext, message: Message) -> None:
        self.inner.on_invoke(_InnerContext(self, ctx), message)

    def on_user_message(self, ctx: HostContext, message: Message, tag: Any) -> None:
        kind, seq, inner_tag = tag
        if kind != "rdata":
            raise ValueError("unexpected reliable data tag %r" % (tag,))
        self._segment_arrived(
            ctx, message.sender, seq, ("data", message, inner_tag)
        )

    def on_duplicate(self, ctx: HostContext, message: Message, tag: Any) -> None:
        """A repeat copy of a data segment: refresh the cumulative ack so
        the sender stops retransmitting; never re-delivered.

        The refresh only matters when the copy is already covered by the
        cumulative ack (the sender retransmitted because the ack was
        lost); a repeat of a still-buffered gap segment would re-ack the
        same value, so it is suppressed.
        """
        _, seq, _ = tag
        if seq < self._expected.get(message.sender, 0):
            self._ack_owed.add(message.sender)

    def on_control(self, ctx: HostContext, src: int, payload: Any) -> None:
        kind = payload[0]
        if kind == "rack":
            self._ack_arrived(ctx, src, payload[1])
        elif kind == "rctl":
            self._segment_arrived(ctx, src, payload[1], ("ctl", payload[2]))
        else:
            raise ValueError("unexpected reliable control payload %r" % (payload,))

    def on_batch_end(self, ctx: HostContext) -> None:
        """Pay the acks this batch ran up: one ``rack`` per owed source,
        carrying the cumulative frontier as it stands now."""
        self.inner.on_batch_end(_InnerContext(self, ctx))
        owed = self._ack_owed
        if owed:
            for src in sorted(owed):
                ctx.send_control(src, ("rack", self._expected.get(src, 0)))
            owed.clear()

    def blocking_reason(self, message_id: str) -> Optional[str]:
        """ARQ-level holds first (reassembly gaps, unacked sends), then
        whatever the inner protocol says."""
        for src, buffered in self._buffer.items():
            for seq, segment in buffered.items():
                if segment[0] == "data" and segment[1].id == message_id:
                    return (
                        "ARQ reassembly holding seq %d from P%d, waiting for seq %d"
                        % (seq, src, self._expected.get(src, 0))
                    )
        for dst, queued in self._queued.items():
            for position, segment in enumerate(queued):
                if segment[0] == "data" and segment[1].id == message_id:
                    return (
                        "ARQ send window to P%d full, queued at position %d"
                        % (dst, position)
                    )
        for dst, unacked in self._unacked.items():
            for seq, segment in unacked.items():
                if segment[0] == "data" and segment[1].id == message_id:
                    retries = self._retries.get(dst, 0)
                    if retries >= self.max_retries and not self._timer_armed.get(
                        dst
                    ):
                        return (
                            "gave up retransmitting seq %d to P%d after %d retries"
                            % (seq, dst, self.max_retries)
                        )
                    return "awaiting ack of seq %d from P%d (retries: %d)" % (
                        seq,
                        dst,
                        retries,
                    )
        return self.inner.blocking_reason(message_id)

    # -- sender side ---------------------------------------------------------

    def _next(self, dst: int) -> int:
        seq = self._next_seq.get(dst, 0)
        self._next_seq[dst] = seq + 1
        return seq

    def _window_full(self, dst: int) -> bool:
        return (
            self.send_window is not None
            and len(self._unacked.get(dst, {})) >= self.send_window
        )

    def _send_data(self, ctx: HostContext, message: Message, inner_tag: Any) -> None:
        if self._window_full(message.receiver):
            self._queued.setdefault(message.receiver, []).append(
                ("data", message, inner_tag)
            )
            return
        self._transmit_segment(ctx, message.receiver, ("data", message, inner_tag))

    def _send_ctl(self, ctx: HostContext, dst: int, payload: Any) -> None:
        if self._window_full(dst):
            self._queued.setdefault(dst, []).append(("ctl", payload))
            return
        self._transmit_segment(ctx, dst, ("ctl", payload))

    def _transmit_segment(self, ctx: HostContext, dst: int, segment: Segment) -> None:
        seq = self._next(dst)
        self._unacked.setdefault(dst, {})[seq] = segment
        if segment[0] == "data":
            _, message, inner_tag = segment
            ctx.release(message, tag=("rdata", seq, inner_tag))
        else:
            ctx.send_control(dst, ("rctl", seq, segment[1]))
        self._arm(ctx, dst)

    def _drain_queue(self, ctx: HostContext, dst: int) -> None:
        queued = self._queued.get(dst)
        while queued and not self._window_full(dst):
            self._transmit_segment(ctx, dst, queued.pop(0))

    def _retransmit_all(self, ctx: HostContext, dst: int) -> None:
        window = sorted(self._unacked.get(dst, {}))
        if self.retransmit_window is not None:
            window = window[: self.retransmit_window]
        for seq in window:
            segment = self._unacked[dst][seq]
            if segment[0] == "data":
                _, message, inner_tag = segment
                ctx.retransmit(message, tag=("rdata", seq, inner_tag))
            else:
                ctx.retransmit_control(dst, ("rctl", seq, segment[1]))

    def _arm(self, ctx: HostContext, dst: int) -> None:
        if self._timer_armed.get(dst) or not self._unacked.get(dst):
            return
        if self._retries.get(dst, 0) >= self.max_retries:
            return  # the next expiry would only give up: don't arm it
        self._timer_armed[dst] = True
        self._arm_frontier[dst] = min(self._unacked[dst])
        rto = self._rto_cur.get(dst, self.rto)
        delay = rto * (1.0 + self.jitter * (2.0 * self._rng.random() - 1.0))
        ctx.schedule(delay, lambda: self._on_timer(ctx, dst))

    def _on_timer(self, ctx: HostContext, dst: int) -> None:
        self._timer_armed[dst] = False
        if not self._unacked.get(dst):
            return  # everything acked in the meantime
        if min(self._unacked[dst]) != self._arm_frontier.get(dst):
            # Acks advanced the frontier while this timer ran: the peer is
            # responsive, so restart the clock for the newer segments
            # instead of retransmitting them prematurely.
            self._arm(ctx, dst)
            return
        self._retries[dst] = self._retries.get(dst, 0) + 1
        self._retransmit_all(ctx, dst)
        self._rto_cur[dst] = min(
            self._rto_cur.get(dst, self.rto) * self.backoff, self.max_rto
        )
        self._arm(ctx, dst)  # no-op once the retry cap is reached

    def _ack_arrived(self, ctx: HostContext, src: int, cumulative: int) -> None:
        unacked = self._unacked.get(src, {})
        acked = [seq for seq in unacked if seq < cumulative]
        for seq in acked:
            del unacked[seq]
        ctx.emit("retx.ack", peer=src, cumulative=cumulative)
        if acked:
            # Progress: backoff and the give-up counter start over.
            self._retries[src] = 0
            self._rto_cur[src] = self.rto
            self._drain_queue(ctx, src)
        if self._unacked.get(src):
            self._arm(ctx, src)

    # -- receiver side --------------------------------------------------------

    def _segment_arrived(
        self, ctx: HostContext, src: int, seq: int, segment: Segment
    ) -> None:
        entry_expected = self._expected.get(src, 0)
        expected = entry_expected
        buffered = self._buffer.setdefault(src, {})
        if seq >= expected and seq not in buffered:
            buffered[seq] = segment
            while expected in buffered:
                ready = buffered.pop(expected)
                expected += 1
                self._expected[src] = expected
                ictx = _InnerContext(self, ctx)
                if ready[0] == "data":
                    self.inner.on_user_message(ictx, ready[1], ready[2])
                else:
                    self.inner.on_control(ictx, src, ready[1])
            self._expected[src] = expected
        # Ack when the cumulative frontier moved, or when a stale segment
        # signals the sender lost an earlier ack.  A gap arrival would
        # re-ack an unchanged value, so it stays quiet (the sender's
        # timer retransmits the whole unacked window anyway).
        if expected > entry_expected or seq < entry_expected:
            self._ack_owed.add(src)


def make_reliable(
    inner_factory: Callable[[int, int], Protocol], **arq_params: Any
) -> Callable[[int, int], Protocol]:
    """Wrap a protocol factory so every instance runs over the ARQ
    sublayer; keyword arguments parameterise :class:`ReliableProtocol`."""

    def factory(process_id: int, n_processes: int) -> Protocol:
        return ReliableProtocol(inner_factory(process_id, n_processes), **arq_params)

    return factory
