"""Decentralized logically synchronous ordering by rendezvous with retry.

A Bagrodia-style binary-rendezvous scheme (the paper cites this line of
work for CSP guard implementations [2, 3, 6]):

1. ``REQ``  (control) -- the sender asks its receiver for an audience.
2. ``ACK`` / ``NACK`` (control) -- the receiver answers immediately:
   ``ACK`` iff it is *completely free* (no commitment, no transfer of its
   own anywhere between its ``REQ`` and its ``FIN``); otherwise ``NACK``.
3. payload (user) -- sent on ``ACK``; the receiver, committed since its
   ``ACK``, delivers on arrival and replies ``FIN``.
4. On ``NACK`` the sender backs off for a random (seeded) delay and
   retries; while backing off it is free, so symmetric livelock dissolves.

Why every run is logically synchronous: each process participates in at
most one transfer between that transfer's start and completion, and a
sender stays busy until ``FIN`` -- *after* the remote delivery.  Hence any
user event causally after ``x.s`` (other than ``x``'s own events) occurs
in real time after ``x.r``.  Around a crown
``x1.s ▷ x2.r ∧ ... ∧ xk.s ▷ x1.r`` that gives
``rt(x1.r) < rt(x2.r) < ... < rt(x1.r)`` -- a contradiction, so no crown
exists and the message graph is acyclic.

Cost: three control messages per transfer plus two per refused attempt;
Theorem 1 shows such control traffic is unavoidable for this class.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Deque, Optional

from repro.events import Message
from repro.protocols.base import Protocol
from repro.simulation.host import HostContext

REQ = "req"
ACK = "ack"
NACK = "nack"
FIN = "fin"

IDLE = "idle"
AWAITING_ACK = "awaiting_ack"
AWAITING_FIN = "awaiting_fin"
BACKOFF = "backoff"


class SyncRendezvousProtocol(Protocol):
    """Rendezvous-with-retry logically synchronous delivery."""

    name = "sync-rendezvous"
    protocol_class = "general"

    def __init__(self, retry_low: float = 1.0, retry_high: float = 8.0, seed: int = 0):
        if not 0 < retry_low <= retry_high:
            raise ValueError("need 0 < retry_low <= retry_high")
        self.retry_low = retry_low
        self.retry_high = retry_high
        self._seed = seed
        self._rng: Optional[random.Random] = None
        self._outbox: Deque[Message] = deque()
        self._phase = IDLE
        self._committed_to: Optional[int] = None
        self.nacks_received = 0

    # -- availability ------------------------------------------------------

    def _free(self) -> bool:
        """Free to accept an incoming transfer: no commitment and no own
        transfer between REQ and FIN.  (BACKOFF counts as free -- that is
        what dissolves symmetric retry storms.)"""
        return self._committed_to is None and self._phase in (IDLE, BACKOFF)

    # -- sender side -----------------------------------------------------------

    def on_invoke(self, ctx: HostContext, message: Message) -> None:
        self._outbox.append(message)
        self._try_request(ctx)

    def _try_request(self, ctx: HostContext) -> None:
        # Only request while fully free: starting a transfer while
        # committed to an incoming one would let that delivery land after
        # our own send, an ordering assertion nothing justifies.
        if self._phase is not IDLE or self._committed_to is not None:
            return
        if not self._outbox:
            return
        self._phase = AWAITING_ACK
        ctx.send_control(self._outbox[0].receiver, (REQ,))

    def _retry_later(self, ctx: HostContext) -> None:
        self._phase = BACKOFF
        if self._rng is None:
            # One backoff stream per *process*: two processes that NACKed
            # each other and then drew the same delays wake together and
            # collide again -- on a low-jitter transport, indefinitely.
            self._rng = random.Random("%d/%d" % (self._seed, ctx.process_id))
        delay = self._rng.uniform(self.retry_low, self.retry_high)

        def wake() -> None:
            if self._phase is BACKOFF:
                self._phase = IDLE
                self._try_request(ctx)

        ctx.schedule(delay, wake)

    def on_restart(self, ctx: HostContext) -> None:
        # The backoff timer was volatile (the redo log does not hold
        # it), so a process restarted while backing off retries now.
        if self._phase == BACKOFF:
            self._phase = IDLE
            self._try_request(ctx)

    # -- control handling ----------------------------------------------------

    def on_control(self, ctx: HostContext, src: int, payload: Any) -> None:
        kind = payload[0]
        if kind == REQ:
            if self._free():
                self._committed_to = src
                ctx.send_control(src, (ACK,))
            else:
                ctx.send_control(src, (NACK,))
        elif kind == ACK:
            message = self._outbox.popleft()
            self._phase = AWAITING_FIN
            ctx.release(message, tag=None)
        elif kind == NACK:
            self.nacks_received += 1
            self._retry_later(ctx)
        elif kind == FIN:
            self._phase = IDLE
            self._try_request(ctx)
        else:
            raise ValueError("unknown control payload %r" % (payload,))

    def blocking_reason(self, message_id: str) -> Optional[str]:
        """Name the rendezvous phase an unreleased message is stuck in."""
        for position, message in enumerate(self._outbox):
            if message.id != message_id:
                continue
            if position > 0:
                return "queued at outbox position %d (one transfer at a time)" % (
                    position,
                )
            if self._phase is AWAITING_ACK:
                return "REQ sent to P%d, awaiting ACK/NACK" % message.receiver
            if self._phase is BACKOFF:
                return "backing off after NACK (%d so far), will retry" % (
                    self.nacks_received,
                )
            if self._committed_to is not None:
                return "deferred while committed to a transfer from P%d" % (
                    self._committed_to,
                )
            return "head of outbox, request not yet issued"
        return None

    # -- payload delivery ------------------------------------------------------

    def on_user_message(self, ctx: HostContext, message: Message, tag: Any) -> None:
        if self._committed_to != message.sender:
            raise RuntimeError(
                "payload from %d arrived while committed to %r"
                % (message.sender, self._committed_to)
            )
        ctx.deliver(message)
        self._committed_to = None
        ctx.send_control(message.sender, (FIN,))
        # A request deferred by the commitment can go out now.
        self._try_request(ctx)
