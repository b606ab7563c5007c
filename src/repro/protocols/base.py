"""The protocol interface: an inhibitory layer between user and network.

The paper's protocols control only the send event ``x.s`` (after the
invoke ``x.s*``) and the delivery ``x.r`` (after the receive ``x.r*``).
Correspondingly, a protocol here reacts to ``on_invoke`` by eventually
calling ``ctx.release`` and to ``on_user_message`` by eventually calling
``ctx.deliver``; *general* protocols may additionally exchange control
messages.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.events import Message
from repro.simulation.host import HostContext


class Protocol:
    """Base protocol: subclass and override the event hooks."""

    name = "protocol"
    protocol_class = "tagless"  # "tagless" | "tagged" | "general"
    #: Whether the host may hand repeated arrivals of the same user message
    #: to :meth:`on_duplicate` instead of raising ``ProtocolError``.  Only a
    #: protocol that deduplicates (e.g. the ARQ sublayer of
    #: :mod:`repro.protocols.reliable`) should opt in.
    accepts_duplicates = False
    #: Declares that every timer this protocol schedules is pure loss
    #: recovery: in an execution where no packet is destroyed, firing (or
    #: never firing) its timers cannot change the user-visible run.  The
    #: model checker relies on this to keep retransmission timers out of
    #: the transition tree until the adversary actually drops a packet --
    #: without it, every armed timer is an independent branching point.
    #: Only declare it when it genuinely holds (for the ARQ sublayer it
    #: does: receive-side sequence-number dedup makes redundant
    #: retransmissions invisible above the sublayer).
    timers_pure_recovery = False

    def on_start(self, ctx: HostContext) -> None:
        """Called once before any traffic (e.g. to seed a coordinator)."""

    def on_invoke(self, ctx: HostContext, message: Message) -> None:
        """The user requested a send; release it now or later."""
        raise NotImplementedError

    def on_user_message(self, ctx: HostContext, message: Message, tag: Any) -> None:
        """A user message arrived; deliver it now or later."""
        raise NotImplementedError

    def on_control(self, ctx: HostContext, src: int, payload: Any) -> None:
        """A control message arrived (general protocols only)."""
        raise NotImplementedError(
            "%s received an unexpected control message" % type(self).__name__
        )

    def on_duplicate(self, ctx: HostContext, message: Message, tag: Any) -> None:
        """A second copy of an already-received user message arrived.

        Only called when :attr:`accepts_duplicates` is true (the host
        raises otherwise): an unreliable network may duplicate packets or
        deliver a retransmission after the original.  The duplicate was
        *not* recorded as a receive event -- the paper's ``x.r*`` happened
        once -- so the protocol must not deliver it again; typical
        reaction is to refresh an acknowledgment.
        """
        raise NotImplementedError(
            "%s opted into duplicates but does not handle them"
            % type(self).__name__
        )

    def on_batch_end(self, ctx: HostContext) -> None:
        """Every input that arrived together has been handed over.

        The host calls this after the last ``on_user_message`` /
        ``on_control`` / ``on_duplicate`` of one batch of arrivals: a
        batch is a single packet in the simulator, the model checker and
        WAL replay, and everything one socket read returned on a
        :class:`~repro.net.host.NetHost`.  A protocol whose reaction to
        an arrival is a monotone fact (a cumulative acknowledgment) may
        note the debt in the arrival hooks and pay it once here.  The
        default does nothing; a sublayer forwards it to what it wraps.
        """

    # -- crash-restart hooks (see repro.faults) -----------------------------

    def on_restart(self, ctx: HostContext) -> None:
        """Called when a crashed process rejoins the run, after its state
        was rebuilt by replaying its WAL (:func:`repro.wal.rebuild_protocol`).
        Timers died with the crash and the log does not hold them, so
        this is where recovery re-arms them.  The default does nothing.
        """

    def on_link_restored(self, ctx: HostContext, dst: int) -> None:
        """The runtime re-established a broken link to ``dst``.

        Unlike :meth:`on_restart` this process never died -- only the
        channel did, taking any in-flight packets with it.  A recovery
        sublayer should resend whatever ``dst`` has not acknowledged and
        reset any per-peer give-up counters (the peer is provably
        reachable again).  The default does nothing: a protocol that
        assumes reliable channels has nothing to repair -- stack
        :class:`~repro.protocols.reliable.ReliableProtocol` under it if
        its channels can actually break.
        """

    def blocking_reason(self, message_id: str) -> Optional[str]:
        """Why this instance is withholding ``message_id``, or ``None``.

        An observability hook (see :mod:`repro.obs.watchdog`): protocols
        holding a message back -- an inhibited send or a buffered
        delivery -- may describe the condition they are waiting on
        ("waiting for seq 3 from P0").  The default knows nothing.
        """
        return None


def make_factory(protocol_cls, *args, **kwargs) -> Callable[[int, int], Protocol]:
    """A factory producing one independent instance per process.

    Extra arguments are forwarded to the constructor, which must accept
    them before the implicit ``process_id``/``n_processes`` the simulation
    supplies via hooks (protocols learn their identity from ``ctx``).
    """

    def factory(process_id: int, n_processes: int) -> Protocol:
        return protocol_cls(*args, **kwargs)

    return factory
