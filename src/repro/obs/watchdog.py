"""Liveness watchdog: which messages are stuck, where, and why.

The paper's liveness obligation is that every invoked message is
eventually delivered.  When a run drains with undelivered messages, the
watchdog names the blocking layer from the last of the message's events
the trace holds:

- invoked but never released  -> send inhibited at the sender;
- released but never received -> in flight: lost to a network fault
  (when a ``fault.drop``/``fault.partition`` probe or a
  :meth:`Watchdog.note_drop` call said so) or genuinely still travelling;
- received but never delivered -> buffered at the receiver.

Under fault injection (:mod:`repro.faults`) the in-flight diagnosis
distinguishes *network loss* from *protocol blocking*: a dropped packet
with retransmissions under way reads "lost in network (awaiting
retransmit)", a dropped packet nobody retransmits is flagged as such,
and only an undropped message falls through to the protocol's own
account.  When the run's protocol instances are available their
:meth:`~repro.protocols.base.Protocol.blocking_reason` hook refines the
generic reason with protocol state ("waiting for seq 3 from P0", ...).
The watchdog reads each message's row of a
:class:`~repro.simulation.trace.Trace` (the host's own record of its
life, finished or still growing) and keeps no copy of it; the bus feeds
loss attribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.obs.bus import Bus, ProbeEvent
from repro.simulation.trace import INVOKED, Trace


@dataclass(frozen=True)
class StuckMessage:
    """One undelivered message and the diagnosis of what blocks it."""

    message_id: str
    phase: str  # "inhibited" | "in-flight" | "buffered"
    process: int  # the process holding the message
    since: float  # virtual time the message entered the blocking phase
    reason: str

    def describe(self) -> str:
        """A one-line human-readable diagnosis."""
        return "%s %s at P%d since t=%.3f: %s" % (
            self.message_id,
            self.phase,
            self.process,
            self.since,
            self.reason,
        )


class Watchdog:
    """Diagnoses the stuck messages of a trace.

    The phases come from the trace; the bus, when given, feeds only the
    loss attribution (drops and retransmissions).
    """

    def __init__(self, bus: Optional[Bus] = None):
        self._dropped: Dict[str, float] = {}
        self._retransmits: Dict[str, int] = {}
        self._unsubscribers = []
        if bus is not None:
            self._unsubscribers = [
                bus.subscribe("fault.drop", self._on_drop),
                bus.subscribe("fault.partition", self._on_drop),
                bus.subscribe("retx.send", self._on_retransmit),
            ]

    def _on_drop(self, event: ProbeEvent) -> None:
        message_id = event.data.get("message_id")
        if message_id is not None:
            self.note_drop(message_id, time=event.time)

    def _on_retransmit(self, event: ProbeEvent) -> None:
        message_id = event.data.get("message_id")
        if message_id is not None:
            self.note_retransmit(message_id)

    # Fault attribution (probe-fed, or fed directly from a
    # FaultyTransport's ``dropped_user`` list when no bus was attached).

    def note_drop(self, message_id: str, time: float = 0.0) -> None:
        """Record that a copy of ``message_id`` was lost in the network."""
        self._dropped[message_id] = time

    def note_retransmit(self, message_id: str) -> None:
        """Record one retransmission attempt for ``message_id``."""
        self._retransmits[message_id] = self._retransmits.get(message_id, 0) + 1

    def close(self) -> None:
        """Detach from the bus (accumulated state remains queryable)."""
        for unsubscribe in self._unsubscribers:
            unsubscribe()
        self._unsubscribers = []

    # Reporting ------------------------------------------------------------

    def stuck(
        self, trace: Trace, protocols: Optional[Sequence[object]] = None
    ) -> List[StuckMessage]:
        """Every undelivered message of ``trace`` with its diagnosis.

        Invoked messages come first; then the ones the trace only saw
        arrive (a TCP host's trace holds no peer's invoke).  ``protocols``
        is the per-process protocol list of the run, used to refine
        reasons via :meth:`Protocol.blocking_reason`.
        """
        reports = []
        messages = trace.messages()  # by id; a stable sort keeps that
        messages.sort(key=lambda message: trace.row(message.id)[INVOKED] is None)
        for message in messages:
            message_id = message.id
            invoked, sent, received, delivered = trace.row(message_id)
            if delivered is not None:
                continue
            if received is not None:
                phase, record = "buffered", received
                reason = "protocol never delivered after receive"
            elif invoked is None:
                continue
            elif sent is None:
                phase, record = "inhibited", invoked
                reason = "protocol never released the send"
            else:
                phase, record = "in-flight", sent
                lost = message_id in self._dropped
                attempts = self._retransmits.get(message_id, 0)
                if lost and attempts:
                    reason = (
                        "lost in network (awaiting retransmit, "
                        "%d attempt(s) so far)" % attempts
                    )
                elif lost:
                    reason = (
                        "lost in network at t=%.3f, never retransmitted"
                        % self._dropped[message_id]
                    )
                else:
                    reason = "released but never arrived at P%d" % message.receiver
            detail = self._protocol_reason(protocols, record.process, message_id)
            if detail:
                # Network loss outranks the protocol's own account -- the
                # sender's ARQ state is appended, not substituted, so the
                # report still separates "the network ate it" from "the
                # protocol is blocking".
                if phase == "in-flight" and message_id in self._dropped:
                    reason = "%s -- sender: %s" % (reason, detail)
                else:
                    reason = detail
            reports.append(
                StuckMessage(
                    message_id=message_id,
                    phase=phase,
                    process=record.process,
                    since=record.time,
                    reason=reason,
                )
            )
        return reports

    @staticmethod
    def _protocol_reason(
        protocols: Optional[Sequence[object]], process: int, message_id: str
    ) -> Optional[str]:
        if protocols is None or not 0 <= process < len(protocols):
            return None
        hook = getattr(protocols[process], "blocking_reason", None)
        if hook is None:
            return None
        return hook(message_id)

    def render(
        self, trace: Trace, protocols: Optional[Sequence[object]] = None
    ) -> str:
        """A human-readable stuck-message report (empty string when live)."""
        reports = self.stuck(trace, protocols=protocols)
        if not reports:
            return ""
        lines = ["%d message(s) stuck:" % len(reports)]
        lines.extend("  " + report.describe() for report in reports)
        return "\n".join(lines)
