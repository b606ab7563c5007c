"""Span-based causal tracing of message lifecycles.

Each message's ``invoke -> send -> receive -> deliver`` lifecycle becomes
three spans with causal parent links:

- ``inhibit`` (invoke to send, on the sender's track) -- where
  send-inhibitory protocols pay;
- ``transit`` (send to receive, on the sender's track, parented by the
  inhibit span) -- the network's share;
- ``buffer`` (receive to deliver, on the receiver's track, parented by
  the transit span) -- where delivery-buffering protocols pay.

The tracer also records one *flow* per message (send at the sender to
receive at the receiver), which the Chrome exporter turns into the
causal arrows Perfetto draws between tracks.  Everything is read off a
:class:`~repro.simulation.trace.Trace` in one pass over its records, in
their order: a phase opens at the latest of its message's events
recorded before it, so a trace stitched from skewed clocks (a receive
recorded before its send) still yields a span per record.  Phases the
run never completed are closed at the latest record's time and marked
``incomplete``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.events import EventKind
from repro.simulation.trace import DELIVERED, INVOKED, RECEIVED, SENT, Trace

#: Lifecycle phases, in causal order: a record of kind ``k`` closes
#: phase ``PHASES[k.value - 1]``.
PHASES = ("inhibit", "transit", "buffer")


@dataclass
class Span:
    """One closed interval of a message's lifecycle on one track."""

    span_id: int
    name: str
    category: str  # one of PHASES
    track: int  # process index whose timeline carries the span
    start: float
    end: float
    parent_id: Optional[int] = None
    message_id: str = ""
    incomplete: bool = False
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """The span's extent in virtual time."""
        return self.end - self.start


@dataclass(frozen=True)
class Flow:
    """A causal arrow: the send at the sender to the receive at the receiver."""

    flow_id: int
    message_id: str
    src: int
    dst: int
    send_time: float
    receive_time: float


class SpanTracer:
    """The causal span tree of a run, built from its trace.

    The phases the trace never completed close at the latest record's
    time: a message invoked but never sent gets an ``incomplete`` inhibit
    span, one received but never delivered an ``incomplete`` buffer span.
    """

    def __init__(self, trace: Trace):
        self._spans: List[Span] = []
        self._flows: List[Flow] = []
        self._span_of: Dict[str, Dict[str, Span]] = {}
        records = trace.records()
        for record in records:
            kind = record.event.kind
            if kind is EventKind.INVOKE:
                continue
            message_id = record.event.message_id
            opened = trace.row(message_id)[kind.value - 1]
            if opened is None or opened.sequence > record.sequence:
                opened = record
            track, args = record.process, {}
            if kind is EventKind.RECEIVE:
                track = trace.message(message_id).sender
                self._flows.append(
                    Flow(
                        flow_id=len(self._flows) + 1,
                        message_id=message_id,
                        src=track,
                        dst=record.process,
                        send_time=opened.time,
                        receive_time=record.time,
                    )
                )
            elif kind is EventKind.DELIVER:
                args["delayed"] = record.time > opened.time
            phase = kind.value - 1
            self._add(message_id, phase, track, opened.time, record.time, args)
        end = max((record.time for record in records), default=0.0)
        rows = [(message.id, trace.row(message.id)) for message in trace.messages()]
        for phase, first, last in ((0, INVOKED, SENT), (2, RECEIVED, DELIVERED)):
            for message_id, row in rows:
                opened = row[first]
                if opened is not None and row[last] is None:
                    self._add(
                        message_id,
                        phase,
                        opened.process,
                        opened.time,
                        end,
                        incomplete=True,
                    )

    def _add(
        self,
        message_id: str,
        phase: int,
        track: int,
        start: float,
        end: float,
        args: Optional[Dict[str, Any]] = None,
        incomplete: bool = False,
    ) -> None:
        """Open span ``PHASES[phase]`` of ``message_id``, parented by the
        message's span of the phase before it, if any."""
        spans = self._span_of.setdefault(message_id, {})
        parent = spans.get(PHASES[phase - 1]) if phase else None
        category = PHASES[phase]
        span = Span(
            span_id=len(self._spans) + 1,
            name="%s %s" % (message_id, category),
            category=category,
            track=track,
            start=start,
            end=end,
            parent_id=parent.span_id if parent is not None else None,
            message_id=message_id,
            incomplete=incomplete,
            args=args or {},
        )
        self._spans.append(span)
        spans[category] = span

    # Queries --------------------------------------------------------------

    def spans(self) -> List[Span]:
        """All spans, ordered by (start time, creation order)."""
        return sorted(self._spans, key=lambda span: (span.start, span.span_id))

    def spans_of(self, message_id: str) -> Dict[str, Span]:
        """The spans of one message, keyed by phase."""
        return dict(self._span_of.get(message_id, {}))

    def flows(self) -> List[Flow]:
        """All send->receive flows, in receive order."""
        return list(self._flows)
