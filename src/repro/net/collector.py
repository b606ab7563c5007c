"""Pull-based cluster collection: flight dumps, metrics, stitched traces.

The observability plane is pull-only: a collector is a
:class:`~repro.net.client.ClusterClient` (every host dialed as a
``load``-role client) that round-trips :data:`~repro.net.codec.TRACE` and
:data:`~repro.net.codec.METRICS` frames.  Three consumers build on that:

``repro trace``
    pulls every host's flight recorder, estimates each host's clock
    offset, and stitches the per-host rings into one Perfetto-loadable
    Chrome trace with cross-process flow arrows (send at the sender ->
    receive at the receiver).

``repro top``
    polls STATS + METRICS and renders a live table, one row per host or
    shard worker (throughput, latency percentiles, retransmissions,
    stuck messages).

forensics
    ``repro load`` pulls TRACE dumps when the live monitor latches a
    violation (see :mod:`repro.obs.forensics`).

Clock offsets use the rendezvous midpoint estimator: for a request sent
at collector time ``t0`` and answered (with host wall time ``w``) at
``t1``, ``offset = w - (t0 + t1) / 2``; over several rounds the sample
with the smallest round-trip time wins (the standard NTP heuristic --
the less the queueing, the tighter the bound).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.events import Event, EventKind, Message
from repro.net import codec
from repro.net.client import ClusterClient
from repro.obs.export import spans_to_chrome_trace
from repro.obs.flight import LIFECYCLE_KINDS, FlightRecord, FlightRecorder
from repro.obs.metrics import Histogram
from repro.obs.spans import SpanTracer
from repro.simulation.trace import Trace

__all__ = [
    "ClusterCollector",
    "HostPull",
    "OffsetSample",
    "estimate_offset",
    "render_top",
    "stitch_flight_dumps",
]

@dataclass(frozen=True)
class OffsetSample:
    """One rendezvous round against one host."""

    t0: float  # collector wall just before the request
    t1: float  # collector wall just after the reply
    host_wall: float  # the host's wall time inside the reply

    @property
    def rtt(self) -> float:
        return self.t1 - self.t0

    @property
    def offset(self) -> float:
        """host clock minus collector clock, midpoint estimate."""
        return self.host_wall - (self.t0 + self.t1) / 2.0


def estimate_offset(samples: Sequence[OffsetSample]) -> float:
    """The minimum-RTT sample's offset (0.0 with no samples)."""
    if not samples:
        return 0.0
    best = min(samples, key=lambda sample: sample.rtt)
    return best.offset


@dataclass
class HostPull:
    """Everything one host yielded to the collector."""

    process: int
    trace_body: Optional[Dict[str, Any]] = None
    metrics_body: Optional[Dict[str, Any]] = None
    stats_body: Optional[Dict[str, Any]] = None
    samples: List[OffsetSample] = field(default_factory=list)

    @property
    def offset(self) -> float:
        """Estimated host-clock minus collector-clock offset (seconds)."""
        return estimate_offset(self.samples)


class ClusterCollector(ClusterClient):
    """Dial every host and pull TRACE / METRICS / STATS on demand."""

    async def pull(self, rounds: int = 3) -> List[HostPull]:
        """TRACE (``rounds`` stamped round trips each) + METRICS + STATS.

        Multiple TRACE rounds tighten the offset estimate; the *last*
        round's dump is kept (it supersedes the earlier ones -- the ring
        only grows).
        """
        pulls = []
        for index, link in enumerate(self.links):
            pull = HostPull(process=index)
            for _ in range(max(1, rounds)):
                t0 = time.time()
                pull.trace_body = await link.request(codec.TRACE)
                t1 = time.time()
                pull.samples.append(
                    OffsetSample(t0, t1, pull.trace_body.get("wall", t1))
                )
            pull.metrics_body = await link.request(codec.METRICS)
            pull.stats_body = await link.request(codec.STATS)
            if pull.trace_body is not None:
                pull.process = int(pull.trace_body.get("process", index))
            pulls.append(pull)
        return pulls


# -- stitching ----------------------------------------------------------------


def stitch_flight_dumps(
    dumps: Sequence[Dict[str, Any]],
    n_processes: int,
    offsets: Optional[Dict[int, float]] = None,
) -> Dict[str, Any]:
    """Merge per-host flight dumps into one Chrome/Perfetto trace dict.

    ``dumps`` are TRACE frame bodies; ``offsets`` maps process id to its
    estimated clock offset (host minus collector, seconds), which is
    *subtracted* from every record's wall stamp so all hosts land on the
    collector's timeline.  The lifecycle records, in corrected wall
    order, become one :class:`~repro.simulation.trace.Trace` whose
    :class:`~repro.obs.spans.SpanTracer` gives the stitched trace the
    same span tree and cross-process flow arrows a simulated run exports
    -- timestamps in microseconds of corrected wall time.  A buffer span
    keeps the ``delayed`` verdict its host took on its own clock.
    """
    offsets = offsets or {}
    rows: List[Tuple[float, FlightRecord]] = []
    for dump in dumps:
        flight = (dump or {}).get("flight")
        if not flight:
            continue
        process = int(flight.get("process", dump.get("process", -1)))
        correction = offsets.get(process, 0.0)
        for record in FlightRecorder.records_from_wire(flight):
            if record.kind in LIFECYCLE_KINDS:  # context probes don't become spans
                rows.append((record.wall - correction, record))
    rows.sort(key=lambda row: row[0])
    base = rows[0][0] if rows else 0.0
    trace = Trace(n_processes)
    delayed: Dict[str, Any] = {}
    for corrected, record in rows:
        data = record.data
        message_id, process = data["message_id"], data["process"]
        event = Event(message_id, EventKind(LIFECYCLE_KINDS.index(record.kind)))
        if event.kind in (EventKind.INVOKE, EventKind.SEND):
            trace.register_message(Message(message_id, process, data["receiver"]))
        else:
            trace.register_message(Message(message_id, data["sender"], process))
        trace.record(corrected - base, process, event)
        if event.kind is EventKind.DELIVER:
            delayed[message_id] = data.get("delayed")
    tracer = SpanTracer(trace)
    for message_id, verdict in delayed.items():
        tracer.spans_of(message_id)["buffer"].args["delayed"] = verdict
    return spans_to_chrome_trace(tracer, n_processes, time_scale=1e6)


# -- the live view ------------------------------------------------------------


def render_top(
    pulls: Sequence[HostPull],
    previous: Optional[Sequence[HostPull]] = None,
    dt: Optional[float] = None,
    violation: Optional[str] = None,
) -> str:
    """A ``repro top`` table from one collection round.

    One row per endpoint -- a host, or a shard worker with its lanes --
    showing what its STATS body has, then the sum row and the first
    violation (``violation``, else the first a lane checker latched).

    ``previous``/``dt`` (the prior round and the seconds between them)
    turn absolute delivery counters into a rate column.
    """
    prior = {pull.process: pull for pull in previous or ()}
    header = (
        "P   invoked  delivered   msg/s   p50 ms   p99 ms   retx  dups"
        "  pending  stuck  links      offset ms"
    )
    lines = [header]
    totals = {"invoked": 0, "delivered": 0, "rate": 0.0, "stuck": 0}
    for pull in pulls:
        stats = pull.stats_body or {}
        invoked = stats.get("invoked", 0)
        delivered = stats.get("deliveries", 0)
        rate = 0.0
        before = prior.get(pull.process)
        if before is not None and before.stats_body and dt:
            rate = max(
                0.0, (delivered - before.stats_body.get("deliveries", 0)) / dt
            )
        latency = stats.get("latencies")
        histogram = (
            Histogram.from_wire(latency) if isinstance(latency, dict) else None
        )
        p50 = histogram.percentile(50) * 1000.0 if histogram else 0.0
        p99 = histogram.percentile(99) * 1000.0 if histogram else 0.0
        stuck = stats.get("stuck_total", len(stats.get("stuck", [])))
        totals["invoked"] += invoked
        totals["delivered"] += delivered
        totals["rate"] += rate
        totals["stuck"] += stuck
        violation = violation or stats.get("violation")
        # The failure detector's verdict per peer link: "up" when every
        # link is healthy, otherwise the peers that are not ("2:down").
        links = stats.get("links") or {}
        degraded = sorted(
            (peer, state) for peer, state in links.items() if state != "up"
        )
        if not links:
            link_view = "-"
        elif degraded:
            link_view = ",".join(
                "%s:%s" % (peer, state) for peer, state in degraded
            )
        else:
            link_view = "up"
        if stats.get("congested"):
            link_view += "!"
        lines.append(
            "%-3d %7d %10d %7.0f %8.2f %8.2f %6d %5d %8d %6d  %-9s %9.2f"
            % (
                pull.process,
                invoked,
                delivered,
                rate,
                p50,
                p99,
                stats.get("retransmissions", 0),
                stats.get("duplicate_receives", 0),
                stats.get("pending", 0),
                stuck,
                link_view[:9],
                pull.offset * 1000.0,
            )
        )
    lines.append(
        "sum %7d %10d %7.0f%s"
        % (
            totals["invoked"],
            totals["delivered"],
            totals["rate"],
            "   stuck=%d" % totals["stuck"] if totals["stuck"] else "",
        )
    )
    if violation:
        lines.append("VIOLATION: %s" % violation)
    return "\n".join(lines)
