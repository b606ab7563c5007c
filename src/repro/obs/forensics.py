"""Violation forensics: turn a latched violation into an explanation.

When a live run's :class:`~repro.verification.engine.SpecMonitor` latches
a :class:`~repro.verification.engine.monitor.FirstViolation`, the raw
report is terse: a predicate name and a variable assignment.  This module
reconstructs the *story* an operator needs:

- the **causal path** -- every user event of the assignment's messages,
  vector-timestamped by the monitor's
  :class:`~repro.verification.engine.causality.OnlineCausality`, sorted
  into a causal order with the process-order and send->deliver edges
  made explicit;
- the **out-of-order pairs** -- for each pair of assigned messages, the
  observed send order vs the observed delivery order, naming exactly
  which inversion fired the predicate (e.g. FIFO: sends ``x ▷ y`` but
  deliveries ``y ▷ x``);
- the **wall-clock timeline** -- when flight-recorder dumps (TRACE
  frames, :mod:`repro.obs.flight`) are available, each assigned
  message's invoke/send/receive/deliver with real timestamps per host
  (the causal order is the causal path's, not the recorders');
- the surrounding **flight window** -- every recorded probe event within
  :data:`WINDOW_SECONDS` of the violation across all hosts, so faults,
  retransmissions and inhibits near the violation are in the report.

:func:`build_forensics` produces a JSON-safe dict (what ``repro load``
writes as the forensics artifact); :func:`render_forensics` renders the
same dict as text for the console.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.events import DELIVER, SEND, Event, EventKind
from repro.obs.flight import LIFECYCLE_KINDS, FlightRecorder

__all__ = [
    "WINDOW_LIMIT",
    "WINDOW_SECONDS",
    "build_forensics",
    "render_forensics",
]

#: Wall-clock half-width of the flight window kept around a violation.
WINDOW_SECONDS = 0.5

#: Ceiling on flight-window records embedded in one report (per run, not
#: per host) -- forensics artifacts must stay readable, not exhaustive.
WINDOW_LIMIT = 200


def _event_label(event: Event) -> str:
    return repr(event)  # the paper's "m1.s" / "m1.r" notation


def _causal_path(
    causality: Any, message_ids: Sequence[str]
) -> "tuple[List[Dict[str, Any]], List[Dict[str, Any]]]":
    """(nodes, edges) of the assignment's user events in causal order."""
    nodes = []
    for message_id in message_ids:
        for kind in (SEND, DELIVER):
            info = causality.info_of(message_id, kind)
            if info is None:
                continue
            location, own, clock = info
            nodes.append(
                {
                    "event": "%s.%s" % (message_id, kind.symbol),
                    "message_id": message_id,
                    "kind": kind.name.lower(),
                    "process": location,
                    "vc": {str(p): c for p, c in sorted(clock.items())},
                    "_sort": (sum(clock.values()), location, own),
                }
            )
    nodes.sort(key=lambda node: node.pop("_sort"))
    edges = []
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            if a["message_id"] == b["message_id"] and (
                a["kind"], b["kind"]
            ) == ("send", "deliver"):
                edges.append(
                    {
                        "from": a["event"],
                        "to": b["event"],
                        "why": "send -> deliver of %s" % a["message_id"],
                    }
                )
            elif a["process"] == b["process"] and causality.ordered(
                a["message_id"],
                EventKind[a["kind"].upper()],
                b["message_id"],
                EventKind[b["kind"].upper()],
            ):
                edges.append(
                    {
                        "from": a["event"],
                        "to": b["event"],
                        "why": "process order at P%d" % a["process"],
                    }
                )
    return nodes, edges


def _out_of_order_pairs(
    causality: Any, message_ids: Sequence[str]
) -> List[Dict[str, Any]]:
    """Send-order/delivery-order inversions among the assigned messages."""
    pairs = []
    ordered = sorted(set(message_ids))
    for i, x in enumerate(ordered):
        for y in ordered[i + 1 :]:
            for first, second in ((x, y), (y, x)):
                sends = causality.ordered(first, SEND, second, SEND)
                delivers_inverted = causality.ordered(
                    second, DELIVER, first, DELIVER
                )
                if sends and delivers_inverted:
                    pairs.append(
                        {
                            "sent_first": first,
                            "sent_second": second,
                            "delivered_first": second,
                            "delivered_second": first,
                            "describe": (
                                "sends %s.s ▷ %s.s but deliveries %s.r ▷ %s.r"
                                % (first, second, second, first)
                            ),
                        }
                    )
    return pairs


def _flight_records(dumps: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """``(process, record)`` pairs decoded from TRACE bodies (lenient)."""
    decoded = []
    for dump in dumps or ():
        flight = (dump or {}).get("flight")
        if not flight:
            continue
        process = flight.get("process", dump.get("process", -1))
        try:
            records = FlightRecorder.records_from_wire(flight)
        except ValueError:
            continue  # a corrupt dump costs its window, not the report
        decoded.extend((process, record) for record in records)
    return decoded


def _timeline(
    dumps: Sequence[Dict[str, Any]], message_ids: Sequence[str]
) -> List[Dict[str, Any]]:
    """Per-message wall-clock lifecycle rows, gathered across hosts."""
    wanted = set(message_ids)
    rows: List[Dict[str, Any]] = []
    for process, record in _flight_records(dumps):
        if record.kind in LIFECYCLE_KINDS and record.message_id in wanted:
            rows.append(
                {
                    "message_id": record.message_id,
                    "kind": record.kind,
                    "process": process,
                    "wall": record.wall,
                    "t": record.time,
                }
            )
    rows.sort(key=lambda row: (row["wall"], row["message_id"], row["kind"]))
    return rows


def _window(
    dumps: Sequence[Dict[str, Any]], around_wall: Optional[float]
) -> List[Dict[str, Any]]:
    """All flight records within the window, merged across hosts."""
    if around_wall is None:
        return []
    rows = []
    for process, record in _flight_records(dumps):
        if abs(record.wall - around_wall) <= WINDOW_SECONDS:
            entry = record.to_wire()
            entry["process"] = process
            rows.append(entry)
    rows.sort(key=lambda row: (row["wall"], row["process"], row["seq"]))
    if len(rows) > WINDOW_LIMIT:
        keep = WINDOW_LIMIT // 2
        rows = rows[:keep] + rows[-keep:]
    return rows


def build_forensics(
    observer: Any, trace_dumps: Optional[Sequence[Dict[str, Any]]] = None
) -> Optional[Dict[str, Any]]:
    """A JSON-safe forensics report for an observer's latched violation.

    ``observer`` is a :class:`~repro.net.cluster.LiveObserver` (or
    anything with ``monitor``/``trace``/``spec``); ``trace_dumps`` are
    TRACE frame bodies pulled from the hosts.  Returns ``None`` when the
    monitor latched nothing (an oracle-only rejection has no violating
    event to anchor on, so it gets no forensics beyond the report line).
    """
    monitor = getattr(observer, "monitor", None)
    violation = getattr(monitor, "violation", None)
    if violation is None:
        return None
    causality = monitor.causality
    assignment = dict(violation.assignment)
    message_ids = sorted(set(assignment.values()))
    trace = getattr(observer, "trace", None)
    messages = {}
    for message_id in message_ids:
        message = trace.message(message_id) if trace is not None else None
        if message is not None:
            messages[message_id] = {
                "sender": message.sender,
                "receiver": message.receiver,
                "color": message.color,
            }
    nodes, edges = _causal_path(causality, message_ids)
    dumps = list(trace_dumps or ())
    timeline = _timeline(dumps, message_ids)
    violation_wall = None
    for row in timeline:
        if (
            row["message_id"] == violation.event.message_id
            and row["kind"] == violation.event.kind.name.lower()  # a flight kind
        ):
            violation_wall = row["wall"]
    if violation_wall is None and timeline:
        violation_wall = timeline[-1]["wall"]
    spec = getattr(observer, "spec", None)
    return {
        "spec": getattr(spec, "name", None),
        "predicate": violation.predicate_name,
        "violation": {
            "time": violation.time,
            "event": _event_label(violation.event),
            "message_id": violation.event.message_id,
            "assignment": assignment,
        },
        "messages": messages,
        "causal_path": nodes,
        "causal_edges": edges,
        "out_of_order": _out_of_order_pairs(causality, message_ids),
        "timeline": timeline,
        "flight_window": _window(dumps, violation_wall),
        "hosts_dumped": sorted(
            dump.get("process", -1) for dump in dumps if dump
        ),
    }


def render_forensics(report: Dict[str, Any]) -> str:
    """The forensics dict as a human-readable multi-section text."""
    violation = report.get("violation", {})
    lines = [
        "VIOLATION FORENSICS",
        "  spec        %s" % (report.get("spec") or "?"),
        "  predicate   %s" % (report.get("predicate") or "?"),
        "  fired by    %s at t=%.3f"
        % (violation.get("event", "?"), violation.get("time", 0.0)),
        "  assignment  "
        + ", ".join(
            "%s=%s" % (var, mid)
            for var, mid in sorted(violation.get("assignment", {}).items())
        ),
    ]
    messages = report.get("messages", {})
    if messages:
        lines.append("  messages:")
        for message_id in sorted(messages):
            info = messages[message_id]
            lines.append(
                "    %-8s P%d -> P%d%s"
                % (
                    message_id,
                    info.get("sender", -1),
                    info.get("receiver", -1),
                    " (%s)" % info["color"] if info.get("color") else "",
                )
            )
    pairs = report.get("out_of_order", [])
    if pairs:
        lines.append("  out-of-order pairs:")
        for pair in pairs:
            lines.append("    " + pair["describe"])
    path = report.get("causal_path", [])
    if path:
        lines.append("  causal path (vector timestamps):")
        for node in path:
            lines.append(
                "    %-8s at P%d  vc=%s"
                % (node["event"], node["process"], node["vc"])
            )
        for edge in report.get("causal_edges", []):
            lines.append(
                "    %s -> %s  (%s)" % (edge["from"], edge["to"], edge["why"])
            )
    timeline = report.get("timeline", [])
    if timeline:
        lines.append("  wall-clock timeline:")
        base = timeline[0]["wall"]
        for row in timeline:
            lines.append(
                "    +%8.3fms  %-7s %-8s at P%d"
                % (
                    (row["wall"] - base) * 1000.0,
                    row["kind"],
                    row["message_id"],
                    row["process"],
                )
            )
    window = report.get("flight_window", [])
    if window:
        lines.append(
            "  flight window: %d record(s) within %.1fs of the violation"
            % (len(window), WINDOW_SECONDS)
        )
    return "\n".join(lines)
