"""Exporter: Chrome trace-event JSON (Perfetto).

The Chrome trace-event format (the JSON flavour Perfetto and
``chrome://tracing`` load directly) gets one track per process, one
complete-event slice per message phase (inhibit / transit / buffer), and
one flow arrow per message from its send to its receive.  Virtual time
maps to microseconds at :data:`TIME_SCALE` microseconds per virtual time
unit, so one unit of simulated latency displays as one millisecond.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs.spans import SpanTracer

#: Microseconds of trace time per unit of virtual time.
TIME_SCALE = 1000.0


def spans_to_chrome_trace(
    tracer: SpanTracer,
    n_processes: Optional[int] = None,
    time_scale: float = TIME_SCALE,
) -> Dict[str, Any]:
    """The tracer's spans and flows as a Chrome trace-event dict.

    ``n_processes`` forces a metadata row (and hence an empty track) for
    processes that happened to emit nothing.
    """
    spans = tracer.spans()
    flows = tracer.flows()
    tracks = set(span.track for span in spans)
    tracks.update(flow.src for flow in flows)
    tracks.update(flow.dst for flow in flows)
    if n_processes is not None:
        tracks.update(range(n_processes))
    events: List[Dict[str, Any]] = []
    for track in sorted(tracks):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": track,
                "args": {"name": "P%d" % track},
            }
        )
        events.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": 0,
                "tid": track,
                "args": {"sort_index": track},
            }
        )
    events.append(
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "repro simulation"},
        }
    )
    for span in spans:
        args: Dict[str, Any] = {
            "message": span.message_id,
            "span_id": span.span_id,
        }
        if span.parent_id is not None:
            args["parent_span_id"] = span.parent_id
        if span.incomplete:
            args["incomplete"] = True
        for key, value in span.args.items():
            if value is not None:
                args[key] = value
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "pid": 0,
                "tid": span.track,
                "ts": span.start * time_scale,
                "dur": max(span.duration * time_scale, 1.0),
                "args": args,
            }
        )
    for flow in flows:
        common = {"cat": "message", "name": flow.message_id, "pid": 0}
        events.append(
            dict(
                common,
                ph="s",
                id=flow.flow_id,
                tid=flow.src,
                ts=flow.send_time * time_scale,
            )
        )
        events.append(
            dict(
                common,
                ph="f",
                bp="e",
                id=flow.flow_id,
                tid=flow.dst,
                ts=flow.receive_time * time_scale,
            )
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str,
    tracer: SpanTracer,
    n_processes: Optional[int] = None,
    time_scale: float = TIME_SCALE,
) -> str:
    """Write the Chrome trace-event JSON for ``tracer`` to ``path``."""
    document = spans_to_chrome_trace(
        tracer, n_processes=n_processes, time_scale=time_scale
    )
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
    return path
