"""Observability: instrumentation bus, metrics, causal spans, profiling.

The layer the ROADMAP's production ambitions need: typed probe points
emitted from the simulator, network, protocol hosts and the verification
harness (:mod:`repro.obs.bus`); the metrics registry a host writes its
costs into, which ``SimulationStats`` reads, and a recorder adding what
only the probe stream shows (:mod:`repro.obs.metrics`); a span-based causal tracer with Chrome trace-event export so a run opens
in Perfetto (:mod:`repro.obs.spans`, :mod:`repro.obs.export`); a
liveness watchdog naming what blocks each stuck message
(:mod:`repro.obs.watchdog`); and a per-phase protocol profiler behind
``repro profile`` (:mod:`repro.obs.profile`).  Everything is opt-in:
with no bus attached the simulation path is unchanged and its schedule
bit-identical.
"""

from repro.obs.bus import PROBES, Bus, ProbeEvent, ProbeLog
from repro.obs.export import (
    TIME_SCALE,
    probe_log_to_jsonl,
    spans_to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.flight import FlightRecord, FlightRecorder
from repro.obs.forensics import build_forensics, render_forensics
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRecorder,
    MetricsRegistry,
)
from repro.obs.openmetrics import parse_openmetrics, render_openmetrics
from repro.obs.profile import (
    DEFAULT_PROFILE_PROTOCOLS,
    ProtocolProfile,
    catalog_protocols,
    profile_protocol,
    profile_protocols,
    render_profiles,
)
from repro.obs.spans import PHASES, Flow, Span, SpanTracer
from repro.obs.watchdog import StuckMessage, Watchdog

__all__ = [
    "PROBES",
    "Bus",
    "ProbeEvent",
    "ProbeLog",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsRecorder",
    "PHASES",
    "Span",
    "Flow",
    "SpanTracer",
    "TIME_SCALE",
    "spans_to_chrome_trace",
    "write_chrome_trace",
    "probe_log_to_jsonl",
    "StuckMessage",
    "Watchdog",
    "FlightRecord",
    "FlightRecorder",
    "build_forensics",
    "render_forensics",
    "parse_openmetrics",
    "render_openmetrics",
    "ProtocolProfile",
    "DEFAULT_PROFILE_PROTOCOLS",
    "catalog_protocols",
    "profile_protocol",
    "profile_protocols",
    "render_profiles",
]
