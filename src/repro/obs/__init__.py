"""Observability: instrumentation bus, metrics, causal spans, forensics.

The layer the ROADMAP's production ambitions need: typed probe points
for the facts a trace does not hold -- faults, retransmissions, timers,
link states, backpressure -- emitted by the protocol hosts, the fault
layer and the cluster runtime (:mod:`repro.obs.bus`); the metrics
registry a host writes its costs and its messages' phases into, which
``SimulationStats`` reads, and a recorder adding what other components
report on the bus (:mod:`repro.obs.metrics`); a span-based causal
tracer reading a trace, with Chrome trace-event export so a run opens
in Perfetto (:mod:`repro.obs.spans`, :mod:`repro.obs.export`); a
liveness watchdog reading a host's trace to name what blocks each stuck
message (:mod:`repro.obs.watchdog`).  The per-phase latency a host
writes into its registry is what ``repro compare`` tabulates
(:func:`repro.verification.cost_study`).  The bus is opt-in: with none
attached the simulation path is unchanged and its schedule
bit-identical.

A host's :class:`~repro.simulation.trace.Trace` is the one record of
each message's four events; no observer keeps its own copy.
"""

from repro.obs.bus import PROBES, Bus, ProbeEvent
from repro.obs.export import (
    TIME_SCALE,
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
from repro.obs.spans import PHASES, Flow, Span, SpanTracer
from repro.obs.watchdog import StuckMessage, Watchdog

__all__ = [
    "PROBES",
    "Bus",
    "ProbeEvent",
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
    "StuckMessage",
    "Watchdog",
    "FlightRecord",
    "FlightRecorder",
    "build_forensics",
    "render_forensics",
    "parse_openmetrics",
    "render_openmetrics",
]
