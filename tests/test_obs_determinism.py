"""Observers must not perturb the simulation (bit-identical schedules).

The observability contract: a run is a pure function of
``(factory, workload, seed)``; attaching a bus -- even a fully
subscribed one -- changes nothing about the recorded trace or the
statistics.  These tests compare instrumented and uninstrumented runs
record by record.
"""

import pytest

from repro.obs import Bus, MetricsRecorder, ProbeLog, SpanTracer, Watchdog
from repro.protocols import (
    CausalRstProtocol,
    FifoProtocol,
    SyncCoordinatorProtocol,
)
from repro.protocols.base import make_factory
from repro.simulation import UniformLatency, random_traffic, run_simulation

PROTOCOLS = {
    "fifo": FifoProtocol,
    "causal-rst": CausalRstProtocol,
    "sync-coord": SyncCoordinatorProtocol,
}


def _run(protocol_cls, bus):
    return run_simulation(
        make_factory(protocol_cls),
        random_traffic(4, 50, seed=11),
        seed=11,
        latency=UniformLatency(low=1.0, high=25.0),
        bus=bus,
    )


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_fully_observed_run_is_bit_identical(name):
    protocol_cls = PROTOCOLS[name]
    plain = _run(protocol_cls, bus=None)

    bus = Bus()
    # Attach every consumer at once: wildcard log, metrics, spans, watchdog.
    log = ProbeLog(bus)
    recorder = MetricsRecorder(bus)
    tracer = SpanTracer(bus)
    watchdog = Watchdog(bus)
    observed = _run(protocol_cls, bus=bus)

    assert observed.stats.registry.snapshot() == plain.stats.registry.snapshot()
    assert observed.trace.records() == plain.trace.records()
    assert observed.trace.messages() == plain.trace.messages()
    assert observed.delivered_all == plain.delivered_all

    # And the consumers really saw the run.
    assert len(log) > 0
    assert recorder.registry.histogram("latency.buffering").count == (
        plain.stats.deliveries
    )
    assert len(tracer.spans()) == 3 * plain.stats.deliveries
    assert watchdog.stuck() == []


def test_two_observed_runs_agree_with_each_other():
    first = _run(FifoProtocol, bus=Bus())
    second = _run(FifoProtocol, bus=Bus())
    assert first.trace.records() == second.trace.records()
    assert first.stats.registry.snapshot() == second.stats.registry.snapshot()
