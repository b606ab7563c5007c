"""Observers must not perturb the simulation (bit-identical schedules).

The observability contract: a run is a pure function of
``(factory, workload, seed)``; attaching a bus with every subscriber a
simulation can carry -- the metrics recorder, the watchdog, the flight
recorder's context stream and the WAL -- changes nothing about the
recorded trace or the statistics.  The runs are lossy (drops and
duplicates under the ARQ sublayer), so the fault, retransmission and
timer probes really fire.  These tests compare instrumented and
uninstrumented runs record by record.
"""

import pytest

from repro.faults import FaultPlan
from repro.obs import Bus, FlightRecorder, MetricsRecorder, SpanTracer, Watchdog
from repro.protocols import (
    CausalRstProtocol,
    FifoProtocol,
    SyncCoordinatorProtocol,
)
from repro.protocols.base import make_factory
from repro.protocols.reliable import make_reliable
from repro.simulation import UniformLatency, random_traffic, run_simulation
from repro.wal import WalSink

PROTOCOLS = {
    "fifo": FifoProtocol,
    "causal-rst": CausalRstProtocol,
    "sync-coord": SyncCoordinatorProtocol,
}


def _run(protocol_cls, bus, wal=None):
    return run_simulation(
        make_reliable(make_factory(protocol_cls)),
        random_traffic(4, 50, seed=11),
        seed=11,
        latency=UniformLatency(low=1.0, high=25.0),
        bus=bus,
        faults=FaultPlan(drop_rate=0.1, dup_rate=0.1, seed=11),
        wal=wal,
    )


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_fully_observed_run_is_bit_identical(name, tmp_path):
    protocol_cls = PROTOCOLS[name]
    plain = _run(protocol_cls, bus=None)

    bus = Bus()
    recorder = MetricsRecorder(bus)
    watchdog = Watchdog(bus)
    flight = FlightRecorder(0)
    flight.attach(bus)
    wal = WalSink(str(tmp_path / "wal"))
    try:
        observed = _run(protocol_cls, bus=bus, wal=wal)
    finally:
        wal.close()

    assert observed.stats.registry.snapshot() == plain.stats.registry.snapshot()
    assert observed.trace.records() == plain.trace.records()
    assert observed.trace.messages() == plain.trace.messages()
    assert observed.delivered_all == plain.delivered_all

    # And the consumers really saw the run.
    assert "fault.drops" in recorder.registry.names()
    assert flight.recorded > 0
    assert watchdog.stuck(observed.trace) == []
    assert len(SpanTracer(observed.trace).spans()) == 3 * plain.stats.deliveries


def test_two_observed_runs_agree_with_each_other():
    first = _run(FifoProtocol, bus=Bus())
    second = _run(FifoProtocol, bus=Bus())
    assert first.trace.records() == second.trace.records()
    assert first.stats.registry.snapshot() == second.stats.registry.snapshot()
