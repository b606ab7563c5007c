"""Tests for the metrics registry and the probe-driven recorder."""

import asyncio
import json

import pytest

from repro.events import Message
from repro.faults import FaultPlan
from repro.net import NetHost, free_ports
from repro.obs import (
    Bus,
    Counter,
    Gauge,
    Histogram,
    MetricsRecorder,
    MetricsRegistry,
)
from repro.protocols import CausalRstProtocol, FifoProtocol
from repro.protocols.base import make_factory
from repro.protocols.registry import catalogue_entry
from repro.simulation import UniformLatency, random_traffic, run_simulation


class TestCounter:
    def test_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5, label="a")
        assert counter.value == 3.5
        assert counter.by_label == {"a": 2.5}

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter("c").inc(-1)

    def test_snapshot(self):
        counter = Counter("c")
        counter.inc(1, label="b")
        counter.inc(1, label="a")
        assert counter.snapshot() == {
            "kind": "counter",
            "value": 2.0,
            "by_label": {"a": 1.0, "b": 1.0},
        }


class TestGauge:
    def test_tracks_extremes(self):
        gauge = Gauge("g")
        gauge.set(3)
        gauge.set(1)
        assert gauge.value == 1
        assert gauge.max_seen == 3

    def test_add_and_labels(self):
        gauge = Gauge("g")
        gauge.add(2, label="p0")
        gauge.add(-1, label="p0")
        assert gauge.by_label["p0"] == 1
        assert gauge.max_by_label["p0"] == 2


class TestHistogram:
    def test_empty(self):
        histogram = Histogram("h")
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.percentile(95) == 0.0

    def test_aggregates(self):
        histogram = Histogram("h")
        for value in (4.0, 1.0, 3.0, 2.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == 10.0
        assert histogram.mean == 2.5
        assert histogram.min == 1.0
        assert histogram.max == 4.0
        assert histogram.percentile(50) == 2.0
        assert histogram.percentile(100) == 4.0
        assert histogram.values() == [4.0, 1.0, 3.0, 2.0]

    def test_percentile_bounds(self):
        histogram = Histogram("h")
        histogram.observe(1.0)
        with pytest.raises(ValueError, match="percentile"):
            histogram.percentile(-1)

    def test_snapshot_has_quantiles(self):
        histogram = Histogram("h")
        for value in range(1, 101):
            histogram.observe(float(value))
        snapshot = histogram.snapshot()
        assert snapshot["p50"] == 50.0
        assert snapshot["p95"] == 95.0
        assert snapshot["p99"] == 99.0


class TestMetricsRegistry:
    def test_create_or_get(self):
        registry = MetricsRegistry()
        first = registry.counter("messages.user", "help text")
        second = registry.counter("messages.user")
        assert first is second
        assert registry.names() == ["messages.user"]
        assert registry.get("messages.user") is first
        assert registry.get("nope") is None

    def test_kind_clash_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("x")

    def test_to_json_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.histogram("h").observe(1.0)
        parsed = json.loads(registry.to_json())
        assert parsed["c"]["value"] == 3.0
        assert parsed["h"]["count"] == 1


class TestMetricsRecorder:
    def _run(self, protocol_cls, seed=5):
        bus = Bus()
        recorder = MetricsRecorder(bus)
        result = run_simulation(
            make_factory(protocol_cls),
            random_traffic(4, 60, seed=seed),
            seed=seed,
            latency=UniformLatency(low=1.0, high=40.0),
            bus=bus,
        )
        return recorder, result

    def test_per_message_state_is_retired_on_delivery(self):
        # A soak run must not grow linearly with delivered messages.
        recorder, result = self._run(FifoProtocol)
        assert result.delivered_all
        assert recorder._invoke_time == {}
        assert recorder._receive_time == {}
        assert not hasattr(recorder, "_tag_bytes")

    def test_phase_latencies_decompose_end_to_end(self):
        # The phases come from the recorder, end to end from the host.
        recorder, result = self._run(CausalRstProtocol)
        registry = recorder.registry
        inhibition = registry.histogram("latency.inhibition")
        network = registry.histogram("latency.network")
        buffering = registry.histogram("latency.buffering")
        e2e = result.stats.registry.histogram("latency.end_to_end")
        assert e2e.count == network.count == result.stats.deliveries
        # invoke->deliver == (invoke->send) + (send->receive) + (receive->deliver)
        assert e2e.total == pytest.approx(
            inhibition.total + network.total + buffering.total
        )

    def test_buffer_occupancy_returns_to_zero(self):
        recorder, result = self._run(FifoProtocol)
        assert result.delivered_all
        occupancy = recorder.registry.gauge("buffer.occupancy")
        assert occupancy.value == 0
        assert occupancy.max_seen >= 1

    def test_close_detaches(self):
        bus = Bus()
        recorder = MetricsRecorder(bus)
        assert bus.active
        recorder.close()
        assert not bus.active


class TestOneWriterPerName:
    """A host writes its own facts into its stats registry and the
    recorder writes what only the bus shows: no name has two writers."""

    def test_simulation(self):
        bus = Bus()
        recorder = MetricsRecorder(bus)
        result = run_simulation(
            catalogue_entry("sync-coord").reliable_factory(),
            random_traffic(3, 12, seed=1),
            seed=1,
            faults=FaultPlan(drop_rate=0.2, dup_rate=0.1, seed=1),
            bus=bus,
        )
        host_names = set(result.stats.registry.names())
        recorder_names = set(recorder.registry.names())
        assert {"net.control.messages", "retx.messages", "retx.dups"} <= host_names
        assert {"latency.network", "fault.drops", "retx.acks"} <= recorder_names
        assert host_names.isdisjoint(recorder_names)

    def test_net_host_pair(self):
        # Each recorder listens on a host's bus but writes a registry of
        # its own, so the two writers' names can be told apart.
        async def scenario():
            ports = free_ports(2)
            factory = catalogue_entry("fifo").factory
            hosts = [
                NetHost(factory, pid, ports, run_id="writers", observability=False)
                for pid in range(2)
            ]
            recorders = [MetricsRecorder(host.bus) for host in hosts]
            try:
                for host in hosts:
                    await host.start()
                for host in hosts:
                    await host.ready()
                for n in range(4):
                    hosts[0].invoke(Message(id="m%d" % n, sender=0, receiver=1))
                for _ in range(400):
                    if hosts[1].stats.deliveries == 4:
                        break
                    await asyncio.sleep(0.005)
            finally:
                for host in hosts:
                    await host.shutdown()
            return [
                (set(host.stats.registry.names()), set(recorder.registry.names()))
                for host, recorder in zip(hosts, recorders)
            ]

        (sender_host, sender_bus), (receiver_host, receiver_bus) = asyncio.run(
            scenario()
        )
        assert {"messages.user", "latency.inhibition"} <= sender_host | sender_bus
        assert {"messages.delivered", "latency.buffering"} <= (
            receiver_host | receiver_bus
        )
        assert sender_host.isdisjoint(sender_bus)
        assert receiver_host.isdisjoint(receiver_bus)
