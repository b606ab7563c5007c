"""Tests for the metrics registry and the probe-driven recorder."""

import json

import pytest

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

    def test_register_adopts_the_owners_object(self):
        registry = MetricsRegistry()
        owned = Histogram("latency.delivery", "fed by its owner")
        registry.register(owned)
        assert registry.histogram("latency.delivery") is owned
        with pytest.raises(ValueError, match="already registered"):
            registry.register(Histogram("latency.delivery"))

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

    @pytest.mark.parametrize("protocol_cls", [FifoProtocol, CausalRstProtocol])
    def test_subsumes_simulation_stats(
        self, protocol_cls, assert_registry_matches_stats
    ):
        # The recorder, fed only probe events, holds exactly what the
        # host populated directly: same counts, same latencies in the
        # same order.
        recorder, result = self._run(protocol_cls)
        assert_registry_matches_stats(recorder.registry, result.stats)

    def test_per_message_state_is_retired_on_delivery(
        self, assert_registry_matches_stats
    ):
        # A soak run must not grow linearly with delivered messages.
        recorder, result = self._run(FifoProtocol)
        assert result.delivered_all
        assert recorder._invoke_time == {}
        assert recorder._release_time == {}
        assert recorder._receive_time == {}
        assert not hasattr(recorder, "_tag_bytes")
        assert_registry_matches_stats(recorder.registry, result.stats)

    def test_owner_fed_delivery_histograms_are_left_alone(self):
        # What NetHost does with its wall-clock pair: bus-time samples
        # must not land in histograms somebody else feeds in seconds.
        registry = MetricsRegistry()
        registry.register(Histogram("latency.delivery"))
        registry.register(Histogram("latency.end_to_end"))
        bus = Bus()
        recorder = MetricsRecorder(bus, registry)
        result = run_simulation(
            make_factory(FifoProtocol), random_traffic(3, 20, seed=2), seed=2, bus=bus
        )
        assert registry.counter("messages.delivered").value == result.stats.deliveries
        assert registry.histogram("latency.buffering").count == result.stats.deliveries
        assert registry.histogram("latency.delivery").count == 0
        assert registry.histogram("latency.end_to_end").count == 0
        assert recorder._release_time == {}

    def test_phase_latencies_decompose_end_to_end(self):
        recorder, result = self._run(CausalRstProtocol)
        registry = recorder.registry
        inhibition = registry.histogram("latency.inhibition")
        network = registry.histogram("latency.network")
        buffering = registry.histogram("latency.buffering")
        e2e = registry.histogram("latency.end_to_end")
        assert e2e.count == result.stats.deliveries
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
