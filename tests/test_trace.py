"""Tests for traces, statistics and the size estimator."""

import pytest

from repro.events import Event, EventKind, Message
from repro.obs.metrics import SAMPLE_LIMIT
from repro.protocols import TaglessProtocol
from repro.protocols.base import make_factory
from repro.simulation import random_traffic, run_simulation
from repro.simulation.trace import SimulationStats, Trace, estimate_size


M1 = Message(id="m1", sender=0, receiver=1)


class TestEstimateSize:
    def test_scalars(self):
        assert estimate_size(None) == 1
        assert estimate_size(True) == 1
        assert estimate_size(7) == 8
        assert estimate_size(3.14) == 8
        assert estimate_size("abcd") == 4

    def test_containers_recursive(self):
        assert estimate_size([1, 2]) == 8 + 16
        assert estimate_size({"a": 1}) == 8 + 1 + 8
        assert estimate_size((1, (2,))) == 8 + 8 + (8 + 8)

    def test_message(self):
        plain = estimate_size(Message(id="m1", sender=0, receiver=1))
        colored = estimate_size(Message(id="m1", sender=0, receiver=1, color="red"))
        assert colored > plain

    def test_matrix_tag_grows_with_dimensions(self):
        # 2x2 -> 8 + 2*(8 + 16) = 56; 4x4 -> 8 + 4*(8 + 32) = 168.
        assert estimate_size([[0] * 2 for _ in range(2)]) == 56
        assert estimate_size([[0] * 4 for _ in range(4)]) == 168


class TestTrace:
    def test_record_requires_registration(self):
        trace = Trace(2)
        with pytest.raises(ValueError, match="unregistered"):
            trace.record(0.0, 0, Event.invoke("m1"))

    def test_double_record_rejected(self):
        trace = Trace(2)
        trace.register_message(M1)
        trace.record(0.0, 0, Event.invoke("m1"))
        with pytest.raises(ValueError, match="twice"):
            trace.record(1.0, 0, Event.invoke("m1"))

    def test_conflicting_registration_rejected(self):
        trace = Trace(2)
        trace.register_message(M1)
        trace.register_message(M1)  # same content is fine
        with pytest.raises(ValueError, match="conflicting"):
            trace.register_message(Message(id="m1", sender=1, receiver=0))

    def test_to_system_run(self):
        trace = Trace(2)
        trace.register_message(M1)
        trace.record(0.0, 0, Event.invoke("m1"))
        trace.record(0.1, 0, Event.send("m1"))
        trace.record(1.0, 1, Event.receive("m1"))
        trace.record(1.1, 1, Event.deliver("m1"))
        run = trace.to_system_run()
        assert run.sequence(0) == [Event.invoke("m1"), Event.send("m1")]
        assert run.sequence(1) == [Event.receive("m1"), Event.deliver("m1")]
        assert run.is_complete()

    def test_to_user_run(self):
        trace = Trace(2)
        trace.register_message(M1)
        for time, proc, event in [
            (0.0, 0, Event.invoke("m1")),
            (0.1, 0, Event.send("m1")),
            (1.0, 1, Event.receive("m1")),
            (1.1, 1, Event.deliver("m1")),
        ]:
            trace.record(time, proc, event)
        user = trace.to_user_run()
        assert user.before(Event.send("m1"), Event.deliver("m1"))

    def test_undelivered_messages(self):
        trace = Trace(2)
        trace.register_message(M1)
        trace.record(0.0, 0, Event.invoke("m1"))
        assert trace.undelivered_messages() == ["m1"]

    def test_undelivered_on_partially_delivered_run(self):
        # m1 completes; m2 stalls after receive; m3 stalls after invoke.
        trace = Trace(2)
        for message in (
            M1,
            Message(id="m2", sender=0, receiver=1),
            Message(id="m3", sender=1, receiver=0),
        ):
            trace.register_message(message)
        for time, proc, event in [
            (0.0, 0, Event.invoke("m1")),
            (0.1, 0, Event.send("m1")),
            (1.0, 1, Event.receive("m1")),
            (1.1, 1, Event.deliver("m1")),
            (0.2, 0, Event.invoke("m2")),
            (0.3, 0, Event.send("m2")),
            (2.0, 1, Event.receive("m2")),
            (0.4, 1, Event.invoke("m3")),
        ]:
            trace.record(time, proc, event)
        assert trace.undelivered_messages() == ["m2", "m3"]

    def test_double_record_rejected_for_every_kind(self):
        trace = Trace(2)
        trace.register_message(M1)
        for maker in (Event.invoke, Event.send, Event.receive, Event.deliver):
            trace.record(0.0, 0, maker("m1"))
            with pytest.raises(ValueError, match="twice"):
                trace.record(1.0, 1, maker("m1"))

    def test_unregistered_rejection_leaves_trace_untouched(self):
        trace = Trace(2)
        trace.register_message(M1)
        trace.record(0.0, 0, Event.invoke("m1"))
        with pytest.raises(ValueError, match="unregistered"):
            trace.record(0.5, 0, Event.send("ghost"))
        assert len(trace) == 1
        assert not trace.has_event(Event.send("ghost"))

    def test_conflicting_registration_after_records(self):
        trace = Trace(2)
        trace.register_message(M1)
        trace.record(0.0, 0, Event.invoke("m1"))
        with pytest.raises(ValueError, match="conflicting"):
            trace.register_message(Message(id="m1", sender=0, receiver=1, color="red"))
        # The failed registration must not clobber the original message.
        assert trace.messages()[0].color is None

    def test_time_of(self):
        trace = Trace(2)
        trace.register_message(M1)
        trace.record(4.2, 0, Event.invoke("m1"))
        assert trace.time_of(Event.invoke("m1")) == 4.2


class TestSimulationStats:
    def test_means_with_no_traffic(self):
        stats = SimulationStats()
        assert stats.mean_tag_bytes == 0.0
        assert stats.mean_delivery_latency == 0.0
        assert stats.control_per_user_message() == 0.0

    def test_aggregation(self):
        stats = SimulationStats()
        registry = stats.registry
        registry.counter("messages.user").inc(4)
        registry.counter("net.control.messages").inc(8)
        registry.counter("tag.bytes").inc(40)
        for latency in (1.0, 3.0):
            registry.histogram("latency.delivery").observe(latency)
        assert stats.user_messages == 4 and type(stats.user_messages) is int
        assert stats.mean_tag_bytes == 10.0
        assert stats.mean_delivery_latency == 2.0
        assert stats.max_delivery_latency == 3.0
        assert stats.control_per_user_message() == 2.0

    def test_delivery_latency_percentile(self):
        stats = SimulationStats()
        for latency in range(1, 101):
            stats.registry.histogram("latency.delivery").observe(latency)
        assert stats.delivery_latency_percentile(50) == 50
        assert stats.delivery_latency_percentile(95) == 95
        assert stats.delivery_latency_percentile(100) == 100
        assert SimulationStats().delivery_latency_percentile(95) == 0.0
        with pytest.raises(ValueError, match="percentile"):
            stats.delivery_latency_percentile(101)

    def test_long_run_keeps_bounded_samples_and_exact_moments(self):
        deliveries = SAMPLE_LIMIT + 500
        result = run_simulation(
            make_factory(TaglessProtocol),
            random_traffic(2, deliveries, seed=3),
            seed=3,
        )
        stats = result.stats
        latencies = [
            record.time
            - result.trace.time_of(Event.send(record.event.message_id))
            for record in result.trace.records()
            if record.event.kind is EventKind.DELIVER
        ]
        assert stats.deliveries == len(latencies) == deliveries
        histogram = stats.registry.histogram("latency.delivery")
        assert len(histogram.values()) <= SAMPLE_LIMIT
        assert stats.max_delivery_latency == max(latencies)
        assert stats.mean_delivery_latency == sum(latencies) / deliveries
