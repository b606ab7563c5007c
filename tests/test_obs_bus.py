"""Tests for the instrumentation bus and its probe contract."""

import pytest

from repro.obs import PROBES, Bus, MetricsRecorder, ProbeEvent, Watchdog
from repro.obs.flight import CONTEXT_PROBES
from repro.wal.sink import _PROBE_KINDS


class TestBus:
    def test_starts_inactive(self):
        bus = Bus()
        assert not bus.active
        bus.emit("timer.fire", 0.0, process=0)  # swallowed, no error

    def test_subscribe_and_emit(self):
        bus = Bus()
        seen = []
        bus.subscribe("retx.send", seen.append)
        assert bus.active
        bus.emit("retx.send", 1.5, message_id="m1", process=0, kind="user")
        bus.emit("timer.fire", 2.0, process=0)  # different probe
        assert len(seen) == 1
        event = seen[0]
        assert isinstance(event, ProbeEvent)
        assert event.probe == "retx.send"
        assert event.time == 1.5
        assert event.field_value("kind") == "user"
        assert event.field_value("missing", 42) == 42

    def test_subscribe_unknown_probe_rejected(self):
        bus = Bus()
        with pytest.raises(ValueError, match="unknown probe"):
            bus.subscribe("host.teleport", lambda event: None)
        with pytest.raises(ValueError, match="unknown probe"):
            bus.subscribe("host.deliver", lambda event: None)  # retired

    def test_emit_of_a_name_nobody_observes_is_a_no_op(self):
        bus = Bus()
        seen = []
        bus.subscribe("timer.fire", seen.append)
        bus.emit("host.teleport", 0.0)  # unknown
        bus.emit("host.deliver", 0.0, message_id="m1")  # retired
        bus.emit("fault.drop", 0.0, message_id="m1")  # known, unobserved
        assert seen == []

    def test_unsubscribe_restores_inactive(self):
        bus = Bus()
        unsubscribe = bus.subscribe("timer.fire", lambda event: None)
        assert bus.active
        unsubscribe()
        assert not bus.active
        unsubscribe()  # idempotent

    def test_probe_set_is_the_documented_contract(self):
        assert PROBES == {
            "host.inhibit",
            "fault.drop",
            "fault.dup",
            "fault.partition",
            "fault.spike",
            "crash",
            "restart",
            "retx.send",
            "retx.ack",
            "retx.dup",
            "timer.fire",
            "link.up",
            "link.suspect",
            "link.down",
            "link.redial",
            "link.giveup",
            "net.shed",
            "net.backpressure",
        }

    def test_every_probe_has_a_subscriber(self):
        """The bus carries only what something reads: the WAL sink, the
        metrics recorder, the watchdog and the flight recorder's context
        stream subscribe to all of :data:`PROBES` between them, and to
        nothing else."""
        bus = Bus()
        MetricsRecorder(bus)
        Watchdog(bus)
        subscribed = bus.observed | set(_PROBE_KINDS) | set(CONTEXT_PROBES)
        assert subscribed == PROBES
