"""Tests for the liveness watchdog."""

from repro.events import Event, Message
from repro.obs import Bus, MetricsRecorder, Watchdog
from repro.protocols import FifoProtocol
from repro.protocols.base import Protocol, make_factory
from repro.simulation import Trace, UniformLatency, random_traffic, run_simulation


class NeverRelease(Protocol):
    """Inhibits every send forever (deliberately not live)."""

    name = "never-release"

    def on_invoke(self, ctx, message):
        """Swallow the invoke without releasing."""

    def blocking_reason(self, message_id):
        """Pretend to wait on an oracle."""
        return "waiting for an oracle"


class NeverDeliver(Protocol):
    """Releases immediately but buffers every arrival forever."""

    name = "never-deliver"

    def on_invoke(self, ctx, message):
        """Release straight away."""
        ctx.release(message)

    def on_user_message(self, ctx, message, tag):
        """Swallow the arrival without delivering."""


def _watched_run(protocol_cls, messages=6, seed=3):
    bus = Bus()
    watchdog = Watchdog(bus)
    result = run_simulation(
        make_factory(protocol_cls),
        random_traffic(3, messages, seed=seed),
        seed=seed,
        latency=UniformLatency(low=1.0, high=10.0),
        bus=bus,
    )
    return watchdog, result


class TestWatchdog:
    def test_live_run_reports_nothing(self):
        watchdog, result = _watched_run(FifoProtocol, messages=20)
        assert result.delivered_all
        assert watchdog.stuck(result.trace) == []
        assert watchdog.render(result.trace, protocols=result.protocols) == ""

    def test_inhibited_messages_diagnosed_at_sender(self):
        watchdog, result = _watched_run(NeverRelease)
        stuck = watchdog.stuck(result.trace)
        assert sorted(report.message_id for report in stuck) == sorted(
            result.undelivered
        )
        for report in stuck:
            assert report.phase == "inhibited"
            assert report.reason == "protocol never released the send"

    def test_protocol_hook_refines_the_reason(self):
        watchdog, result = _watched_run(NeverRelease)
        for report in watchdog.stuck(result.trace, protocols=result.protocols):
            assert report.reason == "waiting for an oracle"
        rendered = watchdog.render(result.trace, protocols=result.protocols)
        assert "stuck" in rendered
        assert "waiting for an oracle" in rendered

    def test_buffered_messages_diagnosed_at_receiver(self):
        watchdog, result = _watched_run(NeverDeliver)
        stuck = watchdog.stuck(result.trace)
        assert stuck, "never-deliver runs must strand messages"
        trace_receivers = {
            message.id: message.receiver for message in result.trace.messages()
        }
        for report in stuck:
            assert report.phase == "buffered"
            assert report.process == trace_receivers[report.message_id]
            assert "never delivered" in report.reason

    def test_diagnosis_needs_no_bus(self):
        # The phases come from the trace; the bus only attributes loss.
        watchdog, result = _watched_run(NeverDeliver)
        assert Watchdog().stuck(result.trace) == watchdog.stuck(result.trace)

    def test_receiver_side_trace_reports_after_invoked_messages(self):
        # A TCP host's trace holds a peer's message from its receive on.
        trace = Trace(2)
        for message in (Message("m1", 1, 0), Message("m2", 0, 1)):
            trace.register_message(message)
        trace.record(1.0, 0, Event.receive("m1"))
        trace.record(2.0, 0, Event.invoke("m2"))
        trace.record(3.0, 0, Event.send("m2"))
        stuck = Watchdog().stuck(trace)
        assert [(s.message_id, s.phase, s.process, s.since) for s in stuck] == [
            ("m2", "in-flight", 0, 3.0),
            ("m1", "buffered", 0, 1.0),
        ]
        assert stuck[0].reason == "released but never arrived at P1"

    def test_a_bus_of_host_probes_leaves_no_state(self):
        bus = Bus()
        watchdog, recorder = Watchdog(bus), MetricsRecorder(bus)
        assert not any(
            handlers for probe, handlers in bus._handlers.items()
            if probe.startswith("host.")
        )
        for probe, data in (
            ("host.invoke", {"receiver": 1}),
            ("host.inhibit", {}),
            ("host.release", {"receiver": 1, "tag_bytes": 8}),
            ("host.receive", {"sender": 0}),
            ("host.deliver", {"sender": 0, "delayed": False}),
        ):
            bus.emit(probe, 1.0, message_id="m1", process=0, **data)
        assert vars(watchdog) == {
            "_dropped": {},
            "_retransmits": {},
            "_unsubscribers": watchdog._unsubscribers,
        }
        assert recorder.registry.names() == []

    def test_describe_is_one_line(self):
        watchdog, result = _watched_run(NeverRelease)
        line = watchdog.stuck(result.trace)[0].describe()
        assert "\n" not in line
        assert "inhibited" in line and "since t=" in line


class TestFifoBlockingReason:
    def test_names_the_sequence_gap(self):
        protocol = FifoProtocol()
        held = type("M", (), {"id": "m9"})()
        protocol._held[(0, 2)] = held
        assert protocol.blocking_reason("m9") == (
            "holding seq 2 from P0, waiting for seq 0"
        )
        assert protocol.blocking_reason("other") is None
