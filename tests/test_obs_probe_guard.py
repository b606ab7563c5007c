"""A probe nobody subscribes to costs its site one set lookup.

:attr:`Bus.observed` names the probes with a subscriber; the host's
lifecycle sites and :meth:`Network.transmit` look their probe up there
before they read the clock or build a payload.  Three angles:

- the set follows every way of (un)subscribing, and an unknown probe
  still raises only when a wildcard subscriber would have seen it;
- a live cluster whose hosts carry the flight and metrics recorders
  and a WAL (none listens to a lifecycle probe) never calls
  :meth:`Bus.emit` for one;
- a subscriber attached mid-run gets every lifecycle probe of the
  messages invoked after it came.
"""

import pytest

from repro.net import run_cluster_sync
from repro.obs import PROBES, Bus, ProbeLog, SpanTracer
from repro.protocols import FifoProtocol, catalogue
from repro.protocols.base import make_factory
from repro.simulation import UniformLatency, random_traffic, run_simulation

LIFECYCLE = ("host.invoke", "host.release", "host.receive", "host.deliver", "net.send")


class TestObservedSet:
    def test_follows_subscribe_and_its_unsubscriber(self):
        bus = Bus()
        assert bus.observed == frozenset() and not bus.active
        first = bus.subscribe("host.deliver", lambda event: None)
        second = bus.subscribe("host.deliver", lambda event: None)
        other = bus.subscribe("net.send", lambda event: None)
        assert bus.observed == {"host.deliver", "net.send"}
        first()
        assert bus.observed == {"host.deliver", "net.send"}
        second()
        second()  # idempotent
        assert bus.observed == {"net.send"}
        other()
        assert bus.observed == frozenset() and not bus.active

    def test_follows_subscribe_all_and_its_removal(self):
        bus = Bus()
        one = bus.subscribe("retx.ack", lambda event: None)
        everything = bus.subscribe_all(lambda event: None)
        assert bus.observed == PROBES and bus.observes_all
        everything()
        assert bus.observed == {"retx.ack"} and not bus.observes_all
        one()
        assert bus.observed == frozenset()

    def test_unobserved_probe_is_not_delivered(self):
        bus = Bus()
        seen = []
        bus.subscribe("host.release", seen.append)
        bus.emit("host.deliver", 1.0, message_id="m1")
        bus.emit("host.release", 2.0, message_id="m1")
        assert [event.probe for event in seen] == ["host.release"]

    def test_unknown_probe_raises_only_when_someone_listens(self):
        bus = Bus()
        bus.emit("host.teleport", 0.0)  # nobody listens
        unsubscribe = bus.subscribe("host.deliver", lambda event: None)
        bus.emit("host.teleport", 0.0)  # nobody listens to it
        everything = bus.subscribe_all(lambda event: None)
        with pytest.raises(ValueError, match="unknown probe"):
            bus.emit("host.teleport", 0.0)
        everything()
        unsubscribe()
        bus.emit("host.teleport", 0.0)


class TestLiveCluster:
    def test_lifecycle_probes_never_reach_emit(self, monkeypatch, tmp_path):
        emitted = []
        emit = Bus.emit

        def recording(self, probe, time, **data):
            emitted.append(probe)
            emit(self, probe, time, **data)

        monkeypatch.setattr(Bus, "emit", recording)
        entry = catalogue()["fifo"]
        report = run_cluster_sync(
            entry.reliable_factory(),
            3,
            protocol_name="reliable-fifo",
            rate=250.0,
            duration=0.4,
            seed=3,
            spec=entry.spec,
            time_scale=0.001,
            observability=True,
            wal_dir=str(tmp_path),
            run_id="t-probe-guard",
        )
        assert report.clean, report.render()
        assert report.delivered == report.invoked > 0
        assert not set(LIFECYCLE) & set(emitted), sorted(set(emitted))


class TestLateSubscriber:
    def _run(self, attach):
        """A fifo run whose ``attach(bus)`` happens at the fifth delivery;
        returns what it attached and the ids invoked afterwards."""
        bus = Bus()
        state = {"deliveries": 0, "attached": None, "late": []}

        def on_deliver(event):
            state["deliveries"] += 1
            if state["deliveries"] == 5:
                state["attached"] = attach(bus)

        def on_invoke(event):
            if state["attached"] is not None:
                state["late"].append(event.data["message_id"])

        bus.subscribe("host.deliver", on_deliver)
        bus.subscribe("host.invoke", on_invoke)
        result = run_simulation(
            make_factory(FifoProtocol),
            random_traffic(3, 40, seed=5),
            seed=5,
            latency=UniformLatency(low=1.0, high=40.0),
            bus=bus,
        )
        assert result.delivered_all
        assert state["late"]
        return state["attached"], state["late"]

    def test_probe_log_gets_every_lifecycle_probe(self):
        log, late = self._run(ProbeLog)
        for message_id in late:
            probes = {
                event.probe
                for event in log.events()
                if event.data.get("message_id") == message_id
            }
            assert set(LIFECYCLE) <= probes, (message_id, probes)

    def test_span_tracer_gets_every_phase(self):
        tracer, late = self._run(SpanTracer)
        for message_id in late:
            spans = tracer.spans_of(message_id)
            assert set(spans) == {"inhibit", "transit", "buffer"}
            assert not any(span.incomplete for span in spans.values())
