"""A probe nobody subscribes to costs its site one set lookup.

:attr:`Bus.observed` names the probes with a subscriber; the host's
probe sites look their probe up there before they read the clock or
build a payload.  Two angles:

- the set follows every way of (un)subscribing, and emitting a name
  nobody observes is a no-op, whatever the name;
- a live cluster whose hosts carry the flight and metrics recorders
  and a WAL never calls :meth:`Bus.emit` for a probe nobody observes.
"""

from repro.net import run_cluster_sync
from repro.obs import Bus
from repro.protocols import catalogue


class TestObservedSet:
    def test_follows_subscribe_and_its_unsubscriber(self):
        bus = Bus()
        assert bus.observed == frozenset() and not bus.active
        first = bus.subscribe("host.inhibit", lambda event: None)
        second = bus.subscribe("host.inhibit", lambda event: None)
        other = bus.subscribe("retx.send", lambda event: None)
        assert bus.observed == {"host.inhibit", "retx.send"}
        first()
        assert bus.observed == {"host.inhibit", "retx.send"}
        second()
        second()  # idempotent
        assert bus.observed == {"retx.send"}
        other()
        assert bus.observed == frozenset() and not bus.active

    def test_unobserved_probe_is_not_delivered(self):
        bus = Bus()
        seen = []
        bus.subscribe("retx.send", seen.append)
        bus.emit("timer.fire", 1.0, process=0)
        bus.emit("retx.send", 2.0, message_id="m1")
        assert [event.probe for event in seen] == ["retx.send"]

    def test_an_unknown_probe_is_a_no_op_even_with_listeners(self):
        bus = Bus()
        bus.emit("host.teleport", 0.0)  # nobody listens
        unsubscribe = bus.subscribe("timer.fire", lambda event: None)
        bus.emit("host.teleport", 0.0)  # nobody listens to it
        unsubscribe()
        bus.emit("host.teleport", 0.0)


class TestLiveCluster:
    def test_only_observed_probes_reach_emit(self, monkeypatch, tmp_path):
        emitted = []
        emit = Bus.emit

        def recording(self, probe, time, **data):
            emitted.append((probe, probe in self.observed))
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
        assert report.ok, report.render()
        assert report.delivered == report.invoked > 0
        assert emitted  # the ARQ's timers fire and the WAL listens
        assert all(observed for _, observed in emitted), sorted(set(emitted))
