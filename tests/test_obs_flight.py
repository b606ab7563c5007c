"""Flight recorder tests: the window, its serialization, and live hosts.

On a host the recorder tapes only context probes; its lifecycle records
are the tail of the host's trace, so every dump is checked against the
trace and against a tape of the host's trace records and context probes
in the order the host executed them.
"""

import asyncio
import random

import pytest

from repro.events import Event, Message
from repro.faults import FaultPlan
from repro.net import NetHost, free_ports
from repro.net.collector import stitch_flight_dumps
from repro.obs.bus import Bus
from repro.obs.flight import (
    CONTEXT_PROBES,
    LIFECYCLE_KINDS,
    FlightRecord,
    FlightRecorder,
)
from repro.protocols.registry import catalogue_entry
from repro.simulation.trace import RECEIVED, Trace


class _Clock:
    """A wall clock whose virtual time 0 is wall time 1000."""

    @staticmethod
    def wall_at(virtual):
        return 1000.0 + virtual


def _recorder(capacity, trace=None):
    bus = Bus()
    recorder = FlightRecorder(0, capacity=capacity, trace=trace, clock=_Clock())
    recorder.attach(bus)
    return bus, recorder


def _sender_side(trace, t, mid, sender=0, receiver=1):
    """Record the sender-side invoke + send of one message."""
    trace.register_message(Message(id=mid, sender=sender, receiver=receiver))
    trace.record(t, sender, Event.invoke(mid))
    trace.record(t, sender, Event.send(mid))


class TestRing:
    def test_capacity_bounds_the_ring(self):
        bus, recorder = _recorder(4)
        for index in range(10):
            bus.emit("fault.drop", float(index), message_id="m%d" % index)
        assert len(recorder) == 4
        assert recorder.recorded == 10
        assert recorder.dropped == 6
        # Oldest records are overwritten; the tail survives.
        assert [record.data["message_id"] for record in recorder.records()] == [
            "m6", "m7", "m8", "m9",
        ]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(0, capacity=0)

    def test_close_detaches_but_keeps_records(self):
        trace = Trace(2)
        bus, recorder = _recorder(8, trace)
        bus.emit("fault.drop", 1.0, message_id="m1")
        _sender_side(trace, 1.5, "m1")
        recorder.close()
        bus.emit("fault.drop", 2.0, message_id="m2")
        _sender_side(trace, 2.5, "m2")
        assert [(r.kind, r.message_id) for r in recorder.records()] == [
            ("fault.drop", "m1"), ("invoke", "m1"), ("send", "m1"),
        ]
        assert recorder.recorded == 3


class TestTraceWindow:
    def test_lifecycle_records_are_read_from_the_trace(self):
        trace = Trace(2)
        _, recorder = _recorder(8, trace)
        _sender_side(trace, 1.0, "m1")
        for mid, received, delivered in (("m2", 2.0, 3.0), ("m3", 4.0, 4.0)):
            trace.register_message(Message(id=mid, sender=1, receiver=0))
            trace.record(received, 0, Event.receive(mid))
            trace.record(delivered, 0, Event.deliver(mid))
        sent = {"message_id": "m1", "process": 0, "receiver": 1}
        m2 = {"message_id": "m2", "process": 0, "sender": 1}
        m3 = {"message_id": "m3", "process": 0, "sender": 1}
        assert [record.to_wire() for record in recorder.records()] == [
            {"seq": 0, "wall": 1001.0, "t": 1.0, "kind": "invoke", "data": sent},
            {"seq": 1, "wall": 1001.0, "t": 1.0, "kind": "send", "data": sent},
            {"seq": 2, "wall": 1002.0, "t": 2.0, "kind": "receive", "data": m2},
            {"seq": 3, "wall": 1003.0, "t": 3.0, "kind": "deliver",
             "data": dict(m2, delayed=True)},
            {"seq": 4, "wall": 1004.0, "t": 4.0, "kind": "receive", "data": m3},
            {"seq": 5, "wall": 1004.0, "t": 4.0, "kind": "deliver",
             "data": dict(m3, delayed=False)},
        ]

    def test_the_trace_is_followed_from_construction(self):
        trace = Trace(2)
        _sender_side(trace, 1.0, "m0")
        _, recorder = _recorder(8, trace)
        _sender_side(trace, 2.0, "m1")
        assert recorder.recorded == 2
        assert [r.message_id for r in recorder.records()] == ["m1", "m1"]

    @pytest.mark.parametrize("seed", range(8))
    def test_the_window_is_the_tail_of_the_taped_stream(self, seed):
        """Against a list of every record in the order it happened: the
        same records, ``seq`` its index, ``recorded``/``dropped`` its
        length less the window -- bursts of context records included."""
        rng = random.Random(seed)
        capacity = rng.choice((1, 3, 5, 16))
        trace = Trace(2)
        bus, recorder = _recorder(capacity, trace)
        taped = []
        for index in range(rng.randrange(0, 60)):
            if rng.random() < 0.4:
                mid = "m%d" % index
                _sender_side(trace, float(index), mid)
                taped += [("invoke", mid), ("send", mid)]
            else:
                for burst in range(rng.choice((1, 1, 2, capacity + 1))):
                    mid = "c%d.%d" % (index, burst)
                    bus.emit("retx.send", float(index), message_id=mid)
                    taped.append(("retx.send", mid))
        window = recorder.records()
        assert [(r.kind, r.message_id) for r in window] == taped[-capacity:]
        assert [r.seq for r in window] == list(
            range(len(taped) - len(window), len(taped))
        )
        assert recorder.recorded == len(taped)
        assert len(recorder) == len(window) == min(capacity, len(taped))
        assert recorder.dropped == len(taped) - len(window)


class TestWire:
    def _recorder_with_traffic(self):
        trace = Trace(2)
        bus, recorder = _recorder(8, trace)
        _sender_side(trace, 1.0, "m1")
        bus.emit("fault.drop", 1.5, message_id="m1", reason="random")
        return recorder

    def test_dump_round_trips(self):
        recorder = self._recorder_with_traffic()
        dump = recorder.to_wire()
        assert dump["process"] == 0
        assert dump["recorded"] == 3
        assert dump["dropped"] == 0
        decoded = FlightRecorder.records_from_wire(dump)
        assert decoded == recorder.records()

    def test_dump_is_deterministic_and_json_safe(self):
        import json

        recorder = self._recorder_with_traffic()
        first = json.dumps(recorder.to_wire(), sort_keys=True)
        second = json.dumps(recorder.to_wire(), sort_keys=True)
        assert first == second

    def test_record_from_wire_is_strict(self):
        with pytest.raises(ValueError, match="bad flight record"):
            FlightRecord.from_wire({"seq": 0})
        with pytest.raises(ValueError, match="bad flight record"):
            FlightRecord.from_wire(
                {"seq": "x", "wall": 1.0, "t": 1.0, "kind": "send"}
            )

    def test_dump_carries_no_vector_clock(self):
        dump = self._recorder_with_traffic().to_wire()
        assert "clock" not in dump
        assert [record["kind"] for record in dump["records"]] == [
            "invoke", "send", "fault.drop",
        ]
        assert all("vc" not in record for record in dump["records"])

    def test_an_older_dumps_vc_is_ignored(self):
        record = FlightRecord(
            seq=0, wall=1.0, time=2.0, kind="send", data={"message_id": "m1"}
        )
        older = dict(record.to_wire(), vc={"3": 4})
        assert FlightRecord.from_wire(older) == record


# -- live hosts ---------------------------------------------------------------


def _spawn(process_id, ports, run_id, faults=None, wal_dir=None):
    return NetHost(
        catalogue_entry("fifo").reliable_factory(),
        process_id,
        ports,
        run_id=run_id,
        faults=faults,
        wal_dir=wal_dir,
        wal_meta={"protocol": "fifo"},
    )


async def _until(condition, timeout=20.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.005)


class _Tape:
    """A host's lifecycle records and context probes, in the order the
    host executed them: ``(kind, None)`` from a trace tap beside
    ``(probe, payload)`` from the context subscriptions."""

    def __init__(self, host):
        self.events = []
        host.trace.attach_tap(
            lambda record, message: self.events.append(
                (LIFECYCLE_KINDS[record.event.kind.value], None)
            )
        )
        for probe in CONTEXT_PROBES:
            host.bus.subscribe(
                probe, lambda event: self.events.append((event.probe, event.data))
            )


async def _ring_traffic(hosts, rounds, per_round):
    """Each host sends ``per_round`` messages to the next, ``rounds``
    times, waiting for every delivery in between."""
    n = len(hosts)
    for round_ in range(rounds):
        for host in hosts:
            for index in range(per_round):
                host.invoke(
                    Message(
                        id="r%d-%d-%d" % (round_, host.process_id, index),
                        sender=host.process_id,
                        receiver=(host.process_id + 1) % n,
                    )
                )
        delivered = (round_ + 1) * per_round
        await _until(lambda: all(h.stats.deliveries == delivered for h in hosts))


def _run_three(run_id, faults, rounds=3, per_round=12):
    """A 3-host reliable-fifo run; per host: (host, its tape, 16-record
    recorder)."""

    async def scenario():
        ports = free_ports(3)
        hosts = [_spawn(i, ports, run_id, faults) for i in range(3)]
        taps = []
        try:
            for host in hosts:
                small = FlightRecorder(
                    host.process_id, capacity=16, trace=host.trace, clock=host.clock
                )
                small.attach(host.bus)
                taps.append((host, _Tape(host), small))
                await host.start()
            await asyncio.gather(*(host.ready() for host in hosts))
            await _ring_traffic(hosts, rounds, per_round)
            # Let the last acks land, so no retransmission is pending.
            await _until(
                lambda: not any(
                    any(h.host.protocol._unacked.values()) for h in hosts
                )
            )
            return [
                (host, tape, small, host.trace_body(), small.to_wire())
                for host, tape, small in taps
            ]
        finally:
            for host in hosts:
                await host.shutdown()

    return asyncio.run(scenario())


class TestLiveHosts:
    def test_each_dump_is_the_trace_tail_with_its_context_records(self):
        # Host 0's third and ninth packets to host 1 are lost, so the
        # ARQ's retransmissions land inside the window.
        plan = FaultPlan(script={(0, 1, 2): "drop", (0, 1, 8): "drop"})
        retransmitted = []
        for host, tape, small, body, small_dump in _run_three("t-flight", plan):
            assert host.errors == []
            records = FlightRecorder.records_from_wire(body["flight"])
            trace_records = host.trace.records()
            # Nothing slid out: the dump is every record, in host order.
            assert body["flight"]["recorded"] == len(records) == len(tape.events)
            assert body["flight"]["dropped"] == 0
            assert [r.seq for r in records] == list(range(len(records)))
            lifecycle = [r for r in records if r.kind in LIFECYCLE_KINDS]
            assert len(lifecycle) == len(trace_records)
            for record, (kind, payload) in zip(records, tape.events):
                assert record.kind == kind
                if payload is not None:
                    assert record.data == payload
                assert record.wall == host.clock.wall_at(record.time)
            for record, traced in zip(lifecycle, trace_records):
                message = host.trace.message(traced.event.message_id)
                assert record.time == traced.time
                assert record.message_id == message.id
                assert record.data["process"] == traced.process == host.process_id
                if record.kind in ("invoke", "send"):
                    assert record.data["receiver"] == message.receiver
                else:
                    assert record.data["sender"] == message.sender
                if record.kind == "deliver":
                    received = host.trace.row(message.id)[RECEIVED].time
                    assert record.data["delayed"] == (traced.time > received)
            kinds = [r.kind for r in records]
            if "retx.send" in kinds:
                retransmitted.append(host.process_id)
                first = kinds.index("retx.send")
                assert "deliver" in kinds[:first] and "invoke" in kinds[first:]
            # A 16-record window over the same stream is its tail.
            assert len(small) == len(small_dump["records"]) == 16
            assert small_dump["dropped"] == small_dump["recorded"] - 16
            assert small_dump["recorded"] == len(records)
            assert FlightRecorder.records_from_wire(small_dump) == records[-16:]
        assert 0 in retransmitted  # the sender losing packets

    def test_a_fault_free_run_leaves_the_ring_empty(self):
        for host, tape, _, body, _ in _run_three("t-flight-clean", None, rounds=1):
            assert host.errors == []
            assert not [kind for kind, payload in tape.events if payload is not None]
            assert len(host.flight._ring) == 0
            assert body["flight"]["recorded"] == len(host.trace) > 0

    def test_a_send_record_carries_no_tag_bytes(self):
        """The stitched inhibit span has no ``tag_bytes``; the host's
        ``tag.bytes.per_message`` histogram keeps the fact."""
        results = _run_three("t-flight-tags", None, rounds=1, per_round=4)
        stitched = stitch_flight_dumps([body for *_, body, _ in results], 3)
        inhibits = [
            event
            for event in stitched["traceEvents"]
            if event.get("ph") == "X" and event.get("cat") == "inhibit"
        ]
        assert len(inhibits) == 12
        assert not [event for event in inhibits if "tag_bytes" in event["args"]]
        for host, *_ in results:
            sizes = host.stats.registry.get("tag.bytes.per_message")
            assert sizes.count == host.stats.user_messages == 4

    def test_a_recovered_hosts_replayed_records_sit_outside_the_window(
        self, tmp_path
    ):
        async def scenario():
            ports = free_ports(2)
            hosts = [_spawn(i, ports, "t-wal", wal_dir=str(tmp_path)) for i in range(2)]
            try:
                for host in hosts:
                    await host.start()
                await asyncio.gather(*(host.ready() for host in hosts))
                for index in range(5):
                    hosts[0].invoke(Message(id="w%d" % index, sender=0, receiver=1))
                await _until(lambda: hosts[1].stats.deliveries == 5)
                await hosts[1].crash()
                hosts[1] = _spawn(1, ports, "t-wal", wal_dir=str(tmp_path))
                recovered = hosts[1]
                replayed = (len(recovered.trace), recovered.flight.recorded)
                await recovered.start()
                await asyncio.gather(*(host.ready() for host in hosts))
                hosts[0].invoke(Message(id="w5", sender=0, receiver=1))
                await _until(lambda: recovered.stats.deliveries == 6)
                return recovered.recovered, replayed, recovered.flight.records()
            finally:
                for host in hosts:
                    await host.shutdown()

        recovered, replayed, records = asyncio.run(scenario())
        assert recovered and replayed == (10, 0)
        lifecycle = [r for r in records if r.kind in LIFECYCLE_KINDS]
        assert [(r.kind, r.message_id) for r in lifecycle] == [
            ("receive", "w5"), ("deliver", "w5"),
        ]
