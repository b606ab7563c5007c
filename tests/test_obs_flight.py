"""Flight recorder tests: ring bounds and serialization."""

import pytest

from repro.obs.bus import Bus
from repro.obs.flight import FlightRecord, FlightRecorder


def _wall_from(start=1000.0, step=0.001):
    """A deterministic wall clock advancing ``step`` per call."""
    state = {"now": start - step}

    def wall():
        state["now"] += step
        return state["now"]

    return wall


def _lifecycle(bus, t, mid, sender, receiver):
    """Emit the sender-side invoke + release probes of one message."""
    bus.emit("host.invoke", t, message_id=mid, process=sender, receiver=receiver)
    bus.emit(
        "host.release", t, message_id=mid, process=sender, receiver=receiver,
        tag_bytes=0,
    )


class TestRing:
    def test_capacity_bounds_the_ring(self):
        bus = Bus()
        recorder = FlightRecorder(0, capacity=4, wall=_wall_from())
        recorder.attach(bus)
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
        bus = Bus()
        recorder = FlightRecorder(0, capacity=8, wall=_wall_from())
        recorder.attach(bus)
        bus.emit("fault.drop", 1.0, message_id="m1")
        recorder.close()
        bus.emit("fault.drop", 2.0, message_id="m2")
        assert [r.data["message_id"] for r in recorder.records()] == ["m1"]


class TestWire:
    def _recorder_with_traffic(self):
        bus = Bus()
        recorder = FlightRecorder(0, capacity=8, wall=_wall_from())
        recorder.attach(bus)
        _lifecycle(bus, 1.0, "m1", 0, 1)
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
