"""WAL record framing and segment mechanics (repro.wal)."""

import os
import struct
import zlib

import pytest

from repro.events import Event, Message
from repro.simulation.network import Packet
from repro.simulation.trace import TraceRecord
from repro.wal import (
    SegmentWriter,
    WalRecord,
    content_id,
    decode_record,
    encode_record,
    read_log,
    read_segment,
)
from repro.wal.records import (
    CHECKPOINT,
    EVENT,
    FAULT,
    INPUT,
    META,
    RETX,
    TIMER,
    WAL_VERSION,
    UnknownWalVersion,
    WalCorrupt,
    WalError,
    WalTruncated,
    checkpoint_record,
    event_record,
    invoke_record,
    meta_record,
    packet_record,
    probe_record,
    resolve_events,
    resolve_inputs,
)


def _message(mid="m1", **overrides):
    fields = dict(id=mid, sender=0, receiver=1)
    fields.update(overrides)
    return Message(**fields)


class TestContentId:
    def test_deterministic_across_equal_content(self):
        assert content_id(_message()) == content_id(_message())

    def test_sensitive_to_every_field(self):
        base = content_id(_message())
        assert content_id(_message(mid="m2")) != base
        assert content_id(_message(receiver=2)) != base
        assert content_id(_message(color="red")) != base
        assert content_id(_message(payload=("x", 1))) != base

    def test_short_stable_hex(self):
        cid = content_id(_message())
        assert len(cid) == 16
        int(cid, 16)  # hex


class TestFraming:
    def test_round_trip(self):
        record = WalRecord(kind=META, body={"run": "r1", "n": 3})
        decoded, offset = decode_record(encode_record(record))
        assert decoded == record
        assert offset == len(encode_record(record))

    def test_unknown_kind_rejected_at_encode(self):
        with pytest.raises(WalError, match="kind"):
            encode_record(WalRecord(kind=99, body={}))

    def test_truncated_length_prefix(self):
        encoded = encode_record(WalRecord(kind=META, body={}))
        with pytest.raises(WalTruncated):
            decode_record(encoded[:3])

    def test_truncated_body(self):
        encoded = encode_record(WalRecord(kind=META, body={"a": 1}))
        with pytest.raises(WalTruncated):
            decode_record(encoded[:-1])

    def test_future_version_refused(self):
        encoded = bytearray(encode_record(WalRecord(kind=META, body={})))
        encoded[4] = WAL_VERSION + 1  # version byte follows the length
        with pytest.raises(UnknownWalVersion):
            decode_record(bytes(encoded))

    def test_flipped_body_bit_fails_crc(self):
        encoded = bytearray(encode_record(WalRecord(kind=META, body={"a": 1})))
        encoded[-1] ^= 0x40
        with pytest.raises(WalCorrupt, match="crc"):
            decode_record(bytes(encoded))

    def test_implausible_size_is_corrupt_not_crash(self):
        with pytest.raises(WalCorrupt, match="size"):
            decode_record(struct.pack("!I", 2**31) + b"\x00" * 64)

    @pytest.mark.parametrize(
        "value", ['{"D":[[{"L":[1]},2]]}', '{"S":[{"L":[1]}]}']
    )
    def test_an_unhashable_member_is_corrupt_not_a_type_error(self, value):
        """A dict key or set member that decodes to a list: a well-framed,
        well-checksummed body the value encoding cannot hold."""
        body = ('{"D":[["t",1.0],["x",%s]]}' % value).encode()
        head = struct.pack("!BBI", WAL_VERSION, CHECKPOINT, zlib.crc32(body))
        record = struct.pack("!I", len(head) + len(body)) + head + body
        with pytest.raises(WalCorrupt, match="unhashable"):
            decode_record(record)

    def test_consecutive_records_share_a_buffer(self):
        a = WalRecord(kind=META, body={"i": 1})
        b = WalRecord(kind=CHECKPOINT, body={"i": 2})
        buffer = encode_record(a) + encode_record(b)
        first, offset = decode_record(buffer)
        second, end = decode_record(buffer, offset)
        assert (first, second) == (a, b)
        assert end == len(buffer)


class TestEventRecords:
    def test_round_trip_with_vector_clock(self):
        message = _message(payload=("p", 2), color="red")
        trace_record = TraceRecord(
            time=3.5, process=1, event=Event.deliver("m1"), sequence=7
        )
        # No writer stamps ``vc`` (none did on a live run); a stored
        # version-1 log may hold it and every reader tolerates it.
        record = event_record(trace_record, message)
        record = WalRecord(EVENT, dict(record.body, vc={0: 2, 1: 5}))
        assert record.kind == EVENT
        decoded, _ = decode_record(encode_record(record))
        ((t, p, event, rebuilt),) = resolve_events([decoded])
        assert (t, p) == (3.5, 1)
        assert event == Event.deliver("m1")
        assert rebuilt == message
        assert decoded.body["vc"] == {0: 2, 1: 5}

    def test_tampered_message_fails_content_check(self):
        record = event_record(
            TraceRecord(time=0.0, process=0, event=Event.send("m1"), sequence=0),
            _message(),
        )
        body = dict(record.body)
        wire = dict(body["m"])
        wire["receiver"] = 2
        body["m"] = wire
        with pytest.raises(WalCorrupt, match="content id"):
            list(resolve_events([WalRecord(EVENT, body)]))
        # verify=False trusts the stored bytes (replay fast path).
        ((_, _, _, message),) = resolve_events([WalRecord(EVENT, body)], verify=False)
        assert message.receiver == 2


class TestInputRecords:
    def test_invoke_round_trip(self):
        message = _message(payload=(1, "x"))
        record = invoke_record(2.0, 0, message)
        assert record.kind == INPUT
        decoded, _ = decode_record(encode_record(record))
        ((op, t, process, payload),) = resolve_inputs([decoded])
        assert (op, t, process) == ("invoke", 2.0, 0)
        assert payload == message

    def test_user_packet_round_trip_preserves_tag_and_seq(self):
        packet = Packet(
            src=0,
            dst=1,
            kind="user",
            message=_message(),
            tag=("rdata", 4, (1, 2)),
            send_time=1.25,
            uid=17,
            channel_seq=4,
        )
        decoded, _ = decode_record(encode_record(packet_record(3.0, 1, packet)))
        ((op, t, process, rebuilt),) = resolve_inputs([decoded])
        assert (op, t, process) == ("packet", 3.0, 1)
        assert rebuilt.is_user
        assert rebuilt.message == packet.message
        assert rebuilt.tag == ("rdata", 4, (1, 2))
        assert rebuilt.send_time == 1.25
        assert (rebuilt.uid, rebuilt.channel_seq) == (17, 4)

    def test_control_packet_round_trip(self):
        packet = Packet(
            src=1, dst=0, kind="control", payload={"acks": [3], "win": (5,)}
        )
        decoded, _ = decode_record(encode_record(packet_record(0.5, 0, packet)))
        ((op, _, _, rebuilt),) = resolve_inputs([decoded])
        assert op == "packet"
        assert not rebuilt.is_user
        assert rebuilt.payload == {"acks": [3], "win": (5,)}

    def test_unknown_op_rejected(self):
        with pytest.raises(WalCorrupt, match="op"):
            list(resolve_inputs([WalRecord(INPUT, {"op": "mystery", "t": 0.0, "p": 0})]))


class TestProbeAndCheckpointRecords:
    def test_probe_kinds_enforced(self):
        record = probe_record(RETX, 1.0, 2, "retx.send", {"dst": 1})
        assert record.kind == RETX
        for kind in (FAULT, TIMER):
            assert probe_record(kind, 0.0, 0, "x", {}).kind == kind
        with pytest.raises(WalError, match="FAULT, RETX or TIMER"):
            probe_record(EVENT, 0.0, 0, "x", {})

    def test_checkpoint_carries_fields_and_time(self):
        record = checkpoint_record(9.0, {"requested": 120, "done": True})
        decoded, _ = decode_record(encode_record(record))
        assert decoded.kind == CHECKPOINT
        assert decoded.body["requested"] == 120
        assert decoded.body["done"] is True
        assert decoded.body["t"] == 9.0

    def test_meta_stamps_format_version(self):
        assert meta_record({"run": "r"}).body["format"] == WAL_VERSION


class TestSegmentWriter:
    def _writer(self, directory, **kwargs):
        kwargs.setdefault("fsync", False)
        kwargs.setdefault(
            "header_factory", lambda index: meta_record({"segment": index})
        )
        return SegmentWriter(str(directory), **kwargs)

    def test_append_read_round_trip(self, tmp_path):
        writer = self._writer(tmp_path)
        for index in range(5):
            writer.append(WalRecord(kind=CHECKPOINT, body={"i": index}))
        writer.close()
        log = read_log(str(tmp_path))
        assert log.tail_dropped == 0
        assert [r.kind for r in log.records] == [META] + [CHECKPOINT] * 5
        assert [r.body["i"] for r in log.records[1:]] == list(range(5))

    def test_rotation_when_segment_fills(self, tmp_path):
        writer = self._writer(tmp_path, max_segment_bytes=256)
        for index in range(30):
            writer.append(WalRecord(kind=CHECKPOINT, body={"i": index}))
        writer.close()
        log = read_log(str(tmp_path))
        assert len(log.segments) > 1
        assert writer.rotations == len(log.segments) - 1
        # Every segment leads with its own self-describing header.
        for path in log.segments:
            records, _ = read_segment(path)
            assert records[0].kind == META
        # Record order survives rotation.
        payloads = [r.body["i"] for r in log.records if r.kind == CHECKPOINT]
        assert payloads == list(range(30))

    def test_sync_batching_counts(self, tmp_path):
        writer = self._writer(tmp_path, sync_every=4)
        for index in range(10):
            writer.append(WalRecord(kind=CHECKPOINT, body={"i": index}))
        assert writer.syncs == 2  # 8 of 10 records hit the batch boundary
        writer.close()
        assert writer.syncs == 3  # close flushes the remainder

    def test_new_writer_never_appends_into_old_segment(self, tmp_path):
        first = self._writer(tmp_path)
        first.append(WalRecord(kind=CHECKPOINT, body={"i": 0}))
        first.close()
        second = self._writer(tmp_path)
        second.append(WalRecord(kind=CHECKPOINT, body={"i": 1}))
        second.close()
        log = read_log(str(tmp_path))
        assert len(log.segments) == 2
        assert [r.body["i"] for r in log.records if r.kind == CHECKPOINT] == [0, 1]

    def test_closed_writer_refuses_appends(self, tmp_path):
        writer = self._writer(tmp_path)
        writer.close()
        writer.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            writer.append(WalRecord(kind=CHECKPOINT, body={}))


class TestTornTailReads:
    def _segment_with_torn_tail(self, tmp_path, cut):
        writer = SegmentWriter(str(tmp_path), fsync=False)
        for index in range(3):
            writer.append(WalRecord(kind=CHECKPOINT, body={"i": index}))
        writer.close()
        (path,) = read_log(str(tmp_path)).segments
        with open(path, "rb") as handle:
            buffer = handle.read()
        with open(path, "wb") as handle:
            handle.write(buffer[:cut])
        return path, len(buffer) - cut

    def test_torn_final_record_dropped_not_fatal(self, tmp_path):
        path, _ = self._segment_with_torn_tail(tmp_path, cut=-3)
        records, dropped = read_segment(path)
        assert [r.body["i"] for r in records] == [0, 1]
        assert dropped > 0
        # Strict mode still tolerates the torn tail: it is the expected
        # crash artifact, not damage.
        strict_records, _ = read_segment(path, strict=True)
        assert strict_records == records

    def test_mid_segment_corruption_salvages_prefix(self, tmp_path):
        writer = SegmentWriter(str(tmp_path), fsync=False)
        for index in range(3):
            writer.append(WalRecord(kind=CHECKPOINT, body={"i": index}))
        writer.close()
        (path,) = read_log(str(tmp_path)).segments
        with open(path, "r+b") as handle:
            buffer = handle.read()
            first = len(encode_record(WalRecord(kind=CHECKPOINT, body={"i": 0})))
            handle.seek(first - 1)  # inside the first record's body
            handle.write(b"\xff")
        records, dropped = read_segment(path)
        assert records == []  # nothing decodable past the damage
        assert dropped == len(buffer)
        with pytest.raises(WalCorrupt):
            read_segment(path, strict=True)

    def test_unknown_version_at_head_always_raises(self, tmp_path):
        path = os.path.join(str(tmp_path), "wal-00000000.seg")
        encoded = bytearray(
            encode_record(WalRecord(kind=META, body={"run": "r"}))
        )
        encoded[4] = WAL_VERSION + 1
        with open(path, "wb") as handle:
            handle.write(bytes(encoded))
        with pytest.raises(UnknownWalVersion):
            read_segment(path)

    def test_missing_directory_reads_empty(self, tmp_path):
        log = read_log(str(tmp_path / "nothing-here"))
        assert log.records == [] and log.segments == []
