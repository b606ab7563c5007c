"""Wire-codec tests: round trips for every frame kind, strict errors."""

import asyncio
import struct

import pytest

from repro.events import Event, Message
from repro.net import codec
from repro.simulation.trace import TraceRecord
from repro.wal import records as wal_records
from tests.frame_client import FakeTransport, feed


def _sample_bodies():
    """One representative body per frame kind."""
    sample = Message(id="m1", sender=0, receiver=1, color="red", payload=(1, "a"))
    message = codec.message_to_wire(sample)
    deliver = TraceRecord(time=3.0, sequence=0, process=1, event=Event.deliver("m1"))
    return {
        codec.HELLO: {"process": 2, "role": "peer", "run": "r1"},
        codec.READY: {"process": 2, "processes": 3},
        codec.USER: dict(
            message, src=0, dst=1, tag=codec.encode_value((3, 4)), sent=1.5,
            invoked=1.0,
        ),
        codec.CONTROL: {
            "src": 1,
            "dst": 0,
            "payload": codec.encode_value({"acks": [1, 2]}),
            "sent": 2.0,
        },
        codec.STATS: {"deliveries": 7, "latencies": codec.encode_value([0.1])},
        codec.DRAIN: {},
        codec.BYE: {},
        codec.TRACE: {
            "process": 1,
            "wall": 1700000000.5,
            "virtual": 12.0,
            "time_scale": 0.01,
            "flight": {
                "process": 1,
                "capacity": 8,
                "recorded": 1,
                "dropped": 0,
                "records": [
                    {
                        "seq": 0,
                        "wall": 1700000000.25,
                        "t": 11.5,
                        "kind": "send",
                        "data": {"message_id": "m1", "process": 1},
                    }
                ],
            },
        },
        codec.METRICS: {
            "process": 1,
            "wall": 1700000000.5,
            "text": "# EOF\n",
            "snapshot": {"messages.delivered": {"kind": "counter", "value": 7}},
        },
        codec.HEARTBEAT: {"process": 0, "n": 42, "echo": True},
        codec.BACKPRESSURE: {"process": 1, "state": "high", "pending": 5000},
        codec.USER_BATCH: {
            "src": 0,
            "dst": 1,
            "rows": [["m1", 0, 1, "k3", 0, 1700000000.0, 1700000000.1]],
        },
        codec.INVOKE_BATCH: {
            "rows": [["m1", 0, 1, "k3", 0.5, None], ["m2", 1, 0, None, 0.5, "red"]],
        },
        codec.COLLECT: {"shard": 0, "rows": [], "done": True},
        codec.RECORDS: wal_records.encode_record(
            wal_records.event_record(deliver, sample)
        ),
    }


class TestFrameRoundTrips:
    @pytest.mark.parametrize("kind", sorted(codec.FRAME_KINDS))
    def test_every_frame_kind_round_trips(self, kind):
        body = _sample_bodies()[kind]
        data = codec.encode_frame(kind, body)
        frame, consumed = codec.decode_frame(data)
        assert consumed == len(data)
        assert frame.kind == kind
        assert frame.body == body
        assert frame.kind_name == codec.KIND_NAMES[kind]

    def test_frames_concatenate_on_a_stream(self):
        data = b"".join(
            codec.encode_frame(kind, body)
            for kind, body in sorted(_sample_bodies().items())
        )
        decoder = codec.FrameDecoder()
        # Feed one byte at a time: the decoder must handle any chunking.
        frames = []
        for index in range(len(data)):
            frames.extend(decoder.feed(data[index : index + 1]))
        assert [f.kind for f in frames] == sorted(codec.FRAME_KINDS)
        decoder.eof()  # clean boundary: no error

    def test_encode_unknown_kind_rejected(self):
        with pytest.raises(codec.UnknownFrameKind):
            codec.encode_frame(99, {})


class TestValueEncoding:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            7,
            2.5,
            "text",
            (1, 2, (3, "x")),
            [1, [2]],
            {"a": 1, 2: "b", (3, 4): "c"},
            {1, 2, 3},
            frozenset({(1, 2)}),
            {"matrix": ((0, 1), (2, 3))},
        ],
    )
    def test_round_trip(self, value):
        assert codec.decode_value(codec.encode_value(value)) == value

    def test_tuple_and_list_stay_distinct(self):
        assert codec.decode_value(codec.encode_value((1,))) == (1,)
        assert codec.decode_value(codec.encode_value([1])) == [1]

    def test_unencodable_type_raises(self):
        with pytest.raises(codec.CodecError, match="not wire-encodable"):
            codec.encode_value(object())

    def test_undecodable_wrapper_raises(self):
        with pytest.raises(codec.MalformedFrame, match="container tag"):
            codec.decode_value({"Z": []})
        with pytest.raises(codec.MalformedFrame, match="exactly one tag"):
            codec.decode_value({"T": [], "L": []})

    def test_message_round_trip(self):
        message = Message(
            id="m9", sender=2, receiver=0, group="g1", payload={"k": (1, 2)}
        )
        assert codec.message_from_wire(codec.message_to_wire(message)) == message

    def test_malformed_message_raises(self):
        with pytest.raises(codec.MalformedFrame, match="bad message fields"):
            codec.message_from_wire({"id": "m1"})  # sender/receiver missing


class TestNonFiniteFloats:
    """JSON bodies and packet heads refuse NaN/inf; a packet's sections
    are ``dumps_value`` text, whose spelling test_wal_bytes pins."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_frames_reject_them(self, value):
        with pytest.raises(ValueError, match="Out of range float"):
            codec.encode_frame(codec.STATS, {"payload": value})
        with pytest.raises(ValueError, match="Out of range float"):
            codec.encode_frame(codec.CONTROL, {"src": 0, "dst": 1, "sent": value}, (None, 1))

    def test_finite_floats_keep_their_spelling(self):
        frame = codec.encode_frame(codec.STATS, {"payload": [-0.0, 1e16, 0.1]})
        assert frame[6:] == b'{"payload":[-0.0,1e+16,0.1]}'
        control = codec.encode_frame(codec.CONTROL, {}, (None, [-0.0, 1e16, 0.1]))
        assert control.endswith(b'{"L":[-0.0,1e+16,0.1]}')


class TestStrictDecodeErrors:
    def _frame(self):
        return codec.encode_frame(codec.HELLO, {"process": 0, "role": "peer"})

    def test_truncated_prefix(self):
        with pytest.raises(codec.FrameTruncated, match="length prefix"):
            codec.decode_frame(b"\x00\x00")

    def test_truncated_body(self):
        data = self._frame()
        with pytest.raises(codec.FrameTruncated, match="only"):
            codec.decode_frame(data[:-3])

    def test_oversized_length_prefix(self):
        data = struct.pack("!I", codec.MAX_FRAME_BYTES + 1) + b"xx"
        with pytest.raises(codec.FrameOversized, match="exceeding"):
            codec.decode_frame(data)

    def test_oversized_encode(self):
        with pytest.raises(codec.FrameOversized):
            codec.encode_frame(codec.STATS, {"blob": "x" * codec.MAX_FRAME_BYTES})

    def test_unknown_version(self):
        data = bytearray(self._frame())
        data[4] = codec.WIRE_VERSION + 1  # the version byte
        with pytest.raises(codec.UnknownVersion, match="this build speaks"):
            codec.decode_frame(bytes(data))

    def test_version_1_frames_are_no_longer_accepted(self):
        data = bytearray(self._frame())
        data[4] = 1
        with pytest.raises(
            codec.UnknownVersion,
            match=r"version 1 .*this build speaks %d" % codec.WIRE_VERSION,
        ):
            codec.decode_frame(bytes(data))

    def test_unknown_kind(self):
        data = bytearray(self._frame())
        data[5] = 200  # the kind byte
        with pytest.raises(codec.UnknownFrameKind, match="unknown frame kind"):
            codec.decode_frame(bytes(data))

    def test_body_not_json(self):
        payload = b"\xff\xfe not json"
        head = struct.pack("!BB", codec.WIRE_VERSION, codec.STATS)
        data = struct.pack("!I", len(head + payload)) + head + payload
        with pytest.raises(codec.MalformedFrame, match="not valid JSON"):
            codec.decode_frame(data)

    def test_body_not_an_object(self):
        payload = b"[1, 2]"
        head = struct.pack("!BB", codec.WIRE_VERSION, codec.STATS)
        data = struct.pack("!I", len(head + payload)) + head + payload
        with pytest.raises(codec.MalformedFrame, match="JSON object"):
            codec.decode_frame(data)

    def test_undersized_length_prefix(self):
        data = struct.pack("!I", 1) + b"x"
        with pytest.raises(codec.MalformedFrame, match="smaller than"):
            codec.decode_frame(data)

    def test_decoder_eof_mid_frame(self):
        decoder = codec.FrameDecoder()
        assert decoder.feed(self._frame()[:-1]) == []
        assert decoder.buffered > 0
        with pytest.raises(codec.FrameTruncated, match="incomplete frame"):
            decoder.eof()


class TestFrameSizeBoundary:
    """The limit is exact: MAX_FRAME_BYTES passes, one byte more fails."""

    def _frame_of_exact_size(self, size):
        # Pad the body so the advertised size (header + JSON payload)
        # lands exactly on `size`.
        probe = codec.encode_frame(codec.STATS, {"pad": ""})
        (base,) = struct.unpack_from("!I", probe)
        return codec.encode_frame(codec.STATS, {"pad": "x" * (size - base)})

    def test_frame_at_the_limit_round_trips(self):
        data = self._frame_of_exact_size(codec.MAX_FRAME_BYTES)
        (size,) = struct.unpack_from("!I", data)
        assert size == codec.MAX_FRAME_BYTES
        frame, consumed = codec.decode_frame(data)
        assert consumed == len(data)
        assert len(frame.body["pad"]) == size - struct.unpack_from(
            "!I", codec.encode_frame(codec.STATS, {"pad": ""})
        )[0]

    def test_one_byte_over_rejected_by_encode(self):
        probe = codec.encode_frame(codec.STATS, {"pad": ""})
        (base,) = struct.unpack_from("!I", probe)
        with pytest.raises(codec.FrameOversized):
            codec.encode_frame(
                codec.STATS,
                {"pad": "x" * (codec.MAX_FRAME_BYTES - base + 1)},
            )

    def test_limit_frame_survives_the_one_reader(self):
        data = self._frame_of_exact_size(codec.MAX_FRAME_BYTES)
        chunk = codec.READ_CHUNK
        reads = [data[start : start + chunk] for start in range(0, len(data), chunk)]
        calls, ends = _read_by_link(reads)
        assert len(reads) > 60
        assert calls[:-1] == [[]] * (len(reads) - 1)  # one call per read
        (frame,) = calls[-1]
        assert frame.kind == codec.STATS
        assert ends == [None]  # clean EOF
        assert len(codec.encode_frame(frame.kind, frame.body)) == len(data)

    def test_decoder_respects_a_custom_limit(self):
        decoder = codec.FrameDecoder(max_frame_bytes=64)
        small = codec.encode_frame(codec.STATS, {"pad": ""})
        assert [f.kind for f in decoder.feed(small)] == [codec.STATS]
        big = self._frame_of_exact_size(65)
        with pytest.raises(codec.FrameOversized):
            decoder.feed(big)


def _read_by_link(reads):
    """Feed ``reads`` to a :class:`codec.FrameLink` as socket reads, then
    EOF; returns the frame lists ``on_frames`` got and what ``on_end`` got."""

    async def scenario():
        calls, ends = [], []
        link = codec.FrameLink(
            lambda link, frames: calls.append(frames),
            lambda link, exc: ends.append(exc),
        )
        link.connection_made(FakeTransport())
        for data in reads:
            feed(link, data)
        assert link.eof_received() is False  # the transport closes
        assert link.closed and link.transport.closed
        return calls, ends

    return asyncio.run(scenario())


class TestFrameLinkReads:
    """The one reader, fed reads and an EOF by hand with no socket."""

    def _two_frames(self):
        return codec.encode_frame(codec.DRAIN, {}) + codec.encode_frame(
            codec.BYE, {}
        )

    def test_reads_frames_then_clean_eof(self):
        calls, ends = _read_by_link([self._two_frames()])
        assert [[frame.kind for frame in frames] for frames in calls] == [
            [codec.DRAIN, codec.BYE]
        ]
        assert ends == [None]

    def test_eof_inside_prefix_ends_the_link(self):
        calls, ends = _read_by_link([self._two_frames()[:2]])
        assert calls == [[]]
        (error,) = ends
        assert isinstance(error, codec.FrameTruncated)
        assert "with 2 buffered bytes" in str(error)

    def test_eof_inside_body_ends_the_link(self):
        data = self._two_frames()
        calls, ends = _read_by_link([data[:-1]])
        assert [[frame.kind for frame in frames] for frames in calls] == [
            [codec.DRAIN]
        ]
        (error,) = ends
        assert isinstance(error, codec.FrameTruncated)
        assert "with %d buffered bytes" % (len(data) // 2 - 1) in str(error)
