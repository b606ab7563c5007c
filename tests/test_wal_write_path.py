"""The sink's write path: one framing step, the same bytes.

:class:`~repro.wal.sink.WalSink` spells each fixed-shape record (an
EVENT, an ``invoke`` or a ``packet`` INPUT) straight to its body text
and frames it with :func:`~repro.wal.records.frame_text`: no
:class:`~repro.wal.records.WalRecord` is built and rotation is asked
once.  Four angles:

- differential: over generated messages, tags, payloads and head
  numbers (non-finite floats, bools and int subclasses included), the
  sink's segments equal those of the record-building path it replaced
  (copied below), rotation included;
- rotation: a record that opens a new segment is spelled again there,
  so its message body moves into that segment;
- bounds: an over-4 MiB record raises the same :class:`WalError`;
- discipline: one append is one ``write`` and builds no ``WalRecord``.
"""

import os
import tempfile

import pytest
from hypothesis import given, strategies as st

from repro.events import Event, Message
from repro.net import codec
from repro.simulation.network import Packet
from repro.simulation.trace import TraceRecord
from repro.wal import SegmentWriter, WalSink, read_segment, resolve_events
from repro.wal import records
from repro.wal.records import (
    WalError,
    encode_record,
    event_record,
    invoke_record,
    meta_record,
    packet_record,
)
from repro.wal.segment import segment_paths
from tests.test_wal_bytes import Colour, Count, hashables

# -- the reference: build a WalRecord, encode it, then ask about rotation -----


def reference_log(directory, ops, max_segment_bytes):
    """The segments the sink wrote before it framed text directly."""
    seen = set()

    def header(index):
        seen.clear()
        return meta_record({"segment": index})

    writer = SegmentWriter(
        directory,
        max_segment_bytes=max_segment_bytes,
        fsync=False,
        header_factory=header,
    )
    for op in ops:
        build, args = _BUILDERS[op[0]], op[1:]
        encoded = encode_record(build(*args, seen))
        if writer.rotates(len(encoded)):
            writer.rotate()
            encoded = encode_record(build(*args, seen))
        writer.put(encoded)
    writer.close()


_BUILDERS = {
    "event": event_record,
    "invoke": invoke_record,
    "packet": packet_record,
}


def sink_log(directory, ops, max_segment_bytes):
    sink = WalSink(directory, fsync=False, max_segment_bytes=max_segment_bytes)
    for op in ops:
        if op[0] == "event":
            sink.on_trace(op[1], op[2])
        else:
            t, process, payload = op[1:4]
            sink.set_clock(lambda: t)
            kind = op[4] if op[0] == "packet" else "invoke"
            sink.input_listener(process, kind, payload)
    sink.close()


def segment_bytes(directory):
    contents = []
    for path in segment_paths(directory):
        with open(path, "rb") as handle:
            contents.append((os.path.basename(path), handle.read()))
    return contents


# -- generated inputs ---------------------------------------------------------

#: Head numbers: the exact ints and finite floats take the fast spelling,
#: everything else (NaN, infinities, bools, int subclasses) the generic one.
times = st.one_of(
    st.floats(),
    st.integers(),
    st.sampled_from([float("nan"), float("inf"), -0.0, 1e16, True, Colour.RED]),
)
indices = st.one_of(
    st.integers(min_value=-3, max_value=2**70), st.sampled_from([False, Count(3)])
)
int_rows = st.lists(st.integers(), max_size=8)
encodable = st.recursive(
    st.one_of(hashables, int_rows, int_rows.map(tuple)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(hashables, children, max_size=3),
    ),
    max_leaves=10,
)
messages = st.builds(
    Message,
    id=st.text(min_size=1, max_size=6),
    sender=st.integers(0, 3),
    receiver=st.integers(0, 3),
    color=st.one_of(st.none(), st.sampled_from(["red", "blue"])),
    payload=encodable,
)


@st.composite
def operations(draw):
    pool = draw(st.lists(messages, min_size=1, max_size=3))
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        message = draw(st.sampled_from(pool))
        shape = draw(st.sampled_from(["event", "invoke", "user", "control"]))
        if shape == "event":
            record = TraceRecord(
                time=draw(times),
                sequence=0,
                process=draw(indices),
                event=draw(
                    st.sampled_from(
                        [Event.invoke, Event.send, Event.receive, Event.deliver]
                    )
                )(message.id),
            )
            ops.append(("event", record, message))
        elif shape == "invoke":
            ops.append(("invoke", draw(times), draw(indices), message))
        else:
            value = draw(encodable)
            packet = Packet(
                src=draw(indices),
                dst=draw(indices),
                kind=shape,
                message=message if shape == "user" else None,
                tag=value if shape == "user" else None,
                payload=None if shape == "user" else value,
                send_time=draw(times),
                uid=draw(indices),
                channel_seq=draw(indices),
            )
            if draw(st.booleans()):  # as if it came off a wire
                packet.wire_text = codec.dumps_value(value)
            op = draw(st.sampled_from(["packet", "duplicate"]))
            ops.append(("packet", draw(times), draw(indices), packet, op))
    return ops


class TestSameBytes:
    @given(operations(), st.sampled_from([200, 700, 4 * 1024 * 1024]))
    def test_sink_segments_equal_the_record_building_path(self, ops, max_bytes):
        with tempfile.TemporaryDirectory() as base:
            got, want = os.path.join(base, "sink"), os.path.join(base, "reference")
            sink_log(got, ops, max_bytes)
            reference_log(want, ops, max_bytes)
            assert segment_bytes(got) == segment_bytes(want)


_MESSAGE = Message(id="m1", sender=0, receiver=1, payload=("p", [1, 2, 3]))


def _send(t):
    return TraceRecord(time=t, sequence=0, process=0, event=Event.send("m1"))


class TestRotation:
    def test_the_record_that_opens_a_segment_carries_the_body(self, tmp_path):
        header = len(encode_record(meta_record({"segment": 0})))
        full = len(encode_record(event_record(_send(1.0), _MESSAGE)))
        seen = {records.content_id(_MESSAGE)}
        ref = len(encode_record(event_record(_send(1.0), _MESSAGE, seen)))
        # Room for the body and one reference; the second reference, a
        # record small enough for the old segment, opens the next.
        sink = WalSink(
            str(tmp_path), fsync=False, max_segment_bytes=header + full + ref + 1
        )
        for t in (1.0, 2.0, 3.0):
            sink.on_trace(_send(t), _MESSAGE)
        sink.close()
        first, second = segment_paths(str(tmp_path))
        (_, *old), _ = read_segment(first, strict=True)
        (_, opening), _ = read_segment(second, strict=True)
        assert ["m" in r.body for r in old] == [True, False]
        assert encode_record(opening) == encode_record(
            event_record(_send(3.0), _MESSAGE)
        )
        # The segment resolves without the first.
        [(t, _p, event, message)] = resolve_events(read_segment(second)[0])
        assert (t, event, message) == (3.0, Event.send("m1"), _MESSAGE)


class TestBounds:
    def test_an_oversize_record_raises_the_same_error(self, tmp_path):
        huge = Message(id="big", sender=0, receiver=1, payload="x" * (4 * 1024 * 1024))
        record = TraceRecord(time=1.0, sequence=0, process=0, event=Event.send("big"))
        sink = WalSink(str(tmp_path), fsync=False, clock=lambda: 2.0)
        for append, build in (
            (lambda: sink.on_trace(record, huge), lambda: event_record(record, huge)),
            (
                lambda: sink.input_listener(0, "invoke", huge),
                lambda: invoke_record(2.0, 0, huge),
            ),
        ):
            with pytest.raises(WalError) as expected:
                encode_record(build())
            with pytest.raises(WalError) as raised:
                append()
            assert str(raised.value) == str(expected.value)
        sink.close()
        assert segment_paths(str(tmp_path)) == []

    def test_a_refused_record_leaves_no_dangling_reference(self, tmp_path):
        """The message of a record too big to write has no body in the
        log, so its next mention carries one."""
        sink = WalSink(str(tmp_path), fsync=False)
        sink.on_trace(_send(0.5), Message(id="m0", sender=0, receiver=1))
        packet = Packet(
            src=0, dst=1, kind="user", message=_MESSAGE, tag="x" * (4 * 1024 * 1024)
        )
        with pytest.raises(WalError):
            sink.input_listener(1, "packet", packet)
        sink.on_trace(_send(1.0), _MESSAGE)
        sink.close()
        [path] = segment_paths(str(tmp_path))
        events = list(resolve_events(read_segment(path, strict=True)[0]))
        assert [message for _t, _p, _e, message in events][-1] == _MESSAGE


class _CountingHandle:
    """A segment handle that records each ``write``."""

    def __init__(self, handle):
        self.handle = handle
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        return self.handle.write(data)

    def __getattr__(self, name):
        return getattr(self.handle, name)


class TestDiscipline:
    def test_one_append_is_one_write_and_builds_no_record(self, tmp_path, monkeypatch):
        sink = WalSink(str(tmp_path), fsync=False)
        sink.on_trace(_send(0.5), _MESSAGE)  # opens the segment
        handle = sink.writer._handle = _CountingHandle(sink.writer._handle)
        built = []
        init = records.WalRecord.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(records.WalRecord, "__init__", counted)
        packet = Packet(src=0, dst=1, kind="user", message=_MESSAGE, tag=(1, 2))
        appends = [
            lambda: sink.on_trace(_send(1.0), _MESSAGE),
            lambda: sink.input_listener(1, "invoke", _MESSAGE),
            lambda: sink.input_listener(1, "packet", packet),
        ]
        for index, append in enumerate(appends):
            append()
            assert len(handle.writes) == index + 1
        assert built == []
        monkeypatch.undo()
        seen = {records.content_id(_MESSAGE)}
        assert handle.writes == [
            encode_record(event_record(_send(1.0), _MESSAGE, seen)),
            encode_record(invoke_record(0.0, 1, _MESSAGE, seen)),
            encode_record(packet_record(0.0, 1, packet, "packet", seen)),
        ]
        sink.close()
