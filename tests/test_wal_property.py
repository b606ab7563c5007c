"""Property tests: WAL records survive the disk round trip exactly.

Two invariants, hammered with generated data:

- ``decode(encode(r)) == r`` for every record kind the sinks produce,
  including fault/retx/timer probe records and vector timestamps;
- a segment whose final write was torn at *any* byte boundary replays
  its clean prefix and drops the tail -- never a crash, never a
  half-record.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.events import Event, Message
from repro.net import codec
from repro.simulation.network import Packet
from repro.simulation.trace import TraceRecord
from repro.wal import (
    SegmentWriter,
    WalRecord,
    WalSink,
    read_segment,
    resolve_events,
    resolve_inputs,
)
from repro.wal.records import (
    CHECKPOINT,
    WalCorrupt,
    _parse_body,
    EVENT,
    FAULT,
    RETX,
    TIMER,
    checkpoint_record,
    content_id,
    decode_record,
    encode_record,
    event_record,
    frame_text,
    invoke_record,
    packet_record,
    probe_record,
)

# -- strategies ---------------------------------------------------------------

# The wire codec's value domain: JSON-safe scalars plus tuples, which the
# tagged encoding must carry through both the socket and the disk.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=8,
)

times = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
processes = st.integers(min_value=0, max_value=7)


@st.composite
def messages(draw):
    return Message(
        id=draw(st.text(min_size=1, max_size=10)),
        sender=draw(processes),
        receiver=draw(processes),
        color=draw(st.one_of(st.none(), st.sampled_from(["red", "blue"]))),
        group=draw(st.one_of(st.none(), st.text(max_size=4))),
        payload=draw(values),
    )


@st.composite
def user_packets(draw):
    return Packet(
        src=draw(processes),
        dst=draw(processes),
        kind="user",
        message=draw(messages()),
        tag=draw(values),
        send_time=draw(times),
        uid=draw(st.integers(min_value=0, max_value=2**31)),
        channel_seq=draw(st.integers(min_value=0, max_value=2**20)),
    )


@st.composite
def control_packets(draw):
    return Packet(
        src=draw(processes),
        dst=draw(processes),
        kind="control",
        payload=draw(values),
        send_time=draw(times),
        uid=draw(st.integers(min_value=0, max_value=2**31)),
        channel_seq=draw(st.integers(min_value=0, max_value=2**20)),
    )


vector_clocks = st.one_of(
    st.none(),
    st.dictionaries(processes, st.integers(min_value=0, max_value=2**20),
                    min_size=1, max_size=8),
)

probe_data = st.dictionaries(
    st.text(min_size=1, max_size=8), values, max_size=4
)


def _event(trace_record, message, vc=None):
    """An EVENT record; with ``vc``, the shape only a stored version-1
    log can hold (no writer stamps it, every reader tolerates it)."""
    record = event_record(trace_record, message)
    if vc:
        return WalRecord(EVENT, dict(record.body, vc=dict(vc)))
    return record


@st.composite
def wal_records(draw):
    """Any record a sink can produce, in proportion to how they occur."""
    choice = draw(st.integers(min_value=0, max_value=4))
    if choice == 0:
        event = draw(st.sampled_from(
            [Event.invoke, Event.send, Event.receive, Event.deliver]
        ))
        message = draw(messages())
        return _event(
            TraceRecord(
                time=draw(times),
                sequence=draw(st.integers(min_value=0, max_value=2**20)),
                process=draw(processes),
                event=event(message.id),
            ),
            message,
            vc=draw(vector_clocks),
        )
    if choice == 1:
        return invoke_record(draw(times), draw(processes), draw(messages()))
    if choice == 2:
        packet = draw(st.one_of(user_packets(), control_packets()))
        return packet_record(draw(times), draw(processes), packet)
    if choice == 3:
        kind, probe = draw(st.sampled_from([
            (FAULT, "fault.drop"),
            (FAULT, "crash"),
            (RETX, "retx.send"),
            (TIMER, "timer.fire"),
        ]))
        return probe_record(
            kind, draw(times), draw(processes), probe, draw(probe_data)
        )
    return checkpoint_record(draw(times), {"requested": draw(
        st.integers(min_value=0, max_value=2**31))})


# -- properties ---------------------------------------------------------------


class TestEncodeDecodeRoundTrip:
    @given(wal_records())
    def test_any_record_survives_the_disk_framing(self, record):
        decoded, offset = decode_record(encode_record(record))
        assert decoded == record
        assert offset == len(encode_record(record))

    @given(messages(), times, processes, vector_clocks)
    def test_event_payload_survives_semantically(self, message, t, p, vc):
        record = _event(
            TraceRecord(time=t, sequence=0, process=p,
                        event=Event.deliver(message.id)),
            message,
            vc=vc,
        )
        decoded, _ = decode_record(encode_record(record))
        ((rt, rp, event, rebuilt),) = resolve_events([decoded])
        assert (rt, rp) == (t, p)
        assert event.message_id == message.id
        assert rebuilt == message
        assert content_id(rebuilt) == content_id(message)

    @given(st.one_of(user_packets(), control_packets()), times, processes)
    def test_packet_inputs_survive_semantically(self, packet, t, p):
        decoded, _ = decode_record(encode_record(packet_record(t, p, packet)))
        ((op, rt, rp, rebuilt),) = resolve_inputs([decoded])
        assert (op, rt, rp) == ("packet", t, p)
        assert rebuilt.kind == packet.kind
        assert rebuilt.message == packet.message
        assert rebuilt.tag == (packet.tag if packet.is_user else None)
        assert (rebuilt.payload == packet.payload) or packet.is_user
        assert rebuilt.uid == packet.uid
        assert rebuilt.channel_seq == packet.channel_seq

    @given(st.lists(wal_records(), min_size=1, max_size=6))
    def test_concatenated_records_decode_in_order(self, records):
        buffer = b"".join(encode_record(record) for record in records)
        offset, decoded = 0, []
        while offset < len(buffer):
            record, offset = decode_record(buffer, offset)
            decoded.append(record)
        assert decoded == records


class TestTornFinalWrite:
    @given(
        st.lists(wal_records(), min_size=1, max_size=5),
        st.integers(min_value=1, max_value=200),
    )
    def test_any_cut_point_salvages_the_clean_prefix(self, records, cut_back):
        import os
        import tempfile

        with tempfile.TemporaryDirectory() as directory:
            writer = SegmentWriter(directory, fsync=False)
            encoded_sizes = []
            for record in records:
                writer.append(record)
                encoded_sizes.append(len(encode_record(record)))
            writer.close()
            path = os.path.join(directory, "wal-00000000.seg")
            with open(path, "rb") as handle:
                buffer = handle.read()
            cut = max(0, len(buffer) - cut_back)
            with open(path, "wb") as handle:
                handle.write(buffer[:cut])

            salvaged, dropped = read_segment(path)
        whole = list(_prefix_sizes(encoded_sizes, cut))
        assert dropped == cut - sum(whole)
        assert salvaged == records[: len(whole)]

    def test_every_single_byte_cut_of_one_log(self, tmp_path):
        """Exhaustive sweep on one small version-2 log, references
        included: no cut point crashes the reader, salvage is monotone
        in the cut, and what is salvaged resolves -- a reference only
        ever points backwards, so a clean prefix holds every body its
        records name."""
        sink = WalSink(str(tmp_path), fsync=False)
        sink.attach_host(_NoHost())
        message = Message(id="m1", sender=0, receiver=1, payload=("p", 2))
        packet = Packet(src=0, dst=1, kind="user", message=message, tag=("t", 1))
        sink.input_listener(0, "invoke", message)
        sink.on_trace(TraceRecord(1.0, 1, 0, Event.send("m1")), message)
        sink.input_listener(1, "packet", packet)
        sink.input_listener(1, "duplicate", packet)
        sink.on_trace(TraceRecord(2.0, 3, 1, Event.deliver("m1")), message)
        sink.close()
        path = str(tmp_path / "wal-00000000.seg")
        with open(path, "rb") as handle:
            full = handle.read()
        records, _ = read_segment(path, strict=True)
        assert ["m" in r.body for r in records[1:]] == [True] + [False] * 4
        sizes = [len(encode_record(record)) for record in records]
        assert len(full) == sum(sizes)
        boundaries = [sum(sizes[:k]) for k in range(len(sizes) + 1)]
        # Events and inputs among the first k records: header, invoke,
        # send, first copy (a receive), duplicate (no event), deliver.
        events = [0, 0, 1, 2, 3, 3, 4]
        inputs = [0, 0, 1, 1, 2, 3, 3]
        for cut in range(len(full) + 1):
            with open(path, "wb") as handle:
                handle.write(full[:cut])
            salvaged, dropped = read_segment(path)
            whole = max(k for k, b in enumerate(boundaries) if b <= cut)
            assert salvaged == records[:whole]
            assert dropped == cut - boundaries[whole]
            assert len(list(resolve_events(salvaged))) == events[whole]
            assert len(list(resolve_inputs(salvaged))) == inputs[whole]


# A record body as writers make it: a str-keyed dict whose values are
# scalars, flat int rows (a vector clock, RST's matrix) and wrappers
# nested in each other.
hashables = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(max_size=6),
)
int_rows = st.lists(st.integers(min_value=-(2**31), max_value=2**31), max_size=9)
body_values = st.recursive(
    st.one_of(
        scalars, int_rows, int_rows.map(tuple), st.frozensets(hashables, max_size=4)
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=3),
    ),
    max_leaves=10,
)
bodies = st.dictionaries(st.text(max_size=8), body_values, max_size=6)

DEEP = sys.getrecursionlimit() + 50
#: Texts that stand where one ``[key, value]`` pair of a body should:
#: each makes the record malformed.
MALFORMED_PAIRS = {
    "a 2-character string": '"ab"',
    "a 2-key object": '{"a":1,"b":2}',
    "a 3-item pair": '["x",1,2]',
    "a non-string key": "[[1],2]",
    "a wrapped key": '[{"L":[1]},2]',
    "a bare list value": '["x",[1,2]]',
    "nesting past the recursion limit": '["x",%s1%s]'
    % ('{"L":[' * DEEP, "]}" * DEEP),
}


def _exactly(value):
    """``value`` with every type spelled out, so that ``1``, ``1.0`` and
    ``True`` (equal in Python) compare unequal, and set order is moot."""
    if isinstance(value, dict):
        return ("dict", [(_exactly(k), _exactly(v)) for k, v in value.items()])
    if isinstance(value, (set, frozenset)):
        return (type(value).__name__, sorted(map(repr, map(_exactly, value))))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_exactly(item) for item in value])
    return (type(value).__name__, value)


class TestOneLoopBody:
    """``_parse_body`` builds a ``{"D": [...]}`` body's dict in one loop;
    the generic decoder it stands in for is the reference."""

    @given(bodies)
    @settings(max_examples=300, deadline=None)
    def test_a_body_decodes_as_the_generic_decoder_decodes_it(self, body):
        text = codec.dumps_value(body)
        expected = codec.decode_value(codec._scan_json(text, 0)[0])
        assert _exactly(_parse_body(text)) == _exactly(expected) == _exactly(body)

    @pytest.mark.parametrize("key", ["1", "null", '{"T":[1,"a"]}', '{"F":[2]}'])
    def test_a_well_formed_key_of_another_type_takes_the_generic_path(self, key):
        text = '{"D":[["t",1.5],[%s,{"T":[1,2]}]]}' % key
        expected = codec.decode_value(codec._scan_json(text, 0)[0])
        assert _exactly(_parse_body(text)) == _exactly(expected)

    @given(bodies, st.sampled_from(sorted(MALFORMED_PAIRS)), st.integers(0, 6))
    @settings(max_examples=150, deadline=None)
    def test_a_malformed_pair_anywhere_is_corrupt(self, body, case, where):
        pairs = _pair_texts(body)
        pairs.insert(min(where, len(pairs)), MALFORMED_PAIRS[case])
        with pytest.raises(WalCorrupt):
            decode_record(frame_text(CHECKPOINT, '{"D":[%s]}' % ",".join(pairs)))

    @given(bodies, st.integers(0, 6))
    @settings(max_examples=100, deadline=None)
    def test_a_repeated_key_is_corrupt(self, body, where):
        pairs = _pair_texts(dict(body, t=1))
        pairs.insert(min(where, len(pairs)), '["t",2]')
        with pytest.raises(WalCorrupt, match="repeats a key"):
            decode_record(frame_text(CHECKPOINT, '{"D":[%s]}' % ",".join(pairs)))


def _pair_texts(body):
    """The ``[key,value]`` items of ``codec.dumps_value(body)``."""
    return [
        "[%s,%s]" % (codec.dumps_value(key), codec.dumps_value(value))
        for key, value in body.items()
    ]


class _NoHost:
    """Something to attach: a sink that logs a host's inputs writes no
    EVENT for the two events those inputs are."""


def _prefix_sizes(sizes, cut):
    """The sizes of the records wholly contained in the first ``cut``
    bytes (the header record is sizes[0]'s predecessor -- none here,
    the writer under test uses no header_factory)."""
    total = 0
    for size in sizes:
        if total + size > cut:
            return
        total += size
        yield size
