"""The WAL write path emits the same bytes, by property and by literal.

The record constructors build their bodies straight to text and splice a
per-message fragment; nothing about the on-disk format may move.  Three
angles:

- differential: :func:`repro.net.codec.dumps_value` against the
  two-pass reference ``json.dumps(encode_value(v))`` it replaced;
- golden: one record of every kind, as hex.  The version-1 hex (captured
  from the commit before the one-pass encoder landed) still *decodes* to
  the same bodies; what the writer *emits* is pinned as version 2;
- discipline: one unbuffered ``write`` per record and the ``sync_every``
  fsync cadence, observed from a second file handle.
"""

import enum
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, strategies as st

from repro.events import Event, Message
from repro.net import codec
from repro.obs import Bus
from repro.simulation.network import Packet
from repro.simulation.trace import TraceRecord
from repro.wal import SegmentWriter, WalSink, read_log, read_segment
from repro.wal.records import (
    CHECKPOINT,
    EVENT,
    FAULT,
    RETX,
    WalRecord,
    checkpoint_record,
    content_id,
    decode_record,
    encode_record,
    event_record,
    invoke_record,
    meta_record,
    packet_record,
    probe_record,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def reference_dumps(value):
    """The two-pass encoding every stored log was written with."""
    return json.dumps(codec.encode_value(value), separators=(",", ":"))


# -- (i) differential ---------------------------------------------------------


class Colour(enum.IntEnum):
    RED = 7


class Label(str):
    pass


class Count(int):
    def __repr__(self):  # json spells ints with int.__repr__, not this
        return "Count(%d)" % int(self)


hashable_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # NaN and +-inf included: the WAL writes them
    st.text(),  # non-ASCII and control characters included
    st.sampled_from(
        [-0.0, 0.0, 1e16, 1e-7, 2**63, Colour.RED, Label("lé\n"), Count(3)]
    ),
)
hashables = st.recursive(
    hashable_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3).map(tuple),
        st.frozensets(children, max_size=3),
    ),
    max_leaves=6,
)
unencodable = st.sampled_from([b"bytes", 1j, object, range(2), bytearray(b"x")])
values = st.recursive(
    st.one_of(hashables, unencodable),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.sets(hashables, max_size=4),
        st.dictionaries(hashables, children, max_size=4),
    ),
    max_leaves=10,
)


class TestOnePassSerializer:
    @given(values)
    @example({1: True, True: 1})
    @example((1, True, 1.0, -0.0, 1e16, float("nan"), float("-inf")))
    @example({"k": [{(1, "a"), (1.0, "b")}, frozenset({False, 0})]})
    @example("\x00\x1f\"\\/ \ud800\U0001f600")
    @example([1, [2, [b"deep"]]])
    def test_matches_the_two_pass_reference(self, value):
        try:
            expected = reference_dumps(value)
        except codec.CodecError as exc:
            with pytest.raises(codec.CodecError) as raised:
                codec.dumps_value(value)
            assert str(raised.value) == str(exc)
            return
        assert codec.dumps_value(value) == expected

    def test_output_decodes_back(self):
        value = {"acks": [3], "win": (5,), 2: {"x"}, None: frozenset({1.5})}
        assert codec.decode_value(json.loads(codec.dumps_value(value))) == value


# -- (ii) golden bytes --------------------------------------------------------

_MESSAGE = Message(
    id="m1", sender=0, receiver=1, color="red", group="g", payload=("p", 2, {"k": [1.5]})
)
_KEYED = Message(id="mé2", sender=2, receiver=0, ordering_key="acct-7")


def _trace_record(event, **fields):
    fields.setdefault("sequence", 0)
    return TraceRecord(event=event, **fields)


def golden_records():
    """One record of every kind the sinks write, fixed inputs."""
    user = Packet(
        src=0,
        dst=1,
        kind="user",
        message=_MESSAGE,
        tag=("rdata", 4, ((0, 1), (2, 3))),
        send_time=1.25,
        uid=17,
        channel_seq=4,
    )
    control = Packet(
        src=1,
        dst=0,
        kind="control",
        payload={"acks": [3], "win": (5,), "seen": frozenset({2, 1})},
        send_time=0.5,
        uid=18,
        channel_seq=9,
    )
    return {
        "meta": meta_record({"run": "r1", "process": 0, "protocol": "fifo", "segment": 3}),
        "event": event_record(
            _trace_record(Event.send("m1"), time=2.5, process=0), _MESSAGE
        ),
        # No writer stamps ``vc`` any more (none ever did on a live
        # run); stored version-1 logs may hold it, so it stays decodable.
        "event_vc": WalRecord(
            EVENT,
            {
                "t": 3,
                "p": 0,
                "k": "deliver",
                "m": codec.message_to_wire(_KEYED),
                "cid": content_id(_KEYED),
                "vc": {0: 2, 2: 5},
            },
        ),
        # Version 2 only: a later mention in the same segment is the
        # content id alone, and a re-arrival says so.
        "event_ref": event_record(
            _trace_record(Event.send("m1"), time=2.5, process=0),
            _MESSAGE,
            {content_id(_MESSAGE)},
        ),
        "duplicate_packet": packet_record(
            3.5, 1, user, "duplicate", {content_id(_MESSAGE)}
        ),
        "invoke": invoke_record(2.0, 0, _MESSAGE),
        "user_packet": packet_record(3.0, 1, user),
        "control_packet": packet_record(0.5, 0, control),
        "retx": probe_record(
            RETX, 1.0, 2, "retx.send", {"process": 2, "dst": 1, "seq": 4, "attempt": 2}
        ),
        "checkpoint": checkpoint_record(9.0, {"requested": 120, "done": True}),
    }


#: ``encode_record(...).hex()`` of :func:`golden_records` when the writer
#: spoke WAL_VERSION 1 (json.dumps(encode_value(body)) per record).
GOLDEN_HEX_V1 = {
    "meta": (
        "0000005701014406a5607b2244223a5b5b2272756e222c227231225d2c5b2270726f6365"
        "7373222c305d2c5b2270726f746f636f6c222c226669666f225d2c5b227365676d656e74"
        "222c335d2c5b22666f726d6174222c315d5d7d"
    ),
    "event": (
        "000000ff0102f0d6705a7b2244223a5b5b2274222c322e355d2c5b2270222c305d2c5b22"
        "6b222c2273656e64225d2c5b226d222c7b2244223a5b5b226964222c226d31225d2c5b22"
        "73656e646572222c305d2c5b227265636569766572222c315d2c5b22636f6c6f72222c22"
        "726564225d2c5b2267726f7570222c2267225d2c5b227061796c6f6164222c7b2244223a"
        "5b5b2254222c7b224c223a5b2270222c322c7b2244223a5b5b2244222c7b224c223a5b7b"
        "224c223a5b226b222c7b2244223a5b5b224c222c7b224c223a5b312e355d7d5d5d7d5d7d"
        "5d7d5d5d7d5d7d5d5d7d5d5d7d5d2c5b22636964222c2266616236353136356436653537"
        "646537225d5d7d"
    ),
    "event_vc": (
        "000000df01023f3527677b2244223a5b5b2274222c335d2c5b2270222c305d2c5b226b22"
        "2c2264656c69766572225d2c5b226d222c7b2244223a5b5b226964222c226d5c75303065"
        "3932225d2c5b2273656e646572222c325d2c5b227265636569766572222c305d2c5b2263"
        "6f6c6f72222c6e756c6c5d2c5b2267726f7570222c6e756c6c5d2c5b227061796c6f6164"
        "222c6e756c6c5d2c5b226b6579222c22616363742d37225d5d7d5d2c5b22636964222c22"
        "30646138303361336465366131666262225d2c5b227663222c7b2244223a5b5b302c325d"
        "2c5b322c355d5d7d5d5d7d"
    ),
    "invoke": (
        "000001020103956dc5257b2244223a5b5b2274222c322e305d2c5b2270222c305d2c5b22"
        "6f70222c22696e766f6b65225d2c5b226d222c7b2244223a5b5b226964222c226d31225d"
        "2c5b2273656e646572222c305d2c5b227265636569766572222c315d2c5b22636f6c6f72"
        "222c22726564225d2c5b2267726f7570222c2267225d2c5b227061796c6f6164222c7b22"
        "44223a5b5b2254222c7b224c223a5b2270222c322c7b2244223a5b5b2244222c7b224c22"
        "3a5b7b224c223a5b226b222c7b2244223a5b5b224c222c7b224c223a5b312e355d7d5d5d"
        "7d5d7d5d7d5d5d7d5d7d5d5d7d5d5d7d5d2c5b22636964222c2266616236353136356436"
        "653537646537225d5d7d"
    ),
    "user_packet": (
        "0000018201033e5c75af7b2244223a5b5b2274222c332e305d2c5b2270222c315d2c5b22"
        "6f70222c227061636b6574225d2c5b22737263222c305d2c5b22647374222c315d2c5b22"
        "6b696e64222c2275736572225d2c5b2273656e74222c312e32355d2c5b22756964222c31"
        "375d2c5b226373222c345d2c5b226d222c7b2244223a5b5b226964222c226d31225d2c5b"
        "2273656e646572222c305d2c5b227265636569766572222c315d2c5b22636f6c6f72222c"
        "22726564225d2c5b2267726f7570222c2267225d2c5b227061796c6f6164222c7b224422"
        "3a5b5b2254222c7b224c223a5b2270222c322c7b2244223a5b5b2244222c7b224c223a5b"
        "7b224c223a5b226b222c7b2244223a5b5b224c222c7b224c223a5b312e355d7d5d5d7d5d"
        "7d5d7d5d5d7d5d7d5d5d7d5d5d7d5d2c5b22636964222c22666162363531363564366535"
        "37646537225d2c5b22746167222c7b2254223a5b227264617461222c342c7b2254223a5b"
        "7b2254223a5b302c315d7d2c7b2254223a5b322c335d7d5d7d5d7d5d5d7d"
    ),
    "control_packet": (
        "000000c50103aa0bb1db7b2244223a5b5b2274222c302e355d2c5b2270222c305d2c5b22"
        "6f70222c227061636b6574225d2c5b22737263222c315d2c5b22647374222c305d2c5b22"
        "6b696e64222c22636f6e74726f6c225d2c5b2273656e74222c302e355d2c5b2275696422"
        "2c31385d2c5b226373222c395d2c5b227061796c6f6164222c7b2244223a5b5b2261636b"
        "73222c7b224c223a5b335d7d5d2c5b2277696e222c7b2254223a5b355d7d5d2c5b227365"
        "656e222c7b2246223a5b312c325d7d5d5d7d5d5d7d"
    ),
    "retx": (
        "000000760105f6a227657b2244223a5b5b2274222c312e305d2c5b2270222c325d2c5b22"
        "70726f6265222c22726574782e73656e64225d2c5b2264617461222c7b2244223a5b5b22"
        "70726f63657373222c325d2c5b22647374222c315d2c5b22736571222c345d2c5b226174"
        "74656d7074222c325d5d7d5d5d7d"
    ),
    "checkpoint": (
        "000000370107b61d80597b2244223a5b5b22726571756573746564222c3132305d2c5b22"
        "646f6e65222c747275655d2c5b2274222c392e305d5d7d"
    ),
}


#: What the writer emits now.  A record built with no seen-set has the
#: body it always had, so its version-2 bytes are the version-1 bytes
#: under a version-2 header (byte 4; the crc covers the body only)...
GOLDEN_HEX = {
    name: stored[:8] + "02" + stored[10:] for name, stored in GOLDEN_HEX_V1.items()
}
#: ...except META, whose body states the format, and the two records
#: version 1 had no way to write.
GOLDEN_HEX.update(
    meta=(
        "00000057020156b30a8e7b2244223a5b5b2272756e222c227231225d2c5b2270726f6365"
        "7373222c305d2c5b2270726f746f636f6c222c226669666f225d2c5b227365676d656e74"
        "222c335d2c5b22666f726d6174222c325d5d7d"
    ),
    event_ref=(
        "00000047020281f8784c7b2244223a5b5b2274222c322e355d2c5b2270222c305d2c5b22"
        "6b222c2273656e64225d2c5b22636964222c226661623635313635643665353764653722"
        "5d5d7d"
    ),
    duplicate_packet=(
        "000000cd0203900a72ec7b2244223a5b5b2274222c332e355d2c5b2270222c315d2c5b22"
        "6f70222c226475706c6963617465225d2c5b22737263222c305d2c5b22647374222c315d"
        "2c5b226b696e64222c2275736572225d2c5b2273656e74222c312e32355d2c5b22756964"
        "222c31375d2c5b226373222c345d2c5b22636964222c2266616236353136356436653537"
        "646537225d2c5b22746167222c7b2254223a5b227264617461222c342c7b2254223a5b7b"
        "2254223a5b302c315d7d2c7b2254223a5b322c335d7d5d7d5d7d5d5d7d"
    ),
)


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(golden_records()))
    def test_record_reproduces_the_parent_commits_bytes(self, name):
        """The encode half: the writer's bytes, pinned as version 2."""
        assert encode_record(golden_records()[name]).hex() == GOLDEN_HEX[name]

    @pytest.mark.parametrize("name", sorted(golden_records()))
    def test_constructed_body_is_what_a_reader_sees(self, name):
        """The decode half: both versions' bytes read as the same body."""
        record = golden_records()[name]
        for version, stored in ((1, GOLDEN_HEX_V1.get(name)), (2, GOLDEN_HEX[name])):
            if stored is None:
                continue
            decoded, _ = decode_record(bytes.fromhex(stored))
            assert decoded.version == version
            if name == "meta" and version == 1:
                assert decoded.body.pop("format") == 1
                decoded.body["format"] = 2
            assert decoded == record
            assert encode_record(
                WalRecord(record.kind, decoded.body)
            ) == bytes.fromhex(GOLDEN_HEX[name])

    def test_non_finite_floats_keep_their_spelling(self):
        record = checkpoint_record(
            float("inf"), {"a": float("nan"), "b": float("-inf"), "c": -0.0}
        )
        assert encode_record(record)[10:] == (
            b'{"D":[["a",NaN],["b",-Infinity],["c",-0.0],["t",Infinity]]}'
        )
        decoded, _ = decode_record(encode_record(record))
        assert math.isnan(decoded.body["a"]) and decoded.body["t"] == float("inf")


# -- content ids follow the wire form, not Message.__eq__ ---------------------


_READ_BACK = """
import sys
from repro.wal import read_log
from repro.wal import resolve_events
for record in reversed(read_log(sys.argv[1], strict=True).records):
    for _t, _p, _event, message in resolve_events([record], verify=True):
        print(type(message.payload).__name__, message.payload)
"""


class TestEqualMessagesThatEncodeDifferently:
    def test_ids_and_bodies_do_not_leak_between_them(self, tmp_path):
        variants = [Message(id="m", sender=0, receiver=1, payload=p) for p in (1, True, 1.0)]
        assert variants[0] == variants[1] == variants[2]
        writer = SegmentWriter(str(tmp_path), fsync=False)
        for message in variants:
            writer.append(
                event_record(_trace_record(Event.send("m"), time=0.0, process=0), message)
            )
        writer.close()
        # A fresh interpreter, reading newest first: no cache it could
        # share with the writer, warmed in the writer's order, to agree
        # with a wrong stored id.
        result = subprocess.run(
            [sys.executable, "-c", _READ_BACK, str(tmp_path)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["float", "1.0", "bool", "True", "int", "1"]


# -- probe payloads -----------------------------------------------------------


class TestProbeFallback:
    def test_unencodable_probe_payload_degrades_to_repr(self, tmp_path):
        bus = Bus()
        sink = WalSink(str(tmp_path), fsync=False)
        sink.attach_bus(bus)
        bus.emit("fault.drop", 4.0, process=2, packet=b"raw", why={"k": object})
        bus.emit("retx.send", 5.0, process=1, dst=0, seq=(1, 2))
        sink.close()
        fault, retx = [
            r for r in read_log(str(tmp_path)).records if r.kind in (FAULT, RETX)
        ]
        assert fault.body == {
            "t": 4.0,
            "p": 2,
            "probe": "fault.drop",
            "data": {"process": "2", "packet": "b'raw'", "why": repr({"k": object})},
        }
        # An encodable payload is stored as-is, not stringified.
        assert retx.body["data"] == {"process": 1, "dst": 0, "seq": (1, 2)}
        assert retx.body["p"] == 1


# -- (iii) one write per record, fsync every sync_every -----------------------


class TestWriteDiscipline:
    @pytest.mark.parametrize("n,sync_every", [(1, 1), (7, 3), (64, 64), (130, 64)])
    def test_each_append_is_visible_before_any_sync(self, tmp_path, n, sync_every):
        writer = SegmentWriter(str(tmp_path), fsync=True, sync_every=sync_every)
        for index in range(n):
            writer.append(WalRecord(kind=CHECKPOINT, body={"i": index}))
            # A second handle, no sync() in between.
            records, dropped = read_segment(
                os.path.join(str(tmp_path), "wal-00000000.seg"), strict=True
            )
            assert dropped == 0
            assert [r.body["i"] for r in records] == list(range(index + 1))
        assert writer.syncs == n // sync_every
        writer.close()
        assert writer.syncs == math.ceil(n / sync_every)
        assert writer.records_written == n
