"""Wire format 3: a packet is spelled once per hop.

A USER or CONTROL frame carries a JSON head and two sections -- the
message's canonical text and the tag's or payload's value text -- which
the sender splices from texts it has and the receiver keeps, so its log
records the bytes it was handed.  These tests pin:

- round trips over the codec's value vocabulary: the decoded packet is
  the sent one, every section is what the writers spell for the value
  decoded from it, and the receiver's log record is the byte-for-byte
  record a simulated packet gets;
- the field-by-field message writer against the generic writers;
- no generic walk on the receive path of a logging host;
- the refusals: a version-2 packet frame, an unhashable set member or
  dict key, a section table that does not add up -- each a codec error,
  which ends a peer link as ``peer stream: ...`` instead of killing its
  reader.
"""

import asyncio
import enum
import hashlib
import json
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.events import Message
from repro.net import AsyncTransport, NetHost, codec, free_ports
from repro.net.transport import packet_from_frame
from repro.protocols import catalogue
from repro.protocols.reliable import make_reliable
from repro.simulation.network import Packet
from repro.wal import read_log
from repro.wal import records as rec

# -- the value vocabulary -------------------------------------------------------

finite_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),  # NaN != NaN: equality could not pin it
    st.text(),
)
#: Set members and dict keys.  No set inside a set: a set is spelled in
#: ``repr`` order, and a frozenset's ``repr`` follows its iteration
#: order, which a decoded copy need not share -- such a value round-trips
#: equal but may be spelled differently by whoever spells it next.
members = st.recursive(
    finite_scalars, lambda children: st.lists(children, max_size=3).map(tuple), max_leaves=6
)
values = st.recursive(
    st.one_of(members, st.frozensets(members, max_size=3)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.sets(members, max_size=4),
        st.dictionaries(members, children, max_size=4),
    ),
    max_leaves=10,
)
labels = st.one_of(st.none(), st.text(max_size=8), st.integers())
messages = st.builds(
    Message,
    id=st.text(max_size=12),
    sender=st.integers(min_value=0, max_value=2**40),
    receiver=st.integers(min_value=0, max_value=2**40),
    color=labels,
    group=labels,
    payload=values,
    ordering_key=st.one_of(st.none(), st.text(max_size=8)),
)


def _transport():
    transport = AsyncTransport(0)
    transport._stamp = lambda packet: (1.5, 1.25)
    return transport


def _sections(data):
    """The (head, message, value) section texts of an encoded packet frame."""
    payload = data[6:]
    sizes = struct.unpack_from("!III", payload)
    texts, offset = [], 12
    for size in sizes:
        texts.append(payload[offset : offset + size].decode("utf-8"))
        offset += size
    assert offset == len(payload)
    return texts


class TestPacketsRoundTrip:
    @given(message=messages, tag=values, payload=values)
    @settings(max_examples=150, deadline=None)
    def test_decoded_packet_sections_and_log_record(self, message, tag, payload):
        user = Packet(src=0, dst=1, kind="user", message=message, tag=tag, send_time=1.5)
        control = Packet(src=0, dst=1, kind="control", payload=payload, send_time=1.5)
        for packet, value in ((user, tag), (control, payload)):
            data = codec.encode_frame(*_transport()._frame_for(packet))
            frame, consumed = codec.decode_frame(data)
            assert consumed == len(data)
            rebuilt = packet_from_frame(frame)
            assert rebuilt == packet
            head, message_text, value_text = _sections(data)
            assert json.loads(head)["sent"] == 1.5
            decoded = rebuilt.tag if packet.is_user else rebuilt.payload
            assert value_text == frame.value_text == rebuilt.wire_text
            assert value_text == codec.dumps_value(decoded) == codec.dumps_value(value)
            if packet.is_user:
                assert message_text == codec.spell_message(rebuilt.message).canonical
            else:
                assert message_text == ""
            # The receiver's log: the handed-over text, and the very
            # bytes a simulated (textless) packet is logged as.
            assert rec.encode_record(rec.packet_record(2.0, 1, rebuilt)) == (
                rec.encode_record(rec.packet_record(2.0, 1, packet))
            )

    def test_a_packet_frame_decodes_to_a_flat_body(self):
        """Head, message fields and the tag tree side by side, as
        ``packet_from_frame`` reads them."""
        message = Message(id="m1", sender=0, receiver=1, color="red", payload=(1, "a"))
        tag = ("rdata", 3, [[0, 1], [2, 3]])
        frame, _ = codec.decode_frame(
            codec.encode_frame(
                codec.USER,
                {"src": 0, "dst": 1, "sent": 1.5, "invoked": 1.25},
                (message, tag),
            )
        )
        assert frame.body == dict(
            codec.message_to_wire(message),
            src=0,
            dst=1,
            sent=1.5,
            invoked=1.25,
            tag=codec.encode_value(tag),
        )
        assert frame.value_text == codec.dumps_value(tag)


# -- the message writer -----------------------------------------------------------


class Colour(enum.IntEnum):
    RED = 7


class Label(str):
    pass


exotic = st.one_of(
    labels,
    st.floats(),
    st.booleans(),
    st.sampled_from([Colour.RED, Label("lé"), (1, "x")]),
)
any_messages = st.builds(
    Message,
    id=st.one_of(st.text(max_size=12), st.sampled_from([Label("m"), 7])),
    sender=st.one_of(st.integers(min_value=0), st.sampled_from([Colour.RED, True])),
    receiver=st.integers(min_value=0),
    color=exotic,
    group=exotic,
    payload=st.one_of(values, st.floats(), st.sampled_from([b"raw", Colour.RED])),
    ordering_key=st.one_of(st.none(), st.text(max_size=8), st.sampled_from([3, Label("k")])),
)


class TestMessageTexts:
    @given(any_messages)
    @settings(max_examples=200, deadline=None)
    def test_spelled_field_by_field_as_the_generic_writers_would(self, message):
        try:
            wire = codec.message_to_wire(message)
        except codec.CodecError as exc:
            with pytest.raises(codec.CodecError) as raised:
                codec.spell_message(message)
            assert str(raised.value) == str(exc)
            return
        canonical = json.dumps(wire, sort_keys=True, separators=(",", ":"))
        texts = codec.spell_message(message)
        assert texts.canonical == canonical
        assert texts.body == json.dumps(codec.encode_value(wire), separators=(",", ":"))
        assert texts.cid == hashlib.sha256(canonical.encode()).hexdigest()[:16]
        assert texts.cid == rec.content_id(message)

    def test_spelled_once_per_object(self):
        message = Message(id="m1", sender=0, receiver=1)
        assert codec.message_texts(message) is codec.message_texts(message)
        twin = Message(id="m1", sender=0, receiver=1)
        assert codec.message_texts(twin) is not codec.message_texts(message)
        assert codec.message_texts(twin) == codec.message_texts(message)._replace(
            message=twin
        )


# -- the receive path -------------------------------------------------------------


def _count_walks(monkeypatch, calls):
    """Record in ``calls`` every entry into a generic writer of the codec
    (nested calls go through the module globals, so they count too)."""
    for name in ("dumps_value", "encode_value", "message_to_wire", "_canonical_json"):
        original = getattr(codec, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(codec, name, counted)


class TestTheReceivePathSpellsNothingAgain:
    def test_a_logging_host_walks_neither_tag_nor_message(self, tmp_path, monkeypatch):
        """Process 1 logs a USER frame from process 0 and process 0 logs
        the ack it gets back: no generic writer runs on either arrival."""
        factory = make_reliable(catalogue()["causal-rst"].factory)

        async def scenario():
            hosts = [NetHost(factory, p, [0, 0], wal_dir=str(tmp_path)) for p in (0, 1)]
            loop = asyncio.get_running_loop()
            for host in hosts:
                host.clock.start(loop)  # timers, but no sockets
                host.host.start()
                host.wal.checkpoint()  # the segment and its META are written
            # No link is up, so each frame waits in the reconnect queue.
            hosts[0].invoke(Message(id="m1", sender=0, receiver=1))
            ((_, user),) = hosts[0].transport._pending.pop(1)
            frame, _ = codec.decode_frame(user)
            calls = []
            _count_walks(monkeypatch, calls)
            hosts[1]._on_peer_frame(frame, None)
            monkeypatch.undo()
            hosts[1].host.end_batch()  # the ack leaves: a send, not counted
            ((_, ack),) = hosts[1].transport._pending.pop(0)
            frame, _ = codec.decode_frame(ack)
            _count_walks(monkeypatch, calls)
            hosts[0]._on_peer_frame(frame, None)
            monkeypatch.undo()
            for host in hosts:
                host.clock.cancel_all()
                host.wal.close()
            return calls, hosts

        calls, hosts = asyncio.run(scenario())
        assert calls == []
        assert hosts[1].stats.deliveries == 1 and not hosts[1].errors
        assert not hosts[0].errors
        (user,) = [
            r for r in read_log(str(tmp_path / "p1")).records if r.body.get("op") == "packet"
        ]
        (ack,) = [
            r for r in read_log(str(tmp_path / "p0")).records if r.body.get("op") == "packet"
        ]
        assert user.body["kind"] == "user" and user.body["tag"][0] == "rdata"
        assert ack.body["kind"] == "control" and ack.body["payload"] == ("rack", 1)


# -- refusals ---------------------------------------------------------------------


def _peer_stream_errors(data):
    """Feed ``data`` to a host over a peer link; its errors once the
    host has closed the link."""

    async def scenario():
        ports = free_ports(2)
        host = NetHost(catalogue()["fifo"].factory, 0, ports, run_id="wire")
        await host.start()  # peer 1 never starts: the test plays it
        reader, writer = await asyncio.open_connection("127.0.0.1", ports[0])
        writer.write(
            codec.encode_frame(codec.HELLO, {"process": 1, "role": "peer", "run": "wire"})
            + data
        )
        await writer.drain()
        await asyncio.wait_for(reader.read(), 5.0)  # EOF: the host hung up
        writer.close()
        errors = list(host.errors)
        await host.shutdown()
        return errors

    return asyncio.run(scenario())


_HEAD = {"src": 1, "dst": 0, "sent": 1.0, "invoked": 1.0}
_MESSAGE = Message(id="m1", sender=1, receiver=0)


def _user_frame(tag_text):
    """A USER frame from process 1 whose tag section is ``tag_text``,
    packed by hand: it may hold text no writer spells."""
    texts = [
        json.dumps(_HEAD, separators=(",", ":")),
        codec.message_texts(_MESSAGE).canonical,
        tag_text,
    ]
    sections = [text.encode("utf-8") for text in texts]
    payload = (
        struct.pack("!BB", codec.WIRE_VERSION, codec.USER)
        + struct.pack("!III", *map(len, sections))
        + b"".join(sections)
    )
    return struct.pack("!I", len(payload)) + payload


def _tag_of(data):
    frame, _ = codec.decode_frame(data)
    return packet_from_frame(frame).tag


class TestRefusals:
    def test_a_version_2_packet_frame_is_refused(self):
        data = bytearray(codec.encode_frame(codec.USER, _HEAD, (_MESSAGE, (1, 2))))
        data[4] = 2
        data = bytes(data)
        with pytest.raises(codec.UnknownVersion, match="frame version 2 is not supported"):
            codec.decode_frame(data)
        errors = _peer_stream_errors(data)
        assert any(
            error.startswith("peer stream: frame version 2 is not supported")
            for error in errors
        ), errors

    @pytest.mark.parametrize(
        "tag", [{"D": [[{"L": [1]}, 2]]}, {"S": [{"L": [1]}]}, {"F": [{"D": []}]}]
    )
    def test_an_unhashable_member_is_a_codec_error(self, tag):
        with pytest.raises(codec.MalformedFrame, match="unhashable"):
            codec.decode_value(tag)

    def test_an_unhashable_tag_ends_the_peer_link_not_its_reader(self):
        errors = _peer_stream_errors(_user_frame('{"D":[[{"L":[1]},2]]}'))
        assert any(error.startswith("peer stream: unhashable member") for error in errors)

    @pytest.mark.parametrize(
        "text, match",
        [
            ('{"T": [1,2]}', "whitespace between tokens"),
            ('{"T":[1,\n2]}', "whitespace between tokens"),
            ('[1,"a",\t2]', "whitespace between tokens"),
            ('{"S":[1,1,1]}', "repeats a member"),
            ('{"F":[2,2]}', "repeats a member"),
            ('{"D":[["a",1],["a",1]]}', "repeats a key"),
            ("1.50", "float 1.50 is not written as 1.5"),
            ("1E0", "float 1E0 is not written as 1.0"),
            ("1e400", "is not written as Infinity"),
        ],
    )
    def test_a_padded_tag_is_refused(self, text, match):
        """The receiver logs the tag section as it came, so a spelling
        the writers never produce -- one that could pad the log record --
        is a codec error."""
        with pytest.raises(codec.MalformedFrame, match=match):
            _tag_of(_user_frame(text))

    @pytest.mark.parametrize(
        "text, tag",
        [
            ('"a b\\t"', "a b\t"),
            ('{"T":["x y",1.5,-0.0,1e+16]}', ("x y", 1.5, -0.0, 1e16)),
            ('{"S":[" ","  "]}', {" ", "  "}),
        ],
    )
    def test_blanks_inside_strings_are_not_padding(self, text, tag):
        assert _tag_of(_user_frame(text)) == tag

    @pytest.mark.parametrize(
        "payload, match",
        [
            (b"\x00\x00", "no section table"),
            (struct.pack("!III", 2, 0, 5) + b"{}", "do not fill"),
            (struct.pack("!III", 2, 0, 2) + b"{}[1", "not valid JSON"),
            (struct.pack("!III", 2, 2, 0) + b"{}[]", "JSON objects"),
            (struct.pack("!III", 3, 0, 0) + b"{} ", "after its value"),
        ],
    )
    def test_a_bad_section_table_is_malformed(self, payload, match):
        head = struct.pack("!BB", codec.WIRE_VERSION, codec.CONTROL)
        data = struct.pack("!I", len(head + payload)) + head + payload
        with pytest.raises(codec.MalformedFrame, match=match):
            codec.decode_frame(data)
