"""WAL record model: kinds, bodies, and content-addressed message ids.

One WAL record is a ``(kind, body)`` pair serialized with the wire
codec's tagged value encoding (:func:`repro.net.codec.encode_value`) so
protocol tags, vector timestamps and control payloads survive the disk
round trip exactly like they survive a socket.  The on-disk framing is
versioned, length-prefixed and checksummed::

    +----------------+---------+------+-------------+-------------------+
    | length (4B BE) | version | kind | crc32 (4B)  | body (JSON utf-8) |
    +----------------+---------+------+-------------+-------------------+

``length`` covers version + kind + crc + body; ``crc32`` covers the body
bytes only.  Decoding is strict about corruption (:class:`WalCorrupt`)
but distinguishes a *truncated* record (:class:`WalTruncated`) because a
torn final write is the expected crash artifact -- segment readers drop
the torn tail instead of refusing to replay (see
:mod:`repro.wal.segment`).

Record kinds (version 2: one record per fact, see DESIGN.md section 7)
----------------------------------------------------------------------

``META``
    run metadata, written at the head of every segment (run id, process,
    protocol, format version) so a single segment file is self-describing.
``INPUT``
    one redo-log input, in processing order (:mod:`repro.wal.recovery`
    replays exactly these): ``op`` is ``invoke``, ``packet`` (a control
    packet -- an ack is one -- or the first copy of a user packet) or
    ``duplicate`` (a user packet whose message this process already
    had).  An ``invoke`` *is* the paper's ``x.s*`` and a first-copy user
    ``packet`` its ``x.r*``, at the input's ``t`` and ``p``.
``EVENT``
    one trace record: behind a host only the two events the protocol
    controls (``send``, ``deliver``); a sink with no host attached has
    no inputs to imply the other two and writes all four.
``FAULT`` / ``RETX`` / ``TIMER``
    the fault-injection, retransmission (``retx.send``, ``retx.dup``)
    and timer-fire probe streams: a replayed run's recovery history.
``CHECKPOINT``
    a load-generator progress marker (resumable soak runs).

The first record in a segment that mentions a message carries its wire
form ``m`` and content id ``cid``, later ones ``cid`` alone; version 1
(decoded, never written) inlined ``m`` everywhere, wrote all four EVENTs
beside the inputs (which therefore imply nothing) and a ``retx.ack``
RETX record per ack.  :func:`resolve_events` and :func:`resolve_inputs`
read both.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, Dict, Iterable, Iterator, Optional, Set, Tuple

from repro.events import Event, EventKind, Message
from repro.net import codec
from repro.simulation.network import Packet
from repro.simulation.trace import TraceRecord

__all__ = [
    "WAL_VERSION",
    "META",
    "EVENT",
    "INPUT",
    "FAULT",
    "RETX",
    "TIMER",
    "CHECKPOINT",
    "RECORD_KINDS",
    "KIND_NAMES",
    "WalError",
    "WalTruncated",
    "WalCorrupt",
    "UnknownWalVersion",
    "WalRecord",
    "content_id",
    "frame_text",
    "encode_record",
    "decode_record",
    "meta_record",
    "event_record",
    "event_text",
    "invoke_record",
    "invoke_text",
    "packet_record",
    "packet_text",
    "resolve_events",
    "resolve_inputs",
    "probe_record",
    "checkpoint_record",
]

#: On-disk format version written; bump on any incompatible framing/body
#: change.  Version 1 is still decoded: stored logs are evidence.
WAL_VERSION = 2

#: Upper bound on one record's (version + kind + crc + body) size.
MAX_RECORD_BYTES = 4 * 1024 * 1024

# -- record kinds -------------------------------------------------------------

META = 1  # run/segment metadata (head of every segment)
EVENT = 2  # one trace record: {t, p, k, [m,] cid}
INPUT = 3  # one redo input: invoke, packet or duplicate, processing order
FAULT = 4  # fault.* / crash / restart probe record
RETX = 5  # retx.* probe record (ARQ recovery traffic)
TIMER = 6  # a protocol timer fired
CHECKPOINT = 7  # load-generator progress marker (soak resume)

RECORD_KINDS = frozenset({META, EVENT, INPUT, FAULT, RETX, TIMER, CHECKPOINT})

KIND_NAMES = {
    META: "META",
    EVENT: "EVENT",
    INPUT: "INPUT",
    FAULT: "FAULT",
    RETX: "RETX",
    TIMER: "TIMER",
    CHECKPOINT: "CHECKPOINT",
}

#: Record heads (times, process indices, sequence numbers) are scalars,
#: spelled without a walk; a body's values go through the generic writer.
#: The text builders below pass an exact ``int`` or finite ``float`` head
#: field to ``%s`` as it is -- its own ``__repr__``, the spelling ``json``
#: gives it (``t - t`` is NaN for a non-finite float) -- and anything
#: else through this.
_field = codec.scalar_text

_LENGTH = struct.Struct("!I")
_HEAD = struct.Struct("!BBI")  # version, kind, crc32(body)
_FRAME = struct.Struct("!IBBI")  # the two above as one pack

_EVENT_KIND_TO_NAME = {
    EventKind.INVOKE: "invoke",
    EventKind.SEND: "send",
    EventKind.RECEIVE: "receive",
    EventKind.DELIVER: "deliver",
}
_NAME_TO_EVENT_KIND = {name: kind for kind, name in _EVENT_KIND_TO_NAME.items()}


# -- errors -------------------------------------------------------------------


class WalError(ValueError):
    """Base error for WAL decoding problems."""


class WalTruncated(WalError):
    """The buffer ends inside a record (the torn-final-write artifact)."""


class WalCorrupt(WalError):
    """A record is structurally invalid or fails its checksum."""


class UnknownWalVersion(WalError):
    """The record claims a WAL format version this reader cannot parse."""


# -- the record ---------------------------------------------------------------


class WalRecord:
    """One durable record: a kind and a JSON-safe body.

    The fixed-shape constructors below build their body straight to the
    on-disk ``text`` and leave ``body`` to be decoded from it on first
    use, so a constructed record's body is by construction what a reader
    of the log will see.  ``version`` is the format it was read in
    (equality ignores it).
    """

    __slots__ = ("kind", "text", "_body", "version")

    def __init__(
        self,
        kind: int,
        body: Optional[Dict[str, Any]] = None,
        *,
        text: Optional[str] = None,
        version: int = WAL_VERSION,
    ):
        self.kind = kind
        self.text = text
        self._body = body
        self.version = version

    @property
    def body(self) -> Dict[str, Any]:
        if self._body is None:
            self._body = _parse_body(self.text)
        return self._body

    @property
    def kind_name(self) -> str:
        return KIND_NAMES.get(self.kind, str(self.kind))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WalRecord):
            return NotImplemented
        return self.kind == other.kind and self.body == other.body

    def __repr__(self) -> str:
        return "WalRecord(kind=%r, body=%r)" % (self.kind, self.body)


def _message_text(message: Message, seen: Optional[Set[str]]) -> str:
    """How a record mentions ``message``: ``m`` + ``cid``, or -- when its
    content id is in ``seen``, the ids the open segment holds a body for,
    which it otherwise joins -- ``cid`` alone.  The texts are the codec's
    (:func:`repro.net.codec.message_texts`), spelled once per object."""
    cid, _canonical, body, _message = codec.message_texts(message)
    if seen is not None:
        if cid in seen:
            return '["cid","%s"]' % cid
        seen.add(cid)
    return '["m",%s],["cid","%s"]' % (body, cid)


def content_id(message: Message) -> str:
    """A stable, content-addressed id for ``message``.

    The hash covers the canonical JSON of the message's wire form
    (sorted keys, no whitespace), so the same message content yields the
    same id in every process, every run, and every replay -- the WAL's
    cross-host join key.
    """
    return codec.spell_message(message).cid


# -- framing ------------------------------------------------------------------

def _parse_body(text: str) -> Dict[str, Any]:
    """A record body's value: one C scan of the text, then its dict.

    Every writer puts the body's value at character 0 and nothing after
    it.  Any other text -- padded with whitespace, which no writer does,
    or not one JSON value -- goes to ``json.loads``, which reads the
    first and raises its usual error on the second.  A ``{"D": [[key,
    value], ...]}`` body with string keys, each once, is built in one
    loop, only its wrapped values going through
    :func:`~repro.net.codec.decode_value`; any other value goes to that
    function whole, which decodes or rejects it.  Malformed input raises
    ``ValueError``, or ``RecursionError`` from the scanner when nested
    too deep; :func:`decode_record` reports either as :class:`WalCorrupt`.
    """
    try:
        value, end = codec._scan_json(text, 0)
    except (StopIteration, ValueError):
        end = -1
    if end != len(text):
        value = json.loads(text)
    pairs = value.get("D") if type(value) is dict and len(value) == 1 else None
    if type(pairs) is list:
        body: Dict[str, Any] = {}
        decode = codec.decode_value
        try:
            for pair in pairs:
                if type(pair) is not list or len(pair) != 2:
                    break
                key, item = pair
                if type(key) is not str or type(item) is list:
                    break
                body[key] = decode(item) if type(item) is dict else item
            else:
                if len(body) == len(pairs):
                    return body
        except (codec.CodecError, RecursionError):
            pass
    return codec.decode_value(value)


def frame_text(kind: int, text: str) -> bytes:
    """One record's bytes: the body ``text`` in utf-8 behind its length,
    version, kind and crc -- the one framing every writer goes through.
    Raises :class:`WalError` past :data:`MAX_RECORD_BYTES`."""
    body = text.encode("utf-8")
    size = _HEAD.size + len(body)
    if size > MAX_RECORD_BYTES:
        raise WalError("record of %d bytes exceeds the 4 MiB bound" % size)
    return _FRAME.pack(size, WAL_VERSION, kind, zlib.crc32(body)) + body


def encode_record(record: WalRecord) -> bytes:
    """Serialize one record with length prefix, version, kind and crc."""
    if record.kind not in RECORD_KINDS:
        raise WalError("unknown WAL record kind %r" % (record.kind,))
    # No sort_keys: record bodies are built with deterministic insertion
    # order, so the bytes are already reproducible; only content_id needs
    # the fully canonical (sorted) form.
    text = record.text if record.text is not None else codec.dumps_value(record.body)
    return frame_text(record.kind, text)


def decode_record(buffer: bytes, offset: int = 0) -> Tuple[WalRecord, int]:
    """Decode the record at ``offset``; returns ``(record, next_offset)``.

    Raises :class:`WalTruncated` if the buffer ends mid-record,
    :class:`UnknownWalVersion` on a format version mismatch, and
    :class:`WalCorrupt` on anything structurally wrong (bad kind, crc
    mismatch, malformed JSON, a body nested past the recursion limit).
    """
    end = len(buffer)
    if offset + _FRAME.size <= end:
        size, version, kind, crc = _FRAME.unpack_from(buffer, offset)
    elif offset + _LENGTH.size <= end:
        # No room for a whole head: one of the size checks below raises.
        (size,) = _LENGTH.unpack_from(buffer, offset)
    else:
        raise WalTruncated(
            "record length prefix truncated at offset %d" % offset
        )
    if size < _HEAD.size or size > MAX_RECORD_BYTES:
        raise WalCorrupt("implausible record size %d at offset %d" % (size, offset))
    start = offset + _LENGTH.size
    if start + size > end:
        raise WalTruncated(
            "record of %d bytes truncated at offset %d (%d available)"
            % (size, offset, end - start)
        )
    if version not in (1, WAL_VERSION):
        raise UnknownWalVersion(
            "WAL version %d (this reader speaks 1 and %d)" % (version, WAL_VERSION)
        )
    if kind not in RECORD_KINDS:
        raise WalCorrupt("unknown record kind %d at offset %d" % (kind, offset))
    body_bytes = buffer[start + _HEAD.size : start + size]
    if zlib.crc32(body_bytes) & 0xFFFFFFFF != crc:
        raise WalCorrupt("crc mismatch at offset %d" % offset)
    try:
        body = _parse_body(body_bytes.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise WalCorrupt("malformed body at offset %d: %s" % (offset, exc)) from exc
    if not isinstance(body, dict):
        raise WalCorrupt("record body at offset %d is not an object" % offset)
    return WalRecord(kind=kind, body=body, version=version), start + size


# -- constructors / accessors -------------------------------------------------


def meta_record(fields: Dict[str, Any]) -> WalRecord:
    """A segment-head META record (``format`` stamped automatically)."""
    body = dict(fields)
    body.setdefault("format", WAL_VERSION)
    return WalRecord(kind=META, body=body)


def event_text(
    record: TraceRecord, message: Message, seen: Optional[Set[str]] = None
) -> str:
    """One trace record's EVENT body text (``seen``: :func:`_message_text`)."""
    t, p = record.time, record.process
    if type(t) is not float or t - t:
        t = _field(t)
    if type(p) is not int:
        p = _field(p)
    return '{"D":[["t",%s],["p",%s],["k","%s"],%s]}' % (
        t,
        p,
        _EVENT_KIND_TO_NAME[record.event.kind],
        _message_text(message, seen),
    )


def event_record(
    record: TraceRecord, message: Message, seen: Optional[Set[str]] = None
) -> WalRecord:
    """One trace record as an EVENT record (:func:`event_text`)."""
    return WalRecord(EVENT, text=event_text(record, message, seen))


def invoke_text(
    t: float, process: int, message: Message, seen: Optional[Set[str]] = None
) -> str:
    """The INPUT body text of ``message``'s invoke at ``process``."""
    if type(t) is not float or t - t:
        t = _field(t)
    if type(process) is not int:
        process = _field(process)
    return '{"D":[["t",%s],["p",%s],["op","invoke"],%s]}' % (
        t,
        process,
        _message_text(message, seen),
    )


def invoke_record(
    t: float, process: int, message: Message, seen: Optional[Set[str]] = None
) -> WalRecord:
    """A redo input: the user invoked ``message`` at ``process``."""
    return WalRecord(INPUT, text=invoke_text(t, process, message, seen))


def packet_text(
    t: float,
    process: int,
    packet: Packet,
    op: str = "packet",
    seen: Optional[Set[str]] = None,
) -> str:
    """The INPUT body text of ``packet``'s arrival at ``process``.  The
    tag or payload is the text the packet came off the wire as, if it
    did: the sender spelled it with this writer, and decoding it
    validated it."""
    value = packet.wire_text
    if packet.is_user and packet.message is not None:
        if value is None:
            value = codec.dumps_value(packet.tag)
        tail = '%s,["tag",%s]' % (_message_text(packet.message, seen), value)
    else:
        if value is None:
            value = codec.dumps_value(packet.payload)
        tail = '["payload",%s]' % value
    sent, src, dst, uid, cs = (
        packet.send_time,
        packet.src,
        packet.dst,
        packet.uid,
        packet.channel_seq,
    )
    if type(t) is not float or t - t:
        t = _field(t)
    if type(sent) is not float or sent - sent:
        sent = _field(sent)
    if not (type(process) is type(src) is type(dst) is type(uid) is type(cs) is int):
        process, src, dst, uid, cs = map(_field, (process, src, dst, uid, cs))
    return (
        '{"D":[["t",%s],["p",%s],["op","%s"],["src",%s],["dst",%s],'
        '["kind",%s],["sent",%s],["uid",%s],["cs",%s],%s]}'
        % (t, process, op, src, dst, _field(packet.kind), sent, uid, cs, tail)
    )


def packet_record(
    t: float,
    process: int,
    packet: Packet,
    op: str = "packet",
    seen: Optional[Set[str]] = None,
) -> WalRecord:
    """A redo input: ``packet`` arrived at ``process`` (``op`` says
    ``"duplicate"`` when its message already had; :func:`packet_text`)."""
    return WalRecord(INPUT, text=packet_text(t, process, packet, op, seen))


# -- the resolver -------------------------------------------------------------

#: The event a version-2 INPUT that mentions a message *is*, by ``op``
#: (a ``duplicate`` is a re-arrival, not a second ``x.r*``).
_IMPLIED = {"invoke": EventKind.INVOKE, "packet": EventKind.RECEIVE}


def _resolved(
    records: Iterable[WalRecord], verify: bool
) -> Iterator[Tuple[WalRecord, Dict[str, Any], float, int, Optional[Message]]]:
    """Every EVENT and INPUT record as ``(record, body, t, process,
    message)``, ``message`` being the one it mentions, if any.

    A body's ``m`` is decoded (and, with ``verify``, checked against its
    ``cid``) where it stands; a ``cid`` alone is looked up among the
    bodies read so far.  A segment repeats the body at its first
    mention, so one segment's records resolve without the others.
    """
    bodies: Dict[Optional[str], Message] = {}
    for record in records:
        if record.kind != EVENT and record.kind != INPUT:
            continue
        body = record.body
        wire, cid = body.get("m"), body.get("cid")
        try:
            t, process = float(body["t"]), int(body["p"])
            if wire is not None:
                message = bodies[cid] = codec.message_from_wire(wire)
            else:
                message = None if cid is None else bodies[cid]
        except (KeyError, TypeError, ValueError, codec.CodecError) as exc:
            raise WalCorrupt(
                "bad %s body %r: %s" % (record.kind_name, body, exc)
            ) from exc
        if verify and wire is not None and cid not in (None, content_id(message)):
            raise WalCorrupt(
                "content id mismatch for message %r (stored %s)" % (message.id, cid)
            )
        yield record, body, t, process, message


def resolve_events(
    records: Iterable[WalRecord], verify: bool = True
) -> Iterator[Tuple[float, int, Event, Message]]:
    """The log's system events, ``(t, process, event, message)`` in order:
    EVENT records as written and, where they stand, the events a
    version-2 INPUT implies (version 1 wrote those as EVENTs too)."""
    for record, body, t, process, message in _resolved(records, verify):
        if record.kind == EVENT:
            kind = _NAME_TO_EVENT_KIND.get(body.get("k"))
            if kind is None or message is None:
                raise WalCorrupt("bad EVENT body %r" % (body,))
        else:
            kind = _IMPLIED.get(body.get("op")) if record.version > 1 else None
        if kind is not None and message is not None:
            yield t, process, Event(message.id, kind), message


def resolve_inputs(
    records: Iterable[WalRecord], process_id: Optional[int] = None
) -> Iterator[Tuple[str, float, int, Any]]:
    """The redo inputs (of ``process_id``), ``(op, t, process, payload)``.

    ``payload`` is the :class:`~repro.events.Message` of an ``invoke``
    and the rebuilt :class:`~repro.simulation.network.Packet` of a
    ``packet`` or ``duplicate``.  Version 1 logged a re-arrival as a
    plain ``packet``; it is told apart here, so no consumer has to.
    """
    received: Set[Tuple[int, str]] = set()
    for record, body, t, process, message in _resolved(records, False):
        if record.kind != INPUT:
            continue
        op = body.get("op")
        if op not in ("invoke", "packet", "duplicate"):
            raise WalCorrupt("unknown input op %r" % (op,))
        try:
            payload: Any = message if op == "invoke" else Packet(
                src=int(body["src"]),
                dst=int(body["dst"]),
                kind=body["kind"],
                message=message,
                tag=body.get("tag"),
                payload=body.get("payload"),
                send_time=float(body.get("sent", 0.0)),
                uid=int(body.get("uid", 0)),
                channel_seq=int(body.get("cs", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise WalCorrupt("bad INPUT body %r: %s" % (body, exc)) from exc
        if payload is None:
            raise WalCorrupt("INPUT invoke body %r names no message" % (body,))
        if record.version == 1 and op == "packet" and message is not None:
            if (process, message.id) in received:
                op = "duplicate"
            received.add((process, message.id))
        if process_id is None or process == process_id:
            yield op, t, process, payload


def probe_record(
    kind: int, t: float, process: int, probe: str, data: Dict[str, Any]
) -> WalRecord:
    """A FAULT/RETX/TIMER record taped from a bus probe."""
    if kind not in (FAULT, RETX, TIMER):
        raise WalError("probe records must be FAULT, RETX or TIMER")
    try:
        data_text = codec.dumps_value(dict(data))
    except codec.CodecError:
        # Probe payloads are free-form; degrade to repr rather than
        # lose the record.
        data_text = codec.dumps_value({key: repr(value) for key, value in data.items()})
    return WalRecord(
        kind,
        text='{"D":[["t",%s],["p",%s],["probe",%s],["data",%s]]}'
        % (_field(t), _field(process), _field(probe), data_text),
    )


def checkpoint_record(t: float, fields: Dict[str, Any]) -> WalRecord:
    """A load-generator CHECKPOINT (progress marker for soak resume)."""
    body = dict(fields)
    body["t"] = t
    return WalRecord(kind=CHECKPOINT, body=body)
