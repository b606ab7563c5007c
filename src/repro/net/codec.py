"""Versioned length-prefixed wire frames for the real-network runtime.

Every byte that crosses a socket in :mod:`repro.net` is one *frame*::

    +----------------+---------+------+------------------+
    | length (4B BE) | version | kind | body (JSON utf-8) |
    +----------------+---------+------+------------------+

``length`` covers version + kind + body.  The body is a JSON object
whose values use a small tagged encoding (:func:`encode_value`) so the
protocol tags the catalogue actually ships -- ints, tuples, nested
tuples, dicts with int keys, sets -- survive the wire without pickling
(and without pickle's security surface).

A USER or CONTROL frame (a packet) has a sectioned body instead::

    +--------------------------+------+---------+---------------------+
    | 3 x length (4B BE each)  | head | message | tag / payload       |
    +--------------------------+------+---------+---------------------+

``head`` is a small JSON object (``src``, ``dst``, ``sent``, and on a
USER frame ``invoked``); ``message`` is
the message's canonical text (:func:`message_texts`, empty on CONTROL)
and the last section the tag's or payload's :func:`dumps_value` text.
The sender splices texts it already has and the receiver keeps the
last one (:attr:`Frame.value_text`), so a packet is spelled once per
hop.  This module is the one place a value gets spelled: the WAL's
record bodies and content ids come from the same writers, and a RECORDS
frame (the observer tap) carries WAL ``EVENT`` records framed as on disk.

Decoding is strict: anything malformed raises a descriptive
:class:`CodecError` subclass instead of silently degrading, because a
corrupt frame on a protocol channel is indistinguishable from a
protocol bug and must be surfaced as such.

Every socket the runtime accepts or dials is read by one
:class:`FrameLink`, which decodes each read in the callback that made it.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import re
import struct
import weakref
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_string
from typing import (
    Any,
    Callable,
    Dict,
    List,
    MutableSequence,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.events import Message

#: Wire protocol version this build speaks.  Version 8 spells the
#: causal-rst tag as one flat row-major list of n*n ints, not a list of n
#: rows (see :mod:`repro.protocols.causal_rst`); version 7 lets an ARQ
#: segment's tag carry a piggybacked acknowledgment as a 4th field (see
#: :mod:`repro.protocols.reliable`); version 6 retired PROBE (a
#: host bridged fault and link probes to its observers, and a run's link
#: counters now come from each host's METRICS); version 5 retired INVOKE (a
#: load client offers every message as an INVOKE_BATCH row, to hosts and
#: shard workers alike) and made READY state the endpoint's layout;
#: version 4 replaced the EVENT frame with RECORDS; version 3 gave USER
#: and CONTROL frames their sectioned body; version 2 added the optional
#: ordering-key field on USER message bodies and the batch frame kinds
#: the sharded runtime uses.  Every endpoint of a run is the same build,
#: so a frame of any other version is refused.
WIRE_VERSION = 8

#: Upper bound on one frame's (version + kind + body) size.  Generous for
#: protocol traffic (tags are tens of bytes) while still bounding the
#: damage of a corrupt or hostile length prefix.
MAX_FRAME_BYTES = 4 * 1024 * 1024

_LENGTH = struct.Struct("!I")
_HEAD = struct.Struct("!BB")  # version, kind


# -- frame kinds -------------------------------------------------------------

HELLO = 1  # connection handshake: {process, role, run}
READY = 2  # endpoint -> client: rendezvous complete, and the layout
USER = 3  # a released user message: src/dst/message/tag/timestamps
CONTROL = 4  # a protocol control message: src/dst/payload
# 5 was INVOKE, one message per frame (retired in version 5)
# 6 was EVENT, one JSON trace record per frame (retired in version 4)
# 7 was PROBE, one bridged obs probe (retired in version 6)
STATS = 8  # stats request (empty body) and reply (counters + latencies)
DRAIN = 9  # load generator -> host: no further invokes are coming
BYE = 10  # orderly shutdown request/ack
TRACE = 11  # flight-recorder pull: request (empty) and dump reply
METRICS = 12  # metrics pull: request (empty) and OpenMetrics reply
HEARTBEAT = 13  # liveness probe on peer links: {process, nonce[, echo]}
BACKPRESSURE = 14  # host -> load client: {process, state: "high"|"low"}
USER_BATCH = 15  # shard runtime: one coalesced flush of user rows per peer
INVOKE_BATCH = 16  # load generator -> endpoint: {rows: [...]} invoke rows
COLLECT = 17  # coordinator -> shard worker: per-key event rows for the oracle
RECORDS = 18  # host -> observer: a chunk of WAL EVENT records (live monitoring tap)

KIND_NAMES = {
    HELLO: "hello",
    READY: "ready",
    USER: "user",
    CONTROL: "control",
    STATS: "stats",
    DRAIN: "drain",
    BYE: "bye",
    TRACE: "trace",
    METRICS: "metrics",
    HEARTBEAT: "heartbeat",
    BACKPRESSURE: "backpressure",
    USER_BATCH: "user_batch",
    INVOKE_BATCH: "invoke_batch",
    COLLECT: "collect",
    RECORDS: "records",
}

FRAME_KINDS = frozenset(KIND_NAMES)


# -- errors ------------------------------------------------------------------


class CodecError(ValueError):
    """A wire frame could not be encoded or decoded."""


class FrameTruncated(CodecError):
    """The stream ended (or the buffer ran out) in the middle of a frame."""


class FrameOversized(CodecError):
    """A length prefix exceeded :data:`MAX_FRAME_BYTES`."""


class UnknownVersion(CodecError):
    """The frame's version byte is not :data:`WIRE_VERSION`."""


class UnknownFrameKind(CodecError):
    """The frame's kind byte names no known frame type."""


class MalformedFrame(CodecError):
    """The frame's body is not valid JSON or violates the value encoding."""


# -- value (de)serialization -------------------------------------------------

_INFINITY = float("inf")
_SCALAR_TYPES = (bool, int, float, str)


def _unencodable(value: Any) -> CodecError:
    return CodecError(
        "value of type %s is not wire-encodable: %r" % (type(value).__name__, value)
    )


def _by_base(table: Dict[type, Callable[[Any], Any]], value: Any) -> Any:
    """``table``'s entry for the first base of ``type(value)`` it names,
    in the order the entries were listed: how every walk below handles
    a subclass (an ``IntEnum``, a ``str`` subclass, a namedtuple...)
    after its one-lookup dispatch on the exact type missed."""
    for base, handle in table.items():
        if isinstance(value, base):
            return handle(value)
    raise _unencodable(value)


def _pass(value: Any) -> Any:
    return value


#: Exact type -> wrapper tree, in subclass-resolution order.
_TREES: Dict[type, Callable[[Any], Any]] = {
    type(None): _pass,
    bool: _pass,
    str: _pass,
    int: _pass,
    float: _pass,
    tuple: lambda value: {"T": [encode_value(item) for item in value]},
    list: lambda value: {"L": [encode_value(item) for item in value]},
    set: lambda value: {"S": [encode_value(item) for item in sorted(value, key=repr)]},
    frozenset: lambda value: {
        "F": [encode_value(item) for item in sorted(value, key=repr)]
    },
    dict: lambda value: {
        "D": [[encode_value(k), encode_value(v)] for k, v in value.items()]
    },
}


def encode_value(value: Any) -> Any:
    """Map a tag/payload value onto JSON-safe structures, losslessly.

    Scalars pass through; containers are wrapped in a one-key object
    (``{"T": [...]}`` tuple, ``{"L": [...]}`` list, ``{"S"/"F": [...]}``
    set/frozenset, ``{"D": [[k, v], ...]}`` dict) so tuples and non-string
    keys survive the round trip.  Unsupported types raise
    :class:`CodecError` -- protocols must keep tags in the same wire-safe
    vocabulary :func:`~repro.simulation.trace.estimate_size` prices.
    """
    tree = _TREES.get(type(value))
    if tree is None:
        return _by_base(_TREES, value)
    return tree(value)


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


#: Exact scalar type -> its JSON spelling (``json``'s, non-finite floats
#: included).
_SCALAR_TEXTS: Dict[type, Callable[[Any], str]] = {
    type(None): lambda value: "null",
    bool: lambda value: "true" if value else "false",
    str: _json_string,
    int: int.__repr__,
    float: _float_text,
}

_INT = frozenset({int})


def _items_text(value: Any) -> str:
    """A list's or tuple's items, comma-separated; a row of exact ints
    (a vector clock, RST's flat matrix) is spelled in one join, not per
    item."""
    if _INT.issuperset(map(type, value)):
        return ",".join(map(int.__repr__, value))
    return ",".join(map(dumps_value, value))


#: Exact type -> its :func:`dumps_value` text, in subclass-resolution order.
_TEXTS: Dict[type, Callable[[Any], str]] = {
    **_SCALAR_TEXTS,
    tuple: lambda value: '{"T":[%s]}' % _items_text(value),
    list: lambda value: '{"L":[%s]}' % _items_text(value),
    set: lambda value: '{"S":[%s]}'
    % ",".join(map(dumps_value, sorted(value, key=repr))),
    frozenset: lambda value: '{"F":[%s]}'
    % ",".join(map(dumps_value, sorted(value, key=repr))),
    dict: lambda value: '{"D":[%s]}'
    % ",".join(["[%s,%s]" % (dumps_value(k), dumps_value(v)) for k, v in value.items()]),
}


def dumps_value(value: Any) -> str:
    """Exactly ``json.dumps(encode_value(value), separators=(",", ":"))``.

    One pass from the value to compact JSON text: no intermediate
    wrapper tree and no per-call ``JSONEncoder``.  Same vocabulary as
    :func:`encode_value` and the same :class:`CodecError` outside it;
    scalars are spelled the way :mod:`json` spells them, non-finite
    floats included (``NaN`` / ``Infinity``).
    """
    text = _TEXTS.get(type(value))
    if text is None:
        return _by_base(_TEXTS, value)
    return text(value)


def scalar_text(value: Any) -> str:
    """One scalar field's :func:`dumps_value` text, without a walk.

    For a field that is a scalar by shape -- a time, a process index, a
    sequence number: one lookup (anything else still gets the generic
    writer)."""
    text = _SCALAR_TEXTS.get(type(value))
    if text is None:
        return dumps_value(value)
    return text(value)


def _decode_pairs(items: Any) -> Dict[Any, Any]:
    if not isinstance(items, list):
        raise MalformedFrame("dict encoding must be a list of pairs")
    scalars = _EXACT_SCALARS
    decoded = {}
    try:
        for pair in items:
            if not isinstance(pair, list) or len(pair) != 2:
                raise MalformedFrame("dict encoding must be a list of pairs")
            key, item = pair
            if type(key) not in scalars:
                key = decode_value(key)
            if type(item) not in scalars:
                item = decode_value(item)
            decoded[key] = item
    except (CodecError, TypeError, RecursionError):
        # A bad pair anywhere is the error, whatever an earlier pair's
        # decode raised first.
        if any(not isinstance(pair, list) or len(pair) != 2 for pair in items):
            raise MalformedFrame("dict encoding must be a list of pairs") from None
        raise
    if len(decoded) != len(items):
        raise MalformedFrame("dict encoding repeats a key: %r" % (items,))
    return decoded


def _decode_members(kind: type, items: list) -> Any:
    decoded = kind(map(decode_value, items))
    if len(decoded) != len(items):
        raise MalformedFrame("set encoding repeats a member: %r" % (items,))
    return decoded


#: Container tag (``D`` aside) -> the type it decodes to.
_CONTAINERS: Dict[str, type] = {"T": tuple, "L": list, "S": set, "F": frozenset}
_EXACT_SCALARS = frozenset({type(None), *_SCALAR_TYPES})


def decode_value(value: Any) -> Any:
    """Strict inverse of :func:`encode_value`.

    A JSON scalar is taken as it is, so a container calls this once per
    item that is itself a container: a ``T`` / ``L`` of plain scalars
    (a vector clock, RST's flat matrix) is copied in one C-level step.
    Nesting past the recursion limit is :class:`MalformedFrame`.
    """
    if type(value) is not dict:  # one test for a wrapper, the common case
        if type(value) in _EXACT_SCALARS or isinstance(value, _SCALAR_TYPES):
            return value
        if not isinstance(value, dict):
            raise MalformedFrame("undecodable wire value %r" % (value,))
    if len(value) != 1:
        raise MalformedFrame(
            "container wrapper must have exactly one tag key, got %r"
            % (sorted(value),)
        )
    ((tag, items),) = value.items()
    try:
        if tag == "D":
            return _decode_pairs(items)
        kind = _CONTAINERS.get(tag)
        if kind is None:
            raise MalformedFrame("unknown container tag %r" % (tag,))
        if not isinstance(items, list):
            raise MalformedFrame("container items must be a list, got %r" % (items,))
        if kind is set or kind is frozenset:
            return _decode_members(kind, items)
        scalars = _EXACT_SCALARS
        if scalars.issuperset(map(type, items)):
            return kind(items)
        return kind(
            [item if type(item) in scalars else decode_value(item) for item in items]
        )
    except TypeError as exc:
        # A set member or dict key that decodes to a list, dict or set.
        raise MalformedFrame("unhashable member in %r: %s" % (value, exc)) from exc
    except RecursionError:
        raise MalformedFrame("wire value nested too deeply") from None


def message_to_wire(message: Message) -> Dict[str, Any]:
    """A :class:`~repro.events.Message` as a frame-body fragment.

    The ordering key (a wire-version-2 addition) is only emitted when
    explicitly set, so unkeyed bodies remain byte-identical to what a
    version-1 build produced.
    """
    body = {
        "id": message.id,
        "sender": message.sender,
        "receiver": message.receiver,
        "color": message.color,
        "group": message.group,
        "payload": encode_value(message.payload),
    }
    if message.ordering_key is not None:
        body["key"] = message.ordering_key
    return body


def message_from_wire(body: Dict[str, Any]) -> Message:
    """Rebuild a :class:`~repro.events.Message`; strict about shape."""
    try:
        return Message(
            id=body["id"],
            sender=body["sender"],
            receiver=body["receiver"],
            color=body.get("color"),
            group=body.get("group"),
            payload=decode_value(body.get("payload")),
            ordering_key=body.get("key"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFrame("bad message fields %r: %s" % (body, exc)) from exc


def invoke_rows(body: Dict[str, Any], processes: int) -> List[list]:
    """An INVOKE_BATCH body's rows, each checked before any is used.

    A row is ``[id, sender, receiver, key, offered, color]``: ``key`` is
    the explicit ordering key or ``None`` (the channel), ``offered`` the
    generator's wall time and ``color`` a string or ``None``.  A row of
    another shape, or naming a process outside ``range(processes)``,
    raises :class:`MalformedFrame` for the whole frame, so an endpoint
    takes all of a batch or none of it."""
    rows = body.get("rows")
    if type(rows) is not list:
        raise MalformedFrame("invoke batch without a rows list: %r" % (rows,))
    for row in rows:
        try:
            message_id, sender, receiver, key, offered, color = row
        except (TypeError, ValueError):
            sender = None  # fails the first test below
        if not (
            type(sender) is int
            and type(receiver) is int
            and 0 <= sender < processes
            and 0 <= receiver < processes
            and type(message_id) is str
            and (key is None or type(key) is str)
            and type(offered) in (int, float)
            and (color is None or type(color) is str)
        ):
            raise MalformedFrame(
                "invoke row %r is not [id, sender, receiver, key, offered, "
                "color] over processes 0..%d" % (row, processes - 1)
            )
    return rows


# -- the texts of a message --------------------------------------------------


class MessageTexts(NamedTuple):
    """Everything a message is spelled as, by :func:`spell_message`."""

    #: The content id: sha256 of ``canonical``, 16 hex digits.
    cid: str
    #: ``message_to_wire`` as sorted compact JSON: what the content id
    #: hashes and a USER frame's message section carries.
    canonical: str
    #: ``dumps_value(message_to_wire(message))``: the ``m`` of a WAL
    #: record (so its payload is spelled from its wrapper tree).
    body: str
    message: Message


#: The canonical form (sorted keys, no whitespace) for a message with a
#: non-scalar attribute, which :func:`spell_message` leaves to it.
_canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def spell_message(message: Message) -> MessageTexts:
    """The texts of ``message``, written field by field.

    The same strings as the generic writers would produce (pinned by
    ``tests/test_wal_v2_golden.py`` and a differential property test):
    an attribute of any other type than a JSON scalar sends the whole
    message through them instead, and a container payload through
    :func:`dumps_value`.
    """
    try:
        id_, sender, receiver, color, group, key = [
            _SCALAR_TEXTS[type(field)](field)
            for field in (
                message.id,
                message.sender,
                message.receiver,
                message.color,
                message.group,
                message.ordering_key,
            )
        ]
    except KeyError:
        wire = message_to_wire(message)
        canonical, body = _canonical_json(wire), dumps_value(wire)
    else:
        payload = message.payload
        text = _SCALAR_TEXTS.get(type(payload))
        if text is not None:
            canonical_payload = body_payload = text(payload)
        else:
            canonical_payload = dumps_value(payload)
            body_payload = dumps_value(encode_value(payload))
        # The key is in the wire form only when set (sorted: after "id").
        keyed = message.ordering_key is not None
        canonical = (
            '{"color":%s,"group":%s,"id":%s%s,"payload":%s,"receiver":%s,"sender":%s}'
            % (
                color,
                group,
                id_,
                ',"key":' + key if keyed else "",
                canonical_payload,
                receiver,
                sender,
            )
        )
        body = (
            '{"D":[["id",%s],["sender",%s],["receiver",%s],["color",%s],'
            '["group",%s],["payload",%s]%s]}'
            % (
                id_,
                sender,
                receiver,
                color,
                group,
                body_payload,
                ',["key",%s]' % key if keyed else "",
            )
        )
    cid = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
    return MessageTexts(cid, canonical, body, message)


#: ``id(message) -> its texts``.  Keyed on the object, not on
#: ``Message.__eq__``: ``Message(payload=1)`` and ``Message(payload=True)``
#: compare and hash equal yet are spelled differently.  An entry holds its
#: message, so the ``id`` cannot be recycled while it is cached; a miss
#: only spells the message again, so the cache holds little more than the
#: messages in flight.
_MESSAGE_CACHE_SIZE = 1024
_message_cache: Dict[int, MessageTexts] = {}


def message_texts(message: Message) -> MessageTexts:
    """The :func:`spell_message` texts of ``message``, once per object.

    The frames that carry it and the log records that mention it share
    them.  Messages are frozen, so one whose payload is mutated after it
    was first spelled keeps its first spelling."""
    texts = _message_cache.get(id(message))
    if texts is None:
        if len(_message_cache) >= _MESSAGE_CACHE_SIZE:
            # Start over: only messages in flight are looked up again.
            _message_cache.clear()
        texts = _message_cache[id(message)] = spell_message(message)
    return texts


# -- frames ------------------------------------------------------------------


@dataclass(frozen=True)
class Frame:
    """One decoded frame: its kind byte and JSON body.

    A USER or CONTROL frame's body is flat -- its head, a USER frame's
    message fields, and ``tag`` / ``payload`` as :func:`encode_value`
    trees -- and ``value_text`` is that last section as received.  A
    RECORDS frame's body is its record bytes."""

    kind: int
    body: Any
    value_text: Optional[str] = None

    @property
    def kind_name(self) -> str:
        return KIND_NAMES.get(self.kind, "unknown(%d)" % self.kind)


#: One encoder for every frame (``json.dumps`` with non-default
#: separators would construct one per call).  Frames reject NaN/inf,
#: except inside a packet's sections, which :func:`dumps_value` spells.
_frame_json = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode

#: A packet frame's section table: head, message and value lengths.
_SECTIONS = struct.Struct("!III")
#: Packet frame kind -> the flat body field its last section holds.
_VALUE_FIELDS = {USER: "tag", CONTROL: "payload"}
#: The flat body fields of a USER frame's message section.
_MESSAGE_FIELDS = ("id", "sender", "receiver", "color", "group", "payload", "key")


def _packet_payload(
    kind: int, body: Dict[str, Any], packet: Optional[Tuple[Optional[Message], Any]]
) -> bytes:
    """A USER/CONTROL frame's sectioned body (see :func:`encode_frame`;
    the flat-body branch is the layer benchmark's alone)."""
    if packet is not None:
        message, value = packet
        head = body
        message_text = "" if message is None else message_texts(message).canonical
        value_text = dumps_value(value)
    else:
        field = _VALUE_FIELDS[kind]
        moved = _MESSAGE_FIELDS if kind == USER else ()
        head = {k: v for k, v in body.items() if k != field and k not in moved}
        wire = {k: body[k] for k in moved if k in body}
        message_text = _canonical_json(wire) if wire else ""
        value_text = _frame_json(body[field]) if field in body else ""
    head_text = _frame_json(head)
    # Every writer escapes non-ASCII, so a section's characters are its bytes.
    return _SECTIONS.pack(len(head_text), len(message_text), len(value_text)) + (
        head_text + message_text + value_text
    ).encode("ascii")


def encode_frame(
    kind: int,
    body: Any = None,
    packet: Optional[Tuple[Optional[Message], Any]] = None,
) -> bytes:
    """Serialize one frame (length prefix included).

    A RECORDS frame's ``body`` is bytes, written as they are.  A USER or
    CONTROL frame's ``body`` is its head, and ``packet`` the
    ``(message, tag)`` or ``(None, payload)`` pair its sections spell
    (module docstring).  Without ``packet`` a flat body (see
    :class:`Frame`) is split into the same sections: a second path that
    only ``benchmarks/perf/bench_layers.py`` still takes (its isolated
    ``net.codec.encode_us`` rows time it, not the splice the transport
    runs); nothing in the runtime does.
    """
    if kind not in FRAME_KINDS:
        raise UnknownFrameKind("cannot encode unknown frame kind %r" % (kind,))
    if kind in _VALUE_FIELDS:
        payload = _packet_payload(kind, body or {}, packet)
    elif kind == RECORDS:
        payload = bytes(body)
    else:
        payload = _frame_json(body or {}).encode("utf-8")
    size = _HEAD.size + len(payload)
    if size > MAX_FRAME_BYTES:
        raise FrameOversized(
            "frame of %d bytes exceeds the %d-byte limit" % (size, MAX_FRAME_BYTES)
        )
    return _LENGTH.pack(size) + _HEAD.pack(WIRE_VERSION, kind) + payload


#: The C scanner under ``json.loads``, without its whitespace skipping:
#: a packet section is exactly one JSON value.
_scan_json = json.JSONDecoder().scan_once


def _float_as_written(text: str) -> float:
    """A float in a value section, refused unless spelled the way
    :func:`dumps_value` spells it."""
    value = float(text)
    if _float_text(value) != text:
        raise MalformedFrame(
            "float %s is not written as %s" % (text[:40], _float_text(value))
        )
    return value


#: The scanner of a packet's value section, whose text the receiver logs
#: as it came: a float must be spelled as the writer spells it.
_scan_value = json.JSONDecoder(parse_float=_float_as_written).scan_once
#: A JSON string literal (already validated by the scanner).
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def _blank(text: str) -> bool:
    return " " in text or "\n" in text or "\t" in text or "\r" in text


def _padded(text: str) -> bool:
    """Whether ``text`` has whitespace outside its string literals, the
    one place a writer puts any."""
    return _blank(text) and _blank(_STRING.sub("", text))


def _section(
    kind: int, name: str, data: bytes, scan: Callable[[str, int], Any] = _scan_json
) -> Tuple[Any, str]:
    """A packet section's value and text (:class:`MalformedFrame` unless
    it is one JSON value)."""
    try:
        text = data.decode("utf-8")
        value, end = scan(text, 0)
    except (
        UnicodeDecodeError,
        StopIteration,
        json.JSONDecodeError,
        RecursionError,
    ) as exc:
        raise MalformedFrame(
            "%s frame's %s section is not valid JSON: %s" % (KIND_NAMES[kind], name, exc)
        ) from exc
    if end != len(text):
        raise MalformedFrame(
            "%s frame's %s section has %d bytes after its value"
            % (KIND_NAMES[kind], name, len(text) - end)
        )
    return value, text


def _decode_payload(kind: int, version: int, payload: bytes) -> Frame:
    if version != WIRE_VERSION:
        raise UnknownVersion(
            "frame version %d is not supported (this build speaks %d)"
            % (version, WIRE_VERSION)
        )
    if kind not in FRAME_KINDS:
        raise UnknownFrameKind(
            "unknown frame kind %d (known: %s)"
            % (kind, ", ".join("%d=%s" % (k, KIND_NAMES[k]) for k in sorted(FRAME_KINDS)))
        )
    if kind in _VALUE_FIELDS:
        return _decode_packet(kind, payload)
    if kind == RECORDS:
        return Frame(kind=kind, body=bytes(payload))
    try:
        body = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise MalformedFrame(
            "frame body of kind %s is not valid JSON: %s"
            % (KIND_NAMES[kind], exc)
        ) from exc
    if not isinstance(body, dict):
        raise MalformedFrame(
            "frame body must be a JSON object, got %s" % type(body).__name__
        )
    return Frame(kind=kind, body=body)


def _decode_packet(kind: int, payload: bytes) -> Frame:
    """Slice a USER/CONTROL frame's sections and parse each; the flat
    body's head fields win a clash with the message's."""
    if len(payload) < _SECTIONS.size:
        raise MalformedFrame(
            "%s frame of %d bytes has no section table" % (KIND_NAMES[kind], len(payload))
        )
    head_size, message_size, value_size = _SECTIONS.unpack_from(payload)
    head_end = _SECTIONS.size + head_size
    message_end = head_end + message_size
    if message_end + value_size != len(payload):
        raise MalformedFrame(
            "%s frame sections of %d + %d + %d bytes do not fill its %d-byte body"
            % (KIND_NAMES[kind], head_size, message_size, value_size, len(payload))
        )
    head, _ = _section(kind, "head", payload[_SECTIONS.size : head_end])
    body = {}
    if message_size:
        body, _ = _section(kind, "message", payload[head_end:message_end])
    if not isinstance(head, dict) or not isinstance(body, dict):
        raise MalformedFrame(
            "%s frame's head and message must be JSON objects" % KIND_NAMES[kind]
        )
    body.update(head)
    value_text = None
    if value_size:
        field = _VALUE_FIELDS[kind]
        body[field], value_text = _section(
            kind, field, payload[message_end:], _scan_value
        )
        # The receiver's log splices this text, so it may not be padded.
        if _padded(value_text):
            raise MalformedFrame(
                "%s frame's %s section has whitespace between tokens"
                % (KIND_NAMES[kind], field)
            )
    return Frame(kind=kind, body=body, value_text=value_text)


def _frame_end(data: bytes, offset: int, max_frame_bytes: int) -> int:
    """Where the frame whose length prefix sits at ``offset`` ends.

    Validates the prefix against ``max_frame_bytes`` before any body
    byte is looked at; :class:`FrameTruncated` when ``data`` stops short
    of the prefix or of the end it advertises.
    """
    available = len(data) - offset
    if available < _LENGTH.size:
        raise FrameTruncated(
            "need %d bytes for the length prefix, have %d"
            % (_LENGTH.size, available)
        )
    (size,) = _LENGTH.unpack_from(data, offset)
    if size > max_frame_bytes:
        raise FrameOversized(
            "frame advertises %d bytes, exceeding the %d-byte limit"
            % (size, max_frame_bytes)
        )
    if size < _HEAD.size:
        raise MalformedFrame(
            "frame advertises %d bytes, smaller than its own header" % size
        )
    if available < _LENGTH.size + size:
        raise FrameTruncated(
            "frame advertises %d bytes but only %d are available"
            % (size, available - _LENGTH.size)
        )
    return offset + _LENGTH.size + size


def decode_frame(
    data: bytes, max_frame_bytes: int = MAX_FRAME_BYTES
) -> Tuple[Frame, int]:
    """Decode one frame from the head of ``data``.

    Returns ``(frame, bytes_consumed)``.  Raises :class:`FrameTruncated`
    when ``data`` holds less than one full frame -- callers that buffer a
    stream should treat that as "wait for more bytes" only while the
    connection is still open; at EOF it is a hard error.  The length
    prefix is validated against ``max_frame_bytes`` *before* any body
    bytes are awaited or buffered, so a corrupt or hostile prefix fails
    loudly instead of committing the reader to a multi-gigabyte
    allocation.
    """
    end = _frame_end(data, 0, max_frame_bytes)
    version, kind = _HEAD.unpack_from(data, _LENGTH.size)
    payload = data[_LENGTH.size + _HEAD.size : end]
    return _decode_payload(kind, version, payload), end


class FrameDecoder:
    """Incremental frame decoder for a byte stream.

    Feed arbitrary chunks; complete frames come out.  Call :meth:`eof`
    when the stream closes -- leftover bytes then raise
    :class:`FrameTruncated`, turning a half-written frame into a loud
    failure instead of silent loss.  ``max_frame_bytes`` bounds what the
    decoder will buffer for a single frame: a length prefix above it
    raises :class:`FrameOversized` out of :meth:`feed` immediately (the
    default is :data:`MAX_FRAME_BYTES`).
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        if max_frame_bytes < _HEAD.size:
            raise ValueError(
                "max_frame_bytes must cover at least the %d-byte header"
                % _HEAD.size
            )
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()

    def feed(
        self, data: bytes, frames: Optional[MutableSequence[Frame]] = None
    ) -> MutableSequence[Frame]:
        """Buffer ``data`` and return every now-complete frame.

        Given ``frames`` (a list or deque), the frames are appended to it
        and it is returned: a caller then keeps those decoded before a
        malformed frame whose error :meth:`feed` raises."""
        buffer = self._buffer
        buffer.extend(data)
        if frames is None:
            frames = []
        offset = 0
        try:
            # By offset over the one buffer (a chunk holds many frames):
            # each payload is copied once, the buffer trimmed once.
            while offset < len(buffer):
                end = _frame_end(buffer, offset, self.max_frame_bytes)
                body = offset + _LENGTH.size
                version, kind = _HEAD.unpack_from(buffer, body)
                frames.append(
                    _decode_payload(kind, version, buffer[body + _HEAD.size : end])
                )
                offset = end
        except FrameTruncated:
            pass  # the tail waits for more bytes
        finally:
            del buffer[:offset]
        return frames

    def eof(self) -> None:
        """Declare end of stream; partial buffered bytes are an error."""
        if self._buffer:
            raise FrameTruncated(
                "stream closed with %d buffered bytes of an incomplete frame"
                % len(self._buffer)
            )

    @property
    def buffered(self) -> int:
        return len(self._buffer)


#: Most bytes one socket read takes.
READ_CHUNK = 1 << 16

#: Each event loop's one read buffer (see :class:`FrameLink`).
_read_buffers: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class FrameLink(asyncio.BufferedProtocol):
    """One stream of frames, read by callback.

    Each read lands in the loop's one read buffer and goes through the
    link's :class:`FrameDecoder`; the frames it completed (none, one or
    many) go to ``on_frames(link, frames)`` in the same callback, and the
    owner switches ``on_frames`` as the conversation moves on.  The link
    ends once, with ``on_end(link, exc)``: ``exc`` is ``None`` for a
    clean EOF or :meth:`close`, else the :class:`CodecError` of a
    malformed or torn frame, a ``ValueError`` out of ``on_frames``, or
    what lost the connection.  Writes go to :attr:`transport`.
    """

    def __init__(
        self,
        on_frames: Callable[["FrameLink", List[Frame]], None],
        on_end: Callable[["FrameLink", Optional[BaseException]], None],
    ) -> None:
        self.on_frames = on_frames
        self.on_end = on_end
        self.decoder = FrameDecoder()
        self.transport: Any = None
        #: Set once the link has ended; later reads and writes are dropped.
        self.closed = False
        # Every link of a loop reads into one buffer: the loop runs one
        # read callback at a time, and the decoder copies what it keeps.
        loop = asyncio.get_running_loop()
        if loop not in _read_buffers:
            _read_buffers[loop] = memoryview(bytearray(READ_CHUNK))
        self._buffer = _read_buffers[loop]
        #: While the transport has paused writing: what :meth:`drain` waits on.
        self._drained: Optional[asyncio.Future] = None

    def connection_made(self, transport: Any) -> None:
        self.transport = transport

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._buffer

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(self._buffer[:nbytes])

    def data_received(self, data: "bytes | memoryview") -> None:
        """Decode one read and hand on the frames it completed."""
        frames: List[Frame] = []
        try:
            self.decoder.feed(data, frames)
        except CodecError as exc:
            self.frames_received(frames)  # those before the bad one
            self._end(exc)
            return
        self.frames_received(frames)

    def frames_received(self, frames: List[Frame]) -> None:
        """Pass decoded frames to ``on_frames`` (unless the link ended)."""
        if self.closed:
            return
        try:
            self.on_frames(self, frames)
        except ValueError as exc:
            self._end(exc)

    def eof_received(self) -> bool:
        try:
            self.decoder.eof()  # EOF inside a frame is a torn stream
        except CodecError as exc:
            self._end(exc)
        self._end(None)
        return False  # close

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._end(exc)
        self.resume_writing()

    def pause_writing(self) -> None:
        self._drained = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        drained, self._drained = self._drained, None
        if drained is not None:
            drained.set_result(None)

    async def drain(self) -> None:
        """Wait while the transport has paused writing (until it resumes
        or the connection is lost)."""
        if self._drained is not None:
            await asyncio.shield(self._drained)

    def write(self, data: bytes) -> None:
        if not self.closed:
            self.transport.write(data)

    def close(self) -> None:
        """End the link (``on_end`` sees ``None``); writes still go out."""
        self._end(None)

    def _end(self, exc: Optional[BaseException]) -> None:
        if not self.closed:
            self.closed = True
            self.transport.close()
            self.on_end(self, exc)
