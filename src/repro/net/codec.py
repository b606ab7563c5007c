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

Decoding is strict: anything malformed raises a descriptive
:class:`CodecError` subclass instead of silently degrading, because a
corrupt frame on a protocol channel is indistinguishable from a
protocol bug and must be surfaced as such.
"""

from __future__ import annotations

import asyncio
import json
import struct
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_string
from typing import Any, Dict, List, Optional, Tuple

from repro.events import Message

#: Wire protocol version this build speaks.  Version 2 added the
#: optional ordering-key field on USER/INVOKE message bodies and the
#: batch frame kinds the sharded runtime uses; every endpoint of a run
#: is the same build, so a frame of any other version is refused.
WIRE_VERSION = 2

#: Upper bound on one frame's (version + kind + body) size.  Generous for
#: protocol traffic (tags are tens of bytes) while still bounding the
#: damage of a corrupt or hostile length prefix.
MAX_FRAME_BYTES = 4 * 1024 * 1024

_LENGTH = struct.Struct("!I")
_HEAD = struct.Struct("!BB")  # version, kind


# -- frame kinds -------------------------------------------------------------

HELLO = 1  # connection handshake: {process, role, run}
READY = 2  # host -> client: rendezvous complete, traffic may start
USER = 3  # a released user message: src/dst/message/tag/timestamps
CONTROL = 4  # a protocol control message: src/dst/payload
INVOKE = 5  # load generator -> host: please invoke this message
EVENT = 6  # host -> observer: one trace record (live monitoring tap)
PROBE = 7  # host -> observer: one bridged obs probe
STATS = 8  # stats request (empty body) and reply (counters + latencies)
DRAIN = 9  # load generator -> host: no further invokes are coming
BYE = 10  # orderly shutdown request/ack
TRACE = 11  # flight-recorder pull: request (empty) and dump reply
METRICS = 12  # metrics pull: request (empty) and OpenMetrics reply
HEARTBEAT = 13  # liveness probe on peer links: {process, nonce[, echo]}
BACKPRESSURE = 14  # host -> load client: {process, state: "high"|"low"}
USER_BATCH = 15  # shard runtime: one coalesced flush of user rows per peer
INVOKE_BATCH = 16  # coordinator -> shard worker: {rows: [...]} invoke rows
COLLECT = 17  # coordinator -> shard worker: per-key event rows for the oracle

KIND_NAMES = {
    HELLO: "hello",
    READY: "ready",
    USER: "user",
    CONTROL: "control",
    INVOKE: "invoke",
    EVENT: "event",
    PROBE: "probe",
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

_CONTAINER_TAGS = ("T", "S", "F", "D", "L")
_INFINITY = float("inf")


def encode_value(value: Any) -> Any:
    """Map a tag/payload value onto JSON-safe structures, losslessly.

    Scalars pass through; containers are wrapped in a one-key object
    (``{"T": [...]}`` tuple, ``{"L": [...]}`` list, ``{"S"/"F": [...]}``
    set/frozenset, ``{"D": [[k, v], ...]}`` dict) so tuples and non-string
    keys survive the round trip.  Unsupported types raise
    :class:`CodecError` -- protocols must keep tags in the same wire-safe
    vocabulary :func:`~repro.simulation.trace.estimate_size` prices.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"T": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return {"L": [encode_value(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        items = sorted(value, key=repr)
        tag = "F" if isinstance(value, frozenset) else "S"
        return {tag: [encode_value(item) for item in items]}
    if isinstance(value, dict):
        return {
            "D": [[encode_value(k), encode_value(v)] for k, v in value.items()]
        }
    raise CodecError(
        "value of type %s is not wire-encodable: %r" % (type(value).__name__, value)
    )


def dumps_value(value: Any) -> str:
    """Exactly ``json.dumps(encode_value(value), separators=(",", ":"))``.

    One pass from the value to compact JSON text: no intermediate
    wrapper tree and no per-call ``JSONEncoder`` (the WAL serializes
    every record body through this).  Same vocabulary as
    :func:`encode_value` and the same :class:`CodecError` outside it;
    scalars are spelled the way :mod:`json` spells them, non-finite
    floats included (``NaN`` / ``Infinity``).
    """
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INFINITY:
            return "Infinity"
        if value == -_INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    if isinstance(value, tuple):
        return '{"T":[%s]}' % ",".join(map(dumps_value, value))
    if isinstance(value, list):
        return '{"L":[%s]}' % ",".join(map(dumps_value, value))
    if isinstance(value, (set, frozenset)):
        items = sorted(value, key=repr)
        tag = "F" if isinstance(value, frozenset) else "S"
        return '{"%s":[%s]}' % (tag, ",".join(map(dumps_value, items)))
    if isinstance(value, dict):
        return '{"D":[%s]}' % ",".join(
            ["[%s,%s]" % (dumps_value(k), dumps_value(v)) for k, v in value.items()]
        )
    raise CodecError(
        "value of type %s is not wire-encodable: %r" % (type(value).__name__, value)
    )


def decode_value(value: Any) -> Any:
    """Strict inverse of :func:`encode_value`."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        if len(value) != 1:
            raise MalformedFrame(
                "container wrapper must have exactly one tag key, got %r"
                % (sorted(value),)
            )
        ((tag, items),) = value.items()
        if tag not in _CONTAINER_TAGS:
            raise MalformedFrame("unknown container tag %r" % (tag,))
        if tag == "D":
            if not isinstance(items, list) or any(
                not isinstance(pair, list) or len(pair) != 2 for pair in items
            ):
                raise MalformedFrame("dict encoding must be a list of pairs")
            return {decode_value(k): decode_value(v) for k, v in items}
        if not isinstance(items, list):
            raise MalformedFrame("container items must be a list, got %r" % (items,))
        decoded = [decode_value(item) for item in items]
        if tag == "T":
            return tuple(decoded)
        if tag == "S":
            return set(decoded)
        if tag == "F":
            return frozenset(decoded)
        return decoded
    raise MalformedFrame("undecodable wire value %r" % (value,))


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


# -- frames ------------------------------------------------------------------


@dataclass(frozen=True)
class Frame:
    """One decoded frame: its kind byte and JSON body."""

    kind: int
    body: Dict[str, Any]

    @property
    def kind_name(self) -> str:
        return KIND_NAMES.get(self.kind, "unknown(%d)" % self.kind)


#: One encoder for every frame (``json.dumps`` with non-default
#: separators would construct one per call).  Frames reject NaN/inf.
_frame_json = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def encode_frame(kind: int, body: Optional[Dict[str, Any]] = None) -> bytes:
    """Serialize one frame (length prefix included)."""
    if kind not in FRAME_KINDS:
        raise UnknownFrameKind("cannot encode unknown frame kind %r" % (kind,))
    payload = _frame_json(body or {}).encode("utf-8")
    size = _HEAD.size + len(payload)
    if size > MAX_FRAME_BYTES:
        raise FrameOversized(
            "frame of %d bytes exceeds the %d-byte limit" % (size, MAX_FRAME_BYTES)
        )
    return _LENGTH.pack(size) + _HEAD.pack(WIRE_VERSION, kind) + payload


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
    try:
        body = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedFrame(
            "frame body of kind %s is not valid JSON: %s"
            % (KIND_NAMES[kind], exc)
        ) from exc
    if not isinstance(body, dict):
        raise MalformedFrame(
            "frame body must be a JSON object, got %s" % type(body).__name__
        )
    return Frame(kind=kind, body=body)


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

    def feed(self, data: bytes) -> List[Frame]:
        """Buffer ``data`` and return every now-complete frame."""
        buffer = self._buffer
        buffer.extend(data)
        frames: List[Frame] = []
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


async def read_frame(
    reader: "asyncio.StreamReader", max_frame_bytes: int = MAX_FRAME_BYTES
) -> Optional[Frame]:
    """Read exactly one frame from an asyncio stream.

    Returns ``None`` on a clean EOF at a frame boundary; raises
    :class:`FrameTruncated` when the peer dies mid-frame and
    :class:`FrameOversized` when the length prefix exceeds
    ``max_frame_bytes`` -- checked before the body read is even issued,
    so a corrupt prefix cannot pin the reader's buffer.
    """
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameTruncated(
            "stream closed inside a length prefix (%d of %d bytes)"
            % (len(exc.partial), _LENGTH.size)
        ) from exc
    (size,) = _LENGTH.unpack(prefix)
    if size > max_frame_bytes:
        raise FrameOversized(
            "frame advertises %d bytes, exceeding the %d-byte limit"
            % (size, max_frame_bytes)
        )
    if size < _HEAD.size:
        raise MalformedFrame(
            "frame advertises %d bytes, smaller than its own header" % size
        )
    try:
        rest = await reader.readexactly(size)
    except asyncio.IncompleteReadError as exc:
        raise FrameTruncated(
            "stream closed inside a frame body (%d of %d bytes)"
            % (len(exc.partial), size)
        ) from exc
    version, kind = _HEAD.unpack_from(rest)
    return _decode_payload(kind, version, rest[_HEAD.size :])
