"""Tests that play one end of a frame stream by hand.

The runtime reads every socket through :class:`repro.net.codec.FrameLink`.
A test standing in for a peer, a client or an endpoint either talks over
a real socket (:func:`dial`, :func:`read_frame`, one frame at a time, so
it can stop exactly where the scenario says), or drives a link with no
socket at all (:class:`FakeTransport`, :func:`feed`).
"""

import asyncio
import struct

from repro.net import codec

_LENGTH = struct.Struct("!I")


async def dial(port, **hello):
    """A raw stream to ``port`` on loopback, its HELLO sent if given."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    if hello:
        writer.write(codec.encode_frame(codec.HELLO, hello))
        await writer.drain()
    return reader, writer


async def read_frame(reader):
    """The next frame on ``reader``, or ``None`` at a clean EOF; a
    stream torn inside a frame raises :class:`codec.FrameTruncated`."""
    try:
        prefix = await reader.readexactly(_LENGTH.size)
        (size,) = _LENGTH.unpack(prefix)
        rest = await reader.readexactly(size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial and exc.expected == _LENGTH.size:
            return None
        raise codec.FrameTruncated("stream closed inside a frame") from exc
    (frame,) = codec.FrameDecoder().feed(prefix + rest)
    return frame


class FakeTransport:
    """What a link writes to, and whether it is reading, with no socket."""

    def __init__(self):
        self.written = bytearray()
        self.reading = True
        self.closed = False

    def write(self, data):
        self.written += data

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True

    def frames(self):
        return codec.FrameDecoder().feed(bytes(self.written))


def feed(link, data):
    """One socket read of ``data`` into ``link``, as the loop makes it."""
    buffer = link.get_buffer(-1)
    buffer[: len(data)] = data
    link.buffer_updated(len(data))
