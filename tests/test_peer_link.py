"""An accepted peer link reads by callback, and a reply leaves with its read.

After the HELLO, a :class:`NetHost` hands the peer stream from the
endpoint's handshake reader to a :class:`PeerLink` protocol: each
``data_received`` decodes and dispatches in the same callback, and the
frames that dispatch queued are written before it returns.  The hand-over
must lose, repeat and reorder no byte; the reply rule must leave every
other frame to the tick's one write per peer.
"""

import asyncio

import pytest

from repro.events import Message
from repro.net import NetHost, codec, free_ports
from repro.net import host as host_module
from repro.net.client import READ_CHUNK
from repro.net.endpoint import FrameStream
from repro.net.transport import packet_from_frame
from repro.protocols.base import Protocol
from repro.protocols.registry import catalogue

RUN = "link"
HELLO = codec.encode_frame(codec.HELLO, {"process": 1, "role": "peer", "run": RUN})


def _control(payload, src=1, dst=0):
    return codec.encode_frame(
        codec.CONTROL, {"src": src, "dst": dst, "sent": 1.0}, (None, payload)
    )


async def _until(condition, timeout=5.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.005)


def _play_peer(script):
    """Serve host 0 of two, play peer 1 by hand with ``script(reader,
    writer, host)`` and return what the host dispatched and its errors."""

    async def scenario():
        ports = free_ports(2)
        host = NetHost(catalogue()["fifo"].factory, 0, ports, run_id=RUN)
        seen = []
        host._dispatch_packet = lambda packet, invoked=None: seen.append(packet.payload)
        await host.start()  # peer 1 never starts: the test plays it
        reader, writer = await asyncio.open_connection("127.0.0.1", ports[0])
        try:
            await script(reader, writer, host, seen)
        finally:
            writer.close()
            errors = list(host.errors)
            await host.shutdown()
        return seen, errors

    return asyncio.run(scenario())


async def _hung_up(reader):
    assert await asyncio.wait_for(reader.read(), 5.0) == b""


class TestHandOver:
    def test_frames_in_the_hello_s_write_are_dispatched_once_in_order(self):
        async def script(reader, writer, host, seen):
            writer.write(HELLO + b"".join(_control(("c", i)) for i in range(5)))
            await writer.drain()
            await _until(lambda: len(seen) >= 5)
            writer.write(_control(("c", 5)))  # and one after the hand-over
            await _until(lambda: len(seen) >= 6)
            await asyncio.sleep(0.05)  # nothing arrives twice

        seen, errors = _play_peer(script)
        assert seen == [("c", i) for i in range(6)]
        assert errors == []

    def test_a_frame_torn_by_the_hand_over_is_dispatched_once(self):
        frame = _control(("torn", 0))

        async def script(reader, writer, host, seen):
            writer.write(HELLO + frame[:7])
            await writer.drain()
            await _until(lambda: 1 in host._inbound_peers)
            await asyncio.sleep(0.05)
            writer.write(frame[7:])
            await _until(lambda: seen)
            await asyncio.sleep(0.05)

        seen, errors = _play_peer(script)
        assert seen == [("torn", 0)]
        assert errors == []

    def test_a_frame_split_across_two_reads_is_dispatched_once(self, monkeypatch):
        reads = []
        received = host_module.PeerLink.data_received

        def counted(link, data):
            reads.append(len(data))
            received(link, data)

        monkeypatch.setattr(host_module.PeerLink, "data_received", counted)
        frame = _control(("split", 0))

        async def script(reader, writer, host, seen):
            writer.write(HELLO + _control(("first", 0)))
            await writer.drain()
            await _until(lambda: seen)
            writer.write(frame[:10])
            await writer.drain()
            await _until(lambda: reads)
            writer.write(frame[10:])
            await _until(lambda: len(seen) >= 2)
            await asyncio.sleep(0.05)

        seen, errors = _play_peer(script)
        assert seen == [("first", 0), ("split", 0)]
        assert reads == [10, len(frame) - 10]
        assert errors == []

    @pytest.mark.parametrize("after_hand_over", [False, True])
    def test_eof_inside_a_frame_is_one_peer_stream_error(self, after_hand_over):
        async def script(reader, writer, host, seen):
            if after_hand_over:
                writer.write(HELLO)
                await writer.drain()
                await _until(lambda: 1 in host._inbound_peers)
                await asyncio.sleep(0.05)
                writer.write(_control(("cut", 0))[:9])
            else:
                writer.write(HELLO + _control(("cut", 0))[:9])
            writer.write_eof()
            await _hung_up(reader)

        seen, errors = _play_peer(script)
        assert seen == []
        (error,) = errors
        assert error.startswith("peer stream: stream closed with 9 buffered bytes")

    def test_a_malformed_frame_is_one_peer_stream_error(self):
        bad = bytearray(_control(("bad", 0)))
        bad[4] = codec.WIRE_VERSION + 1

        async def script(reader, writer, host, seen):
            writer.write(HELLO + _control(("good", 0)))
            await writer.drain()
            await _until(lambda: seen)
            writer.write(bytes(bad) + _control(("never", 0)))
            await _hung_up(reader)

        seen, errors = _play_peer(script)
        assert seen == [("good", 0)]
        (error,) = errors
        assert error.startswith("peer stream: frame version")

    def test_teardown_closes_every_accepted_stream(self):
        async def scenario():
            ports = free_ports(3)
            host = NetHost(catalogue()["fifo"].factory, 0, ports, run_id=RUN)
            await host.start()
            streams = []
            for peer in (1, 2):
                reader, writer = await asyncio.open_connection("127.0.0.1", ports[0])
                hello = {"process": peer, "role": "peer", "run": RUN}
                writer.write(codec.encode_frame(codec.HELLO, hello))
                streams.append((reader, writer))
            await _until(lambda: len(host._writers["peer"]) == 2)
            accepted = list(host._writers["peer"])
            await host.shutdown()
            for reader, writer in streams:
                await _hung_up(reader)
                writer.close()
            return accepted, list(host.errors)

        accepted, errors = asyncio.run(scenario())
        assert len(accepted) == 2
        assert all(writer.transport.is_closing() for writer in accepted)
        assert errors == []


class _Link:
    """What :meth:`FrameStream.hand_over` feeds, recorded."""

    def __init__(self):
        self.calls = []

    def frames_received(self, frames):
        payloads = [packet_from_frame(frame).payload for frame in frames]
        self.calls.append(("frames", payloads))

    def data_received(self, data):
        self.calls.append(("data", data))

    def eof_received(self):
        self.calls.append(("eof",))

    def connection_lost(self, exc):
        self.calls.append(("lost", exc))


class _Transport:
    def __init__(self):
        self.protocol = None
        self.closed = False

    def set_protocol(self, protocol):
        self.protocol = protocol

    def close(self):
        self.closed = True


class TestFrameStream:
    """The hand-over's edges, on a reader fed by hand: what the reader
    took before the switch reaches the protocol, in order, once."""

    def _handed_over(self, feed):
        async def scenario():
            reader = asyncio.StreamReader()
            stream = FrameStream(reader)
            feed(reader)
            hello = await stream.read()
            link, transport = _Link(), _Transport()
            await stream.hand_over(transport, link)
            return hello, link.calls, transport

        return asyncio.run(scenario())

    def test_frames_read_with_the_hello_go_first_then_the_eof(self):
        def feed(reader):
            reader.feed_data(HELLO + _control(("a", 0)) + _control(("b", 0)))
            reader.feed_eof()

        hello, calls, transport = self._handed_over(feed)
        assert hello.kind == codec.HELLO
        assert calls[0] == ("frames", [("a", 0), ("b", 0)])
        assert calls[1:] == [("eof",), ("lost", None)]
        assert transport.protocol is not None and transport.closed

    def test_a_full_chunk_is_read_on_until_the_reader_is_empty(self):
        filler = _control(("x" * 200, 0))
        count = 2 * READ_CHUNK // len(filler) + 3

        def feed(reader):
            reader.feed_data(HELLO + filler * count)

        hello, calls, transport = self._handed_over(feed)
        payloads = [payload for _, batch in calls for payload in batch]
        assert payloads == [("x" * 200, 0)] * count
        assert transport.protocol is not None and not transport.closed


# -- the reply rule ---------------------------------------------------------------


class _Replier(Protocol):
    """Answers every control frame with a control frame to its sender."""

    name = "replier"
    protocol_class = "general"

    def on_invoke(self, ctx, message):
        ctx.release(message)

    def on_user_message(self, ctx, message, tag):
        ctx.deliver(message)

    def on_control(self, ctx, src, payload):
        ctx.send_control(src, ("reply", payload[1]))


class _Silent(_Replier):
    def on_control(self, ctx, src, payload):
        pass


class _Writer:
    """A peer's outbound stream, counting writes."""

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(data)

    def is_closing(self):
        return False


class TestReplyRule:
    def test_a_reply_leaves_with_its_read_and_an_invoke_with_the_tick(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            host = NetHost(lambda p, n: _Replier(), 0, [1, 2, 3], run_id=RUN)
            host.clock.start(loop)
            host.transport.bind_loop(loop)
            host.host.start()
            peers = {1: _Writer(), 2: _Writer()}
            for dst, writer in peers.items():
                host.transport.connect(dst, writer)
            # Earlier in the tick: one invoke for each peer.
            host.invoke(Message(id="to1", sender=0, receiver=1))
            host.invoke(Message(id="to2", sender=0, receiver=2))
            link = host_module.PeerLink(host, codec.FrameDecoder(), _Writer())
            link.data_received(_control(("req", 7)))
            # The read has returned: peer 1's whole outbox went in one
            # write, the invoke before the reply; peer 2's still waits.
            during = {dst: list(writer.writes) for dst, writer in peers.items()}
            flushes = host.transport.flushes
            await asyncio.sleep(0)  # the tick's scheduled flush runs
            after = {dst: list(writer.writes) for dst, writer in peers.items()}
            host.clock.cancel_all()
            return during, flushes, after, host.transport.flushes, host.errors

        during, flushes, after, flushes_after, errors = asyncio.run(scenario())
        assert errors == []
        (write,) = during[1]
        packets = [packet_from_frame(f) for f in codec.FrameDecoder().feed(write)]
        assert [packet.message.id for packet in packets[:1]] == ["to1"]
        assert packets[1].payload == ("reply", 7)
        assert during[2] == [] and flushes == 1
        assert after[1] == during[1]
        (later,) = after[2]
        assert [f.kind for f in codec.FrameDecoder().feed(later)] == [codec.USER]
        assert flushes_after == 2

    def test_a_read_that_sends_nothing_leaves_the_outboxes_to_the_tick(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            host = NetHost(lambda p, n: _Silent(), 0, [1, 2, 3], run_id=RUN)
            host.clock.start(loop)
            host.transport.bind_loop(loop)
            host.host.start()
            peers = {1: _Writer(), 2: _Writer()}
            for dst, writer in peers.items():
                host.transport.connect(dst, writer)
            for index in range(3):
                host.invoke(Message(id="m%d" % index, sender=0, receiver=1 + index % 2))
            link = host_module.PeerLink(host, codec.FrameDecoder(), _Writer())
            link.data_received(_control(("noise", 0)))
            during = sum(len(writer.writes) for writer in peers.values())
            await asyncio.sleep(0)
            after = {dst: len(writer.writes) for dst, writer in peers.items()}
            host.clock.cancel_all()
            return during, after

        during, after = asyncio.run(scenario())
        assert during == 0
        assert after == {1: 1, 2: 1}
