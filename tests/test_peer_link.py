"""An accepted peer link reads by callback, and a reply leaves with its read.

After the HELLO, a :class:`NetHost` points the accepted stream's
:class:`~repro.net.codec.FrameLink` at its peer dispatch: each read is
decoded and dispatched in the same callback, and the frames that dispatch
queued are written before it returns.  A read must lose, repeat and
reorder no frame, a bad one must end the link with one ``peer stream``
line, and the reply rule must leave every other frame to the tick's one
write per peer.
"""

import asyncio

from repro.events import Message
from repro.net import NetHost, codec, free_ports
from repro.net.transport import packet_from_frame
from repro.protocols.base import Protocol
from repro.protocols.registry import catalogue
from tests.frame_client import FakeTransport

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


class TestPeerStream:
    def test_a_frame_split_across_two_reads_is_dispatched_once(self, monkeypatch):
        reads = []
        received = codec.FrameLink.data_received

        def counted(link, data):
            reads.append(len(data))
            received(link, data)

        monkeypatch.setattr(codec.FrameLink, "data_received", counted)
        frame = _control(("split", 0))

        async def script(reader, writer, host, seen):
            writer.write(HELLO + _control(("first", 0)))
            await writer.drain()
            await _until(lambda: seen)
            reads.clear()
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

    def test_eof_inside_a_frame_is_one_peer_stream_error(self):
        async def script(reader, writer, host, seen):
            writer.write(HELLO)
            await writer.drain()
            await _until(lambda: 1 in host._inbound_peers)
            writer.write(_control(("cut", 0))[:9])
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
            peers = lambda: [l for l, role in host._links.items() if role == "peer"]
            await _until(lambda: len(peers()) == 2)
            accepted = peers()
            await host.shutdown()
            for reader, writer in streams:
                await _hung_up(reader)
                writer.close()
            return accepted, list(host.errors)

        accepted, errors = asyncio.run(scenario())
        assert len(accepted) == 2
        assert all(link.closed and link.transport.is_closing() for link in accepted)
        assert errors == []


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


def _peer_link(host):
    """An accepted peer stream past its HELLO, with no socket."""
    link = codec.FrameLink(host._on_peer_frames, host._end_peer)
    link.connection_made(FakeTransport())
    return link


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
            link = _peer_link(host)
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
            link = _peer_link(host)
            link.data_received(_control(("noise", 0)))
            during = sum(len(writer.writes) for writer in peers.values())
            await asyncio.sleep(0)
            after = {dst: len(writer.writes) for dst, writer in peers.items()}
            host.clock.cancel_all()
            return during, after

        during, after = asyncio.run(scenario())
        assert during == 0
        assert after == {1: 1, 2: 1}
