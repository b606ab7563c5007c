"""The one frame reader: what its callbacks must keep of the old read loops.

Every socket the runtime accepts or dials is a
:class:`~repro.net.codec.FrameLink`.  These tests drive links with no
socket (a fake transport, reads fed by hand) and no timing: the frames
that share a HELLO's read, a load client's frames held until READY,
``drain`` against paused writing, and the one read buffer a host's links
share.
"""

import asyncio

import pytest

from repro.net import NetHost, codec, free_ports
from repro.net.transport import packet_from_frame
from repro.protocols.registry import catalogue
from tests.frame_client import FakeTransport, feed

RUN = "reader"


def _hello(role):
    return codec.encode_frame(codec.HELLO, {"process": 1, "role": role, "run": RUN})


def _control(payload):
    return codec.encode_frame(
        codec.CONTROL, {"src": 1, "dst": 0, "sent": 1.0}, (None, payload)
    )


def _host():
    """Host 0 of two, its clock running, never started: peer 1 never
    comes, so the host is not ready until a test says so."""
    loop = asyncio.get_running_loop()
    host = NetHost(catalogue()["fifo"].factory, 0, [1, 2], run_id=RUN)
    host.clock.start(loop)
    host.transport.bind_loop(loop)
    host._dispatch_packet = lambda packet, invoked=None: None
    return host


def _accepted(host):
    link = host._accept()
    link.connection_made(FakeTransport())
    return link


async def _spin(times=10):
    for _ in range(times):
        await asyncio.sleep(0)


@pytest.mark.parametrize("role", ["peer", "load", "observer"])
def test_frames_that_share_the_hello_s_read_reach_the_role_once_in_order(role):
    async def scenario():
        host = _host()
        serve, end = host._roles[role]
        seen = []

        def recorded(link, hello):
            serve(link, hello)
            handler = link.on_frames

            def record(link, frames):
                seen.extend(frames)
                handler(link, frames)

            link.on_frames = record

        host._roles[role] = (recorded, end)
        link = _accepted(host)
        feed(link, _hello(role) + b"".join(_control(("c", i)) for i in range(4)))
        host.clock.cancel_all()
        return [packet_from_frame(frame).payload for frame in seen], host.errors

    seen, errors = asyncio.run(scenario())
    assert seen == [("c", i) for i in range(4)]
    assert errors == []


def test_a_load_client_s_early_frames_are_answered_after_ready_in_order():
    async def scenario():
        host = _host()
        link = _accepted(host)
        requests = (codec.STATS, codec.METRICS, codec.STATS)
        feed(link, _hello("load") + codec.encode_frame(requests[0], {}))
        feed(link, b"".join(codec.encode_frame(kind, {}) for kind in requests[1:]))
        await _spin()
        before = (link.transport.frames(), link.transport.reading)
        host._ready.set()
        await _spin()
        after = [frame.kind for frame in link.transport.frames()]
        host.clock.cancel_all()
        return before, after, link.transport.reading

    before, after, reading = asyncio.run(scenario())
    # A real socket is not read while paused; the second read above is
    # what the socket would have held, and comes after READY all the same.
    assert before == ([], False)
    assert after == [codec.READY, codec.STATS, codec.METRICS, codec.STATS]
    assert reading


class TestDrain:
    def _drain(self, release):
        async def scenario():
            link = codec.FrameLink(lambda *_: None, lambda *_: None)
            link.connection_made(FakeTransport())
            unpaused = asyncio.ensure_future(link.drain())
            await _spin(1)
            link.pause_writing()
            paused = asyncio.ensure_future(link.drain())
            await _spin()
            waiting = not paused.done()
            release(link)
            await _spin()
            return unpaused.done(), waiting, paused.done()

        return asyncio.run(scenario())

    def test_resume_writing_releases_it(self):
        assert self._drain(lambda link: link.resume_writing()) == (True, True, True)

    def test_a_lost_connection_releases_it(self):
        assert self._drain(lambda link: link.connection_lost(None)) == (
            True,
            True,
            True,
        )


def test_every_link_of_a_host_reads_into_one_buffer():
    async def scenario():
        ports = free_ports(2)
        hosts = [
            NetHost(catalogue()["fifo"].factory, pid, ports, run_id=RUN)
            for pid in range(2)
        ]
        for host in hosts:
            await host.start()
        await asyncio.gather(*(host.ready() for host in hosts))
        host = hosts[0]
        accepted = list(host._links)
        dialed = [writer.get_protocol() for writer in host.transport._writers.values()]
        buffers = [link.get_buffer(-1) for link in accepted + dialed]
        for each in hosts:
            await each.shutdown()
        return len(accepted), len(dialed), buffers

    accepted, dialed, buffers = asyncio.run(scenario())
    assert (accepted, dialed) == (1, 1)
    assert all(buffer is buffers[0] for buffer in buffers)
    assert len(buffers[0]) == codec.READ_CHUNK
