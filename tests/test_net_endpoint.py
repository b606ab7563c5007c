"""The accept side of the control protocol, once, over both endpoint kinds.

A :class:`~repro.net.host.NetHost` and a shard worker are both
:class:`~repro.net.endpoint.Endpoint` s, so who may connect and what a
connection is owed is pinned here for the two of them together: the
handshake's four refusals, a torn load stream, the INVOKE_BATCH rows
both take, DRAIN as a per-run barrier, BYE, and the SIGTERM drain of a
real worker process.
"""

import asyncio
import contextlib
import time

import pytest

from repro.net import NetHost, codec
from repro.net.client import ControlLink
from repro.net.cluster import free_ports
from repro.net.shard import ShardWorker, ShardWorkerConfig
from repro.net.shard.worker import spawn_worker
from repro.protocols.registry import catalogue_entry
from tests.frame_client import dial, read_frame

RUN = "mine"

kinds = pytest.mark.parametrize("kind", ["host", "worker"])


class Rig:
    """One in-process endpoint of either kind on a free port."""

    def __init__(self, kind):
        self.kind = kind
        self.port = free_ports(1)[0]
        self._ids = 0
        if kind == "host":
            self.endpoint = NetHost(
                catalogue_entry("fifo").factory, 0, [self.port], run_id=RUN
            )
        else:
            self.endpoint = ShardWorker(
                ShardWorkerConfig(
                    shard=0, n_shards=1, n_processes=2, port=self.port, run_id=RUN
                )
            )

    def link(self, role="load", run_id=RUN):
        return ControlLink("127.0.0.1", self.port, role, run_id)

    async def client(self):
        link = self.link()
        await link.connect(timeout=1.0)
        await link.ready(timeout=1.0)
        return link

    def rows(self, count):
        """``count`` fresh invoke rows from process 0 (to itself on a
        host, which is a cluster of one here)."""
        ids = ["m%d" % n for n in range(self._ids, self._ids + count)]
        self._ids += count
        receiver = 0 if self.kind == "host" else 1
        return [[i, 0, receiver, "k", time.time(), None] for i in ids]

    def offer(self, link, count):
        """Ask for ``count`` fresh messages over ``link``."""
        link.send(codec.INVOKE_BATCH, {"rows": self.rows(count)})

    async def settled(self, link, deliveries):
        """STATS once ``deliveries`` have happened (1 s at most)."""
        deadline = time.monotonic() + 1.0
        while True:
            stats = await link.request(codec.STATS)
            if stats["deliveries"] >= deliveries or time.monotonic() > deadline:
                return stats
            await asyncio.sleep(0.01)

    async def eof(self, reader):
        """The endpoint closes the stream within a second."""
        assert await asyncio.wait_for(reader.read(), 1.0) == b""


@contextlib.asynccontextmanager
async def serving(kind):
    rig = Rig(kind)
    rig.serving = asyncio.get_running_loop().create_task(
        rig.endpoint.serve_forever()
    )
    try:
        while rig.endpoint._server is None:  # serve_forever is binding
            await asyncio.sleep(0.005)
        yield rig
    finally:
        await rig.endpoint.shutdown()
        await asyncio.wait_for(rig.serving, 1.0)


def bad_version(kind):
    """A well-formed frame of ``kind`` from a build this one cannot read."""
    data = bytearray(codec.encode_frame(kind, {}))
    data[4] = codec.WIRE_VERSION + 1
    return bytes(data)


class TestHandshake:
    @kinds
    def test_first_frame_must_be_a_hello(self, kind):
        async def scenario():
            async with serving(kind) as rig:
                reader, writer = await asyncio.open_connection("127.0.0.1", rig.port)
                writer.write(codec.encode_frame(codec.STATS, {}))
                await rig.eof(reader)
                writer.close()
                return rig.endpoint.errors

        assert asyncio.run(scenario()) == []

    @kinds
    def test_malformed_first_frame_is_logged_and_closed(self, kind):
        async def scenario():
            async with serving(kind) as rig:
                reader, writer = await asyncio.open_connection("127.0.0.1", rig.port)
                writer.write(bad_version(codec.HELLO))
                await rig.eof(reader)
                writer.close()
                return rig.endpoint.errors

        (line,) = asyncio.run(scenario())
        assert line.startswith(
            "handshake: frame version %d is not supported" % (codec.WIRE_VERSION + 1)
        )

    @kinds
    def test_foreign_run_is_turned_away(self, kind):
        async def scenario():
            async with serving(kind) as rig:
                stranger = rig.link(run_id="theirs")
                await stranger.connect(timeout=1.0)
                with pytest.raises(ConnectionError, match="wrong run id"):
                    await stranger.ready(timeout=1.0)
                await stranger.close()
                return rig.endpoint.errors

        assert asyncio.run(scenario()) == [
            "rejected connection for run 'theirs' (serving 'mine')"
        ]

    @pytest.mark.parametrize(
        "kind, role",
        [("host", "bogus"), ("worker", "observer"), ("worker", "peer")],
    )
    def test_unknown_role_is_turned_away(self, kind, role):
        """A worker has no peers and no observer tap: a `LiveObserver`
        aimed at a fleet is refused, not left waiting for events."""

        async def scenario():
            async with serving(kind) as rig:
                reader, writer = await dial(rig.port, process=-1, role=role, run=RUN)
                await rig.eof(reader)
                writer.close()
                return rig.endpoint.errors

        assert asyncio.run(scenario()) == ["unknown connection role %r" % role]


class TestLoadStream:
    @kinds
    def test_codec_error_mid_stream_is_recorded(self, kind):
        async def scenario():
            async with serving(kind) as rig:
                reader, writer = await dial(rig.port, process=-1, role="load", run=RUN)
                assert (await read_frame(reader)).kind == codec.READY
                writer.write(bad_version(codec.STATS))
                deadline = time.monotonic() + 1.0
                while not rig.endpoint.errors and time.monotonic() < deadline:
                    await asyncio.sleep(0.01)
                writer.close()
                return rig.endpoint.errors

        (line,) = asyncio.run(scenario())
        assert line.startswith(
            "load stream: frame version %d is not supported" % (codec.WIRE_VERSION + 1)
        )

    @kinds
    @pytest.mark.parametrize(
        "bad",
        [
            ["mx", 7, 0, None, 0.0, None],  # a sender past the cluster
            ["mx", 0, 9, None, 0.0, None],  # a receiver past it
            ["mx", -1, 0, None, 0.0, None],
            ["mx", 0, 0, None, 0.0],  # no color field
            ["mx", 0, 0, ["k"], 0.0, None],  # an unhashable key
        ],
    )
    def test_a_bad_row_refuses_its_whole_batch(self, kind, bad):
        """A row is checked before any row of its batch is taken: the
        batch's valid rows are not stranded as invoked-but-pending, the
        load stream says why it ended, and the endpoint goes on serving."""

        async def scenario():
            async with serving(kind) as rig:
                first = await rig.client()
                rows = rig.rows(3)
                rows[1] = bad
                first.send(codec.INVOKE_BATCH, {"rows": rows})
                with pytest.raises(ConnectionError, match="before its stats reply"):
                    await first.request(codec.STATS)
                await first.close()
                second = await rig.client()
                rig.offer(second, 2)
                after = await rig.settled(second, 2)
                await second.close()
                return after

        after = asyncio.run(scenario())
        assert (after["invoked"], after["deliveries"], after["pending"]) == (2, 2, 0)
        (line,) = after["errors"]
        assert line.startswith("load stream: invoke row %r" % (bad,))

    @kinds
    def test_drain_is_a_barrier_for_one_run(self, kind):
        """`--keep-serving`: the next run's invokes are taken once the
        client that drained has gone (a worker used to drop them all)."""

        async def scenario():
            async with serving(kind) as rig:
                first = await rig.client()
                rig.offer(first, 5)
                await first.request(codec.DRAIN)
                rig.offer(first, 3)  # behind the barrier: dropped by contract
                before = await rig.settled(first, 5)
                await first.close()
                deadline = time.monotonic() + 1.0
                while rig.endpoint.draining and time.monotonic() < deadline:
                    await asyncio.sleep(0.01)
                second = await rig.client()
                rig.offer(second, 7)
                after = await rig.settled(second, 12)
                await second.close()
                return before, after

        before, after = asyncio.run(scenario())
        assert (before["invoked"], before["deliveries"]) == (5, 5)
        assert (after["invoked"], after["deliveries"]) == (12, 12)
        assert after["pending"] == 0

    @kinds
    def test_bye_is_acked_and_ends_serve_forever(self, kind):
        async def scenario():
            async with serving(kind) as rig:
                link = await rig.client()
                ack = await link.request(codec.BYE)
                await asyncio.wait_for(rig.serving, 1.0)
                await link.close()
                return ack

        assert asyncio.run(scenario()) == {}


class TestWorkerProcess:
    def test_sigterm_is_a_graceful_drain(self):
        """`worker.terminate()` is the graceful drain `NetHost` always
        had: the worker exits 0 after the rows it accepted."""
        port = free_ports(1)[0]
        process = spawn_worker(
            ShardWorkerConfig(
                shard=0, n_shards=1, n_processes=2, port=port, run_id=RUN
            )
        )

        async def scenario():
            link = ControlLink("127.0.0.1", port, "load", RUN)
            await link.connect(timeout=5.0)
            await link.ready(timeout=5.0)  # serving: the handlers are in
            link.send(
                codec.INVOKE_BATCH,
                {"rows": [["m%d" % n, 0, 1, "k", time.time(), None] for n in range(4)]},
            )
            stats = await link.request(codec.STATS)
            process.terminate()
            await link.close()
            return stats

        try:
            stats = asyncio.run(scenario())
            process.join(timeout=5.0)
            assert not process.is_alive() and process.exitcode == 0
        finally:
            if process.is_alive():
                process.kill()
        assert stats["invoked"] == 4
