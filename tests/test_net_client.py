"""The one control-protocol client, against stub and real endpoints.

Every consumer of the control plane (load generator, collector, shard
coordinator, observer attach) is built on :mod:`repro.net.client`, so
the awkward cases are pinned here once: a ``BACKPRESSURE`` frame pushed
between a request and its reply, a reply of the wrong kind, EOF in the
middle of a request, an endpoint that is not listening yet, an endpoint
serving another run id, and an endpoint that restarts (or never does).
"""

import asyncio
import time

import pytest

from repro.cli import main
from repro.net import codec
from repro.net.client import ClusterClient, ControlLink
from repro.net.cluster import free_ports
from repro.net.collector import ClusterCollector
from repro.net.shard import ShardWorker, ShardWorkerConfig
from tests.frame_client import read_frame


async def _stub_endpoint(port, answer, conns=None):
    """A server that completes the rendezvous and then hands each
    request frame to ``answer(frame, writer)``; ``conns`` collects the
    accepted connections' writers."""

    async def handler(reader, writer):
        if conns is not None:
            conns.append(writer)
        try:
            hello = await read_frame(reader)
            assert hello.kind == codec.HELLO and hello.body["role"] == "load"
            writer.write(codec.encode_frame(codec.READY, {"process": 0}))
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                answer(frame, writer)
        finally:  # also when the loop ends first and cancels the handler
            writer.close()

    return await asyncio.start_server(handler, "127.0.0.1", port)


def _congested(frame, writer):
    """What a NetHost crossing its high watermark does to *every*
    load-role connection: BACKPRESSURE lands ahead of the reply."""
    writer.write(
        codec.encode_frame(
            codec.BACKPRESSURE, {"process": 0, "state": "high", "pending": 9}
        )
    )
    writer.write(
        codec.encode_frame(frame.kind, {"process": 0, "wall": time.time()})
    )


class TestPushedFramesNeverMasqueradeAsReplies:
    def test_collector_pull_survives_backpressure_before_each_reply(self):
        """`repro top` / `repro trace` against a congested host used to
        die with "host closed during a pull" and stay off by one reply."""
        port = free_ports(1)[0]

        async def scenario():
            server = await _stub_endpoint(port, _congested)
            collector = ClusterCollector([port])
            async with server:
                await collector.connect(timeout=5.0)
                try:
                    pulls = await collector.pull(rounds=2)
                    pulls += await collector.pull(rounds=1)
                finally:
                    await collector.close()
            return pulls, collector

        pulls, collector = asyncio.run(scenario())
        assert [pull.process for pull in pulls] == [0, 0]
        assert all(pull.stats_body and pull.metrics_body for pull in pulls)
        assert collector.links[0].paused
        # 2 + 1 TRACE rounds, then METRICS and STATS per pull.
        assert collector.backpressure_signals == 7

    def test_reply_of_another_kind_is_refused(self):
        port = free_ports(1)[0]

        def confused(frame, writer):
            writer.write(codec.encode_frame(codec.TRACE, {"process": 0}))

        async def scenario():
            server = await _stub_endpoint(port, confused)
            client = ClusterClient([port])
            async with server:
                await client.connect(timeout=5.0)
                try:
                    return await client.stats()
                finally:
                    await client.close()

        with pytest.raises(codec.CodecError, match="stats request with a trace"):
            asyncio.run(scenario())

    def test_eof_mid_request_is_a_connection_error_and_stays_one(self):
        port = free_ports(1)[0]

        def hang_up(frame, writer):
            writer.close()

        async def scenario():
            server = await _stub_endpoint(port, hang_up)
            link = ControlLink("127.0.0.1", port, "load", "default")
            async with server:
                await link.connect(timeout=5.0)
                await link.ready(timeout=5.0)
                outcomes = []
                for _ in range(2):  # the second call must not hang
                    try:
                        await asyncio.wait_for(link.request(codec.STATS), 5.0)
                    except ConnectionError as exc:
                        outcomes.append(str(exc))
                await link.close()
                return outcomes

        outcomes = asyncio.run(scenario())
        assert len(outcomes) == 2
        assert "before its stats reply" in outcomes[0]


class TestDialUntilDeadline:
    def test_connect_waits_for_a_listener_that_binds_late(self):
        port = free_ports(1)[0]

        async def scenario():
            link = ControlLink("127.0.0.1", port, "load", "default")
            dial = asyncio.get_running_loop().create_task(link.connect(5.0))
            await asyncio.sleep(0.2)
            assert not dial.done()  # still retrying the refused connect
            server = await _stub_endpoint(port, _congested)
            async with server:
                await dial
                body = await link.ready(timeout=5.0)
                await link.close()
            return body

        assert asyncio.run(scenario()) == {"process": 0}

    def test_zero_deadline_is_one_attempt(self):
        port = free_ports(1)[0]
        link = ControlLink("127.0.0.1", port, "load", "default")
        started = time.monotonic()
        with pytest.raises(ConnectionRefusedError):
            asyncio.run(link.connect(timeout=0.0))
        assert time.monotonic() - started < 1.0


async def _kill(server, conns):
    """The endpoint dies: no listener, every connection closed."""
    server.close()
    for writer in conns:
        writer.close()
    await server.wait_closed()


class TestRedialAfterTheStreamEnds:
    """A link whose stream ended re-dials (HELLO, READY, within its
    connect timeout) before its next request, so a client outlives an
    endpoint's restart on the same port."""

    def test_round_trip_after_a_restart_succeeds(self):
        port = free_ports(1)[0]

        async def scenario():
            conns = []
            server = await _stub_endpoint(port, _congested, conns)
            client = ClusterClient([port])
            await client.connect(timeout=5.0)
            first = await client.stats()
            await _kill(server, conns)
            await asyncio.sleep(0.05)  # the EOF reaches the link
            server = await _stub_endpoint(port, _congested)
            async with server:
                second = await client.stats()
                await client.close()
            return first, second, client.links[0]

        first, second, link = asyncio.run(scenario())
        assert first[0]["process"] == second[0]["process"] == 0
        assert link.backpressure_signals == 2  # one per incarnation's reply

    def test_quiesce_polls_through_a_down_endpoint(self):
        port = free_ports(1)[0]

        async def scenario():
            conns = []
            server = await _stub_endpoint(port, _congested, conns)
            client = ClusterClient([port])
            await client.connect(timeout=5.0)
            await _kill(server, conns)

            async def come_back():
                await asyncio.sleep(0.4)
                return await _stub_endpoint(port, _congested)

            returning = asyncio.get_running_loop().create_task(come_back())
            started = time.monotonic()
            outcome = await client.quiesce(timeout=5.0, poll=0.05)
            waited = time.monotonic() - started
            async with await returning:
                await client.close()
            return outcome, waited

        (quiesced, stats), waited = asyncio.run(scenario())
        assert quiesced and stats[0]["process"] == 0
        assert 0.3 < waited < 3.0

    def test_an_endpoint_that_never_returns(self):
        """quiesce gives up at its timeout, not the re-dial's; DRAIN
        then fails with one ConnectionError."""
        port = free_ports(1)[0]

        async def scenario():
            conns = []
            server = await _stub_endpoint(port, _congested, conns)
            client = ClusterClient([port])
            await client.connect(timeout=0.3)
            await _kill(server, conns)
            started = time.monotonic()
            outcome = await client.quiesce(timeout=1.0, poll=0.05)
            waited = time.monotonic() - started
            try:
                await client.drain()
            except Exception as exc:  # noqa: BLE001 - the type is the point
                failure = exc
            await client.close()
            return outcome, waited, failure

        (quiesced, stats), waited, failure = asyncio.run(scenario())
        assert not quiesced and stats == []
        assert 0.9 < waited < 1.8
        assert isinstance(failure, ConnectionError)
        assert "did not come back" in str(failure)

    def test_collector_pull_survives_a_restart(self):
        """`repro top` keeps watching a host that restarts."""
        port = free_ports(1)[0]

        async def scenario():
            conns = []
            server = await _stub_endpoint(port, _congested, conns)
            collector = ClusterCollector([port])
            await collector.connect(timeout=5.0)
            before = await collector.pull(rounds=1)
            await _kill(server, conns)
            await asyncio.sleep(0.05)
            server = await _stub_endpoint(port, _congested)
            async with server:
                after = await collector.pull(rounds=1)
                await collector.close()
            return before, after

        before, after = asyncio.run(scenario())
        for pulls in (before, after):
            assert [pull.process for pull in pulls] == [0]
            assert pulls[0].stats_body and pulls[0].metrics_body


class TestFollowedStream:
    """An observer stream: RECORDS go to their owner, a stream that ends
    is re-dialed, and a chunk its owner refuses stops it for good."""

    def _run(self, on_records):
        port = free_ports(1)[0]
        chunk = codec.encode_frame(codec.RECORDS, b"chunk")

        async def scenario():
            accepted = []

            async def handler(reader, writer):
                accepted.append(writer)
                try:
                    await read_frame(reader)  # the HELLO
                    ready = codec.encode_frame(codec.READY, {"process": 0})
                    writer.write(chunk + ready)
                    await writer.drain()
                    if len(accepted) > 1:
                        await reader.read()
                finally:  # the first incarnation's stream ends at once
                    writer.close()

            server = await asyncio.start_server(handler, "127.0.0.1", port)
            link = ControlLink("127.0.0.1", port, "observer", "default", on_records)
            async with server:
                await link.connect(timeout=5.0)
                await link.follow(timeout=5.0)
                for _ in range(100):
                    if link.redials or link.failure:
                        break
                    await asyncio.sleep(0.02)
                await asyncio.sleep(0.1)
                await link.close()
            return link, len(accepted)

        return asyncio.run(scenario())

    def test_an_ended_stream_is_redialed_once_it_is_ready(self):
        chunks = []
        link, accepted = self._run(chunks.append)
        assert (link.redials, accepted, link.failure) == (1, 2, None)
        assert chunks == [b"chunk", b"chunk"]  # the history, replayed

    def test_a_refused_chunk_stops_the_stream(self):
        def refuse(data):
            raise ValueError("bad chunk")

        link, accepted = self._run(refuse)
        assert (link.redials, accepted) == (0, 1)
        assert str(link.failure) == "bad chunk"


class TestShardWorkerChecksTheRunId:
    def test_mismatching_hello_is_rejected_like_a_nethost_does(self):
        """`repro serve --shards --run-id X` documents "connections for
        another run are rejected"; the worker used not to look."""
        port = free_ports(1)[0]
        worker = ShardWorker(
            ShardWorkerConfig(
                shard=0, n_shards=1, n_processes=2, port=port, run_id="mine"
            )
        )

        async def scenario():
            serving = asyncio.get_running_loop().create_task(worker.serve_forever())
            stranger = ControlLink("127.0.0.1", port, "load", "theirs")
            await stranger.connect(timeout=5.0)
            with pytest.raises(ConnectionError, match="wrong run id"):
                await stranger.ready(timeout=5.0)
            await stranger.close()
            client = ClusterClient([port], run_id="mine")
            await client.connect(timeout=5.0)
            stats = await client.stats()
            await client.bye()
            await client.close()
            await asyncio.wait_for(serving, 5.0)
            return stats

        (stats,) = asyncio.run(scenario())
        assert stats["errors"] == [
            "rejected connection for run 'theirs' (serving 'mine')"
        ]


class TestShardedLoadOperatorErrors:
    def test_refused_fleet_names_the_port_base(self, capsys):
        """`repro load` learns the cluster's size from the first READY, so
        a cluster that never answered is named by its first port."""
        port = free_ports(1)[0]
        code = main(
            ["load", "--port-base", str(port), "--quiesce-timeout", "0.2"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.count("\n") == 1
        assert "connection refused at 127.0.0.1:%d " % port in captured.err

    def test_silent_fleet_times_out_in_one_line(self, capsys):
        """An endpoint that accepts but never says READY used to escape
        `repro load` as an asyncio.TimeoutError traceback."""
        port = free_ports(1)[0]

        async def scenario():
            async def mute(reader, writer):
                try:
                    await reader.read()  # swallow the HELLO, answer nothing
                finally:
                    writer.close()

            server = await asyncio.start_server(mute, "127.0.0.1", port)
            async with server:
                return await asyncio.get_running_loop().run_in_executor(
                    None,
                    main,
                    [
                        "load",
                        "--port-base",
                        str(port),
                        "--quiesce-timeout",
                        "0.3",
                    ],
                )

        code = asyncio.run(scenario())
        captured = capsys.readouterr()
        assert code == 1
        assert "repro load: timed out waiting for the cluster" in captured.err
        assert "Traceback" not in captured.err
