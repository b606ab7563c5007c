"""Net-host runtime tests: wall clock, framing adapters, shutdown."""

import asyncio
import time

import pytest

from repro.events import Event, Message
from repro.faults import FaultPlan
from repro.net import (
    AsyncTransport,
    NetHost,
    WallClock,
    free_ports,
)
from repro.net import codec
from repro.net.client import ControlLink
from repro.net.transport import packet_from_frame
from repro.protocols import catalogue
from repro.simulation.network import Packet
from repro.wal import records as wal_records
from tests.frame_client import read_frame


class TestWallClock:
    def test_schedule_before_start_raises(self):
        clock = WallClock()
        with pytest.raises(RuntimeError, match="before start"):
            clock.schedule(1.0, lambda: None)

    def test_negative_delay_raises(self):
        async def scenario():
            clock = WallClock()
            clock.start()
            with pytest.raises(ValueError, match="into the past"):
                clock.schedule(-1.0, lambda: None)

        asyncio.run(scenario())

    def test_bad_time_scale_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            WallClock(time_scale=0.0)

    def test_now_advances_in_virtual_units(self):
        async def scenario():
            clock = WallClock(time_scale=0.001)  # 1 unit == 1ms
            clock.start()
            await asyncio.sleep(0.03)
            return clock.now

        elapsed = asyncio.run(scenario())
        assert elapsed >= 20.0  # at least ~20 virtual units passed

    def test_timers_fire_and_untrack(self):
        async def scenario():
            clock = WallClock(time_scale=0.001)
            clock.start()
            fired = []
            clock.schedule(5.0, lambda: fired.append("a"))
            assert clock.pending_timers == 1
            await asyncio.sleep(0.05)
            return fired, clock.pending_timers

        fired, pending = asyncio.run(scenario())
        assert fired == ["a"]
        assert pending == 0

    def test_cancel_all_empties_and_closes(self):
        async def scenario():
            clock = WallClock(time_scale=0.001)
            clock.start()
            fired = []
            for delay in (50.0, 60.0, 70.0):
                clock.schedule(delay, lambda: fired.append(delay))
            cancelled = clock.cancel_all()
            # A closed clock drops new timers instead of arming them.
            clock.schedule(1.0, lambda: fired.append("late"))
            await asyncio.sleep(0.01)
            return cancelled, clock.pending_timers, fired

        cancelled, pending, fired = asyncio.run(scenario())
        assert cancelled == 3
        assert pending == 0
        assert fired == []


class TestPacketFraming:
    def _transport(self):
        transport = AsyncTransport(0)
        transport._stamp = lambda packet: (1.5, 1.0)
        return transport

    def test_user_packet_round_trips(self):
        message = Message(id="m1", sender=0, receiver=1, payload=("x", 2))
        packet = Packet(src=0, dst=1, kind="user", message=message, tag=(3, 4))
        kind, head, sections = self._transport()._frame_for(packet)
        frame, _ = codec.decode_frame(codec.encode_frame(kind, head, sections))
        rebuilt = packet_from_frame(frame)
        assert rebuilt.is_user
        assert rebuilt.message == message
        assert rebuilt.tag == (3, 4)
        assert rebuilt.wire_text == codec.dumps_value((3, 4))
        assert rebuilt.send_time == 1.5  # the wall stamp rides the frame

    def test_control_packet_round_trips(self):
        packet = Packet(
            src=1, dst=0, kind="control", payload={"acks": [1, 2], "seq": (5,)}
        )
        kind, head, sections = self._transport()._frame_for(packet)
        frame, _ = codec.decode_frame(codec.encode_frame(kind, head, sections))
        rebuilt = packet_from_frame(frame)
        assert not rebuilt.is_user
        assert rebuilt.payload == {"acks": [1, 2], "seq": (5,)}

    def test_non_packet_frame_rejected(self):
        frame, _ = codec.decode_frame(codec.encode_frame(codec.DRAIN, {}))
        with pytest.raises(codec.MalformedFrame, match="does not describe"):
            packet_from_frame(frame)

    def test_missing_field_rejected(self):
        frame, _ = codec.decode_frame(
            codec.encode_frame(codec.CONTROL, {"src": 0}, (None, ("rack", 1)))
        )
        with pytest.raises(codec.MalformedFrame, match="missing field"):
            packet_from_frame(frame)


def _script(trace, first, last):
    """Messages ``m<first>..m<last-1>``, each with its four events, at 0."""
    for n in range(first, last):
        message = Message(id="m%d" % n, sender=0, receiver=0, payload=n)
        trace.register_message(message)
        for kind in ("invoke", "send", "receive", "deliver"):
            trace.record(float(n), 0, getattr(Event, kind)(message.id))


def _resolved(chunks):
    """``resolve_events`` over each RECORDS chunk by itself, checking
    that a message's body rides its first mention in the chunk only."""
    resolved = []
    for chunk in chunks:
        records, offset, mentioned = [], 0, set()
        while offset < len(chunk):
            record, offset = wal_records.decode_record(chunk, offset)
            records.append(record)
            assert ("m" in record.body) == (record.body["cid"] not in mentioned)
            mentioned.add(record.body["cid"])
        resolved.extend(wal_records.resolve_events(records, verify=True))
    return resolved


def _trace_events(trace):
    return [
        (r.time, r.process, r.event, trace.message(r.event.message_id))
        for r in trace.records()
    ]


class _Stream:
    """An observer's stream writer, kept in memory."""

    def __init__(self):
        self.data = b""

    def write(self, data):
        self.data += data

    def is_closing(self):
        return False

    def chunks(self):
        frames = codec.FrameDecoder().feed(self.data)
        return [frame.body for frame in frames if frame.kind == codec.RECORDS]


class TestObserverTap:
    def test_each_observer_resolves_the_trace_from_its_chunks(self):
        """The host taps its trace as the WAL's own EVENT records: a
        scripted trace, with a second observer attaching mid-run, comes
        out of ``resolve_events`` over each observer's RECORDS chunks as
        exactly the trace's records, and every chunk resolves alone."""

        async def attach(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                codec.encode_frame(
                    codec.HELLO, {"process": -1, "role": "observer", "run": "tap"}
                )
            )
            chunks = []
            while True:  # the history comes before READY
                frame = await asyncio.wait_for(read_frame(reader), 5.0)
                if frame.kind == codec.READY:
                    return reader, writer, chunks
                chunks.append(frame.body)

        async def scenario():
            ports = free_ports(1)
            host = NetHost(_fifo_factory(), 0, ports, run_id="tap")
            await host.start()
            await host.ready()
            early = await attach(ports[0])
            _script(host.trace, 1, 4)
            await asyncio.sleep(0.02)  # the tap's tick flush
            late = await attach(ports[0])
            _script(host.trace, 4, 7)
            await asyncio.sleep(0.02)
            expected = _trace_events(host.trace)
            await host.shutdown()
            streams = []
            for reader, writer, chunks in (early, late):
                while True:
                    frame = await asyncio.wait_for(read_frame(reader), 5.0)
                    if frame is None:
                        break
                    if frame.kind == codec.RECORDS:
                        chunks.append(frame.body)
                writer.close()
                streams.append(chunks)
            return expected, streams

        expected, streams = asyncio.run(scenario())
        assert len(expected) == 24
        assert [_resolved(chunks) for chunks in streams] == [expected, expected]
        assert len(streams[1]) >= 2  # history, then the tap

    def test_an_observer_attaching_mid_tick_gets_each_record_once(self):
        """Records tapped in the loop tick an observer attaches in are in
        the history it is sent, so the tap must not send them again."""

        async def scenario():
            host = NetHost(_fifo_factory(), 0, free_ports(1), run_id="tick")
            early, late = _Stream(), _Stream()
            host._attach_observer(early)
            _script(host.trace, 1, 3)  # still in the tap when `late` comes
            host._attach_observer(late)
            _script(host.trace, 3, 5)
            await asyncio.sleep(0)  # the tick's flush
            return _trace_events(host.trace), early.chunks(), late.chunks()

        expected, early, late = asyncio.run(scenario())
        assert _resolved(early) == _resolved(late) == expected
        assert len(expected) == 16

    def test_a_stats_reply_never_overtakes_the_events_it_counts(self):
        """A run settles on STATS and then reads the observer's verdict,
        so the tap is flushed before a STATS body is built, not at the
        end of the tick (a reply could otherwise get there first)."""

        async def scenario():
            host = NetHost(_fifo_factory(), 0, free_ports(1), run_id="stats")
            stream = _Stream()
            host._attach_observer(stream)
            _script(host.trace, 1, 3)
            host.stats_body()  # in the same tick
            return _trace_events(host.trace), stream.chunks()

        expected, chunks = asyncio.run(scenario())
        assert _resolved(chunks) == expected


def _fifo_factory():
    return catalogue()["fifo"].factory


async def _wait_for_giveup(host, peer):
    """Spin until ``host``'s reconnect supervisor for ``peer`` gives up."""
    needle = "gave up re-dialing peer %d" % peer
    while not any(needle in error for error in host.errors):
        await asyncio.sleep(0.02)


class TestNetHostLifecycle:
    def test_shutdown_cancels_outstanding_protocol_timers(self):
        """Under 100% drop the ARQ sublayer keeps a retransmit timer
        armed forever; shutdown must cancel it, not leak it."""

        async def scenario():
            ports = free_ports(2)
            factory = catalogue()["fifo"].reliable_factory()
            hosts = [
                NetHost(
                    factory,
                    process_id,
                    ports,
                    run_id="timers",
                    faults=FaultPlan(drop_rate=1.0, seed=1),
                    time_scale=0.001,
                )
                for process_id in range(2)
            ]
            for host in hosts:
                await host.start()
            for host in hosts:
                await host.ready()
            hosts[0].invoke(Message(id="m1", sender=0, receiver=1))
            await asyncio.sleep(0.05)
            armed = hosts[0].clock.pending_timers
            for host in hosts:
                await host.shutdown()
            remaining = [host.clock.pending_timers for host in hosts]
            return armed, remaining

        armed, remaining = asyncio.run(scenario())
        assert armed > 0  # the retransmit timer really was outstanding
        assert remaining == [0, 0]

    def test_draining_host_refuses_invokes(self):
        async def scenario():
            ports = free_ports(1)
            host = NetHost(_fifo_factory(), 0, ports, run_id="drain")
            await host.start()
            await host.ready()
            host.invoke(Message(id="m1", sender=0, receiver=0))
            for _ in range(200):  # loopback dispatch is a call_soon away
                if host.stats.deliveries:
                    break
                await asyncio.sleep(0.005)
            assert await host.drain(timeout=5.0)
            with pytest.raises(RuntimeError, match="draining"):
                host.invoke(Message(id="m2", sender=0, receiver=0))
            delivered = host.stats.deliveries
            await host.shutdown()
            return delivered

        assert asyncio.run(scenario()) == 1  # self-send loops back locally

    def test_wrong_run_id_rejected(self):
        async def scenario():
            ports = free_ports(1)
            host = NetHost(_fifo_factory(), 0, ports, run_id="right")
            await host.start()
            await host.ready()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", ports[0]
            )
            writer.write(
                codec.encode_frame(
                    codec.HELLO,
                    {"process": 0, "role": "load", "run": "wrong"},
                )
            )
            await writer.drain()
            assert await read_frame(reader) is None  # closed on us
            writer.close()
            await host.shutdown()
            return host.errors

        errors = asyncio.run(scenario())
        assert any("rejected connection" in error for error in errors)

    def test_rendezvous_completes_with_a_late_joining_host(self):
        """Host 1 sits behind a fault proxy whose upstream is not yet
        listening: host 0's dial "succeeds" against the proxy, then dies
        with an EOF.  The supervised re-dial path must run *pre-ready*
        or the rendezvous deadlocks forever."""

        async def scenario():
            from repro.faults.proxy import FaultProxy
            from repro.net.resilience import ReconnectPolicy, ResilienceConfig

            resilience = ResilienceConfig(
                heartbeat_interval=0.05,
                reconnect=ReconnectPolicy(base=0.05, cap=0.2, deadline=10.0),
            )
            public0, public1, private1 = free_ports(3)
            ports = [public0, public1]
            proxy = FaultProxy(public1, private1)
            await proxy.start()
            early = NetHost(
                _fifo_factory(),
                0,
                ports,
                run_id="late",
                resilience=resilience,
            )
            await early.start()
            # Let host 0 burn its initial dial (and get the EOF) before
            # the late joiner's listener exists.
            await asyncio.sleep(0.3)
            late = NetHost(
                _fifo_factory(),
                1,
                ports,
                run_id="late",
                resilience=resilience,
                listen_port=private1,
            )
            await late.start()
            await asyncio.wait_for(
                asyncio.gather(early.ready(), late.ready()), 15.0
            )
            late.invoke(Message(id="m1", sender=1, receiver=0))
            for _ in range(400):
                if early.stats.deliveries:
                    break
                await asyncio.sleep(0.005)
            delivered = early.stats.deliveries
            for host in (early, late):
                await host.shutdown()
            await proxy.close()
            return delivered

        assert asyncio.run(scenario()) == 1

    def test_a_redial_into_a_blackhole_is_not_a_restored_link(self):
        """Host 1's proxy blackholes host 0's stream.  Host 0's re-dials
        connect to the proxy, but no heartbeat echo comes back, so none
        counts: the link stays down and frames for host 1 stay queued
        until the heal, when one confirmed re-dial flushes them."""

        async def scenario():
            from repro.faults.proxy import FaultProxy
            from repro.net.resilience import ReconnectPolicy, ResilienceConfig

            resilience = ResilienceConfig(
                heartbeat_interval=0.05,
                reconnect=ReconnectPolicy(base=0.05, cap=0.2, deadline=10.0),
            )
            public0, public1, private1 = free_ports(3)
            ports = [public0, public1]
            proxy = FaultProxy(public1, private1)
            await proxy.start()
            hosts = [
                NetHost(_fifo_factory(), 0, ports, run_id="bh", resilience=resilience),
                NetHost(
                    _fifo_factory(),
                    1,
                    ports,
                    run_id="bh",
                    resilience=resilience,
                    listen_port=private1,
                ),
            ]
            for host in hosts:
                await host.start()
            await asyncio.wait_for(asyncio.gather(*(h.ready() for h in hosts)), 15.0)
            sender, receiver = hosts
            proxy.blackhole(0)
            while sender.transport.link_up(1):
                await asyncio.sleep(0.02)
            for n in range(5):
                sender.invoke(Message(id="m%d" % n, sender=0, receiver=1))
            await asyncio.sleep(1.5)  # several re-dial attempts
            during = (
                sender.transport.link_up(1),
                sender.redials,
                sender.transport.pending_frames,
            )
            proxy.heal(0)
            for _ in range(400):
                if receiver.stats.deliveries == 5:
                    break
                await asyncio.sleep(0.01)
            after = (receiver.stats.deliveries, sender.redials)
            for host in hosts:
                await host.shutdown()
            await proxy.close()
            return during, after

        during, after = asyncio.run(scenario())
        assert during == (False, 0, 5)
        assert after == (5, 1)

    def test_handshake_interrupted_mid_hello_leaves_host_serving(self):
        async def scenario():
            ports = free_ports(1)
            host = NetHost(_fifo_factory(), 0, ports, run_id="torn")
            await host.start()
            await host.ready()
            hello = codec.encode_frame(
                codec.HELLO, {"process": -1, "role": "load", "run": "torn"}
            )
            # A dialer that dies mid-HELLO: half the frame, then EOF.
            _, torn_writer = await asyncio.open_connection(
                "127.0.0.1", ports[0]
            )
            torn_writer.write(hello[: len(hello) // 2])
            await torn_writer.drain()
            torn_writer.close()
            await asyncio.sleep(0.05)
            # The host logged the torn handshake and still serves.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", ports[0]
            )
            writer.write(hello)
            await writer.drain()
            frame = await asyncio.wait_for(read_frame(reader), 5.0)
            writer.close()
            errors = list(host.errors)
            await host.shutdown()
            return frame, errors

        frame, errors = asyncio.run(scenario())
        assert frame is not None and frame.kind == codec.READY
        assert any("handshake:" in error for error in errors)

    def test_duplicate_hello_from_stale_incarnation_rejected(self):
        async def scenario():
            ports = free_ports(2)
            host = NetHost(_fifo_factory(), 0, ports, run_id="stale")
            await host.start()  # peer 1 never starts: we play it by hand

            def peer_hello(incarnation):
                return codec.encode_frame(
                    codec.HELLO,
                    {
                        "process": 1,
                        "role": "peer",
                        "run": "stale",
                        "incarnation": incarnation,
                    },
                )

            live_reader, live_writer = await asyncio.open_connection(
                "127.0.0.1", ports[0]
            )
            live_writer.write(peer_hello(2))
            await live_writer.drain()
            await asyncio.sleep(0.05)
            # A delayed duplicate from the peer's dead incarnation.
            stale_reader, stale_writer = await asyncio.open_connection(
                "127.0.0.1", ports[0]
            )
            stale_writer.write(peer_hello(1))
            await stale_writer.drain()
            closed = await asyncio.wait_for(read_frame(stale_reader), 5.0)
            stale_writer.close()
            # The live session must be undisturbed: its heartbeats still
            # echo on the same socket.
            live_writer.write(
                codec.encode_frame(codec.HEARTBEAT, {"process": 1, "n": 7})
            )
            await live_writer.drain()
            echo = await asyncio.wait_for(read_frame(live_reader), 5.0)
            live_writer.close()
            errors = list(host.errors)
            await host.shutdown()
            return closed, echo, errors

        closed, echo, errors = asyncio.run(scenario())
        assert closed is None  # the stale dialer was cut off
        assert echo is not None and echo.kind == codec.HEARTBEAT
        assert echo.body.get("echo") is True and echo.body.get("n") == 7
        assert any("stale HELLO" in error for error in errors)

    def test_drain_from_load_client_is_a_barrier_not_terminal(self):
        """A load client's DRAIN quiesces *that run*.  Once the drained
        client disconnects (without BYE -- the keep-serving flow), the
        host must take invokes again and keep its resilience machinery
        running, or the first completed load run freezes link repair
        forever."""

        async def scenario():
            ports = free_ports(1)
            host = NetHost(_fifo_factory(), 0, ports, run_id="barrier")
            await host.start()
            await host.ready()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", ports[0]
            )
            writer.write(
                codec.encode_frame(
                    codec.HELLO, {"process": -1, "role": "load", "run": "barrier"}
                )
            )
            await writer.drain()
            ready = await asyncio.wait_for(read_frame(reader), 5.0)
            assert ready is not None and ready.kind == codec.READY
            writer.write(codec.encode_frame(codec.DRAIN, {}))
            await writer.drain()
            ack = await asyncio.wait_for(read_frame(reader), 5.0)
            assert ack is not None and ack.kind == codec.DRAIN
            mid_drain = host.draining
            writer.close()
            for _ in range(200):
                if not host.draining:
                    break
                await asyncio.sleep(0.005)
            rearmed = not host.draining
            host.invoke(Message(id="m1", sender=0, receiver=0))
            await host.shutdown()
            return mid_drain, rearmed

        mid_drain, rearmed = asyncio.run(scenario())
        assert mid_drain  # the barrier really was in force
        assert rearmed  # ... and lifted when the client went away

    def test_crashed_peer_rejoins_after_drain_and_giveup_deadline(self):
        """The full outage shape `repro serve` hosts must survive: a load
        run completes (DRAIN barrier), a peer dies and stays dead past
        the reconnect give-up deadline, then comes back.  The survivor
        must dial back on the returning peer's HELLO -- a drained run or
        an exhausted supervisor must not leave the link down forever."""

        async def scenario():
            from repro.net.resilience import ReconnectPolicy, ResilienceConfig

            resilience = ResilienceConfig(
                heartbeat_interval=0.05,
                reconnect=ReconnectPolicy(base=0.05, cap=0.2, deadline=0.5),
            )
            ports = free_ports(2)
            survivor = NetHost(
                _fifo_factory(), 0, ports, run_id="rejoin", resilience=resilience
            )
            victim = NetHost(
                _fifo_factory(), 1, ports, run_id="rejoin", resilience=resilience
            )
            for host in (survivor, victim):
                await host.start()
            for host in (survivor, victim):
                await host.ready()
            # One completed load run against the survivor: DRAIN, ack,
            # disconnect -- the sequence every `repro load` ends with.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", ports[0]
            )
            writer.write(
                codec.encode_frame(
                    codec.HELLO, {"process": -1, "role": "load", "run": "rejoin"}
                )
            )
            writer.write(codec.encode_frame(codec.DRAIN, {}))
            await writer.drain()
            for _ in range(2):  # READY then the DRAIN ack
                assert await asyncio.wait_for(read_frame(reader), 5.0)
            writer.close()
            await victim.crash()
            # Stay dead until the survivor's supervisor gives up.
            await asyncio.wait_for(_wait_for_giveup(survivor, peer=1), 10.0)
            reborn = NetHost(
                _fifo_factory(),
                1,
                ports,
                run_id="rejoin",
                resilience=resilience,
                incarnation=1,
            )
            await reborn.start()
            await asyncio.wait_for(
                asyncio.gather(survivor.ready(), reborn.ready()), 15.0
            )
            survivor.invoke(Message(id="m1", sender=0, receiver=1))
            for _ in range(400):
                if reborn.stats.deliveries:
                    break
                await asyncio.sleep(0.005)
            delivered = reborn.stats.deliveries
            redials = survivor.redials
            draining = survivor.draining
            for host in (survivor, reborn):
                await host.shutdown()
            return delivered, redials, draining

        delivered, redials, draining = asyncio.run(scenario())
        assert delivered == 1  # the resumed session carries traffic
        assert redials >= 1  # the survivor dialed back on the new HELLO
        assert not draining  # the drain barrier did not outlive its run

    def test_retransmission_reuses_original_stamp(self):
        """A frame's wall stamps are its message's send and invoke
        records', so every copy carries the first one's."""

        async def scenario():
            ports = free_ports(1)
            host = NetHost(_fifo_factory(), 0, ports, run_id="stamp")
            await host.start()
            message = Message(id="m1", sender=0, receiver=1)
            host.trace.register_message(message)
            host.trace.record(1.0, 0, Event.invoke("m1"))
            host.trace.record(2.0, 0, Event.send("m1"))
            packet = Packet(src=0, dst=1, kind="user", message=message)
            first = host.host.stamp(packet)
            await asyncio.sleep(0.01)
            second = host.host.stamp(packet)  # the "retransmission"
            expected = (host.clock.wall_at(2.0), host.clock.wall_at(1.0))
            await host.shutdown()
            return first, second, expected

        first, second, expected = asyncio.run(scenario())
        assert first == second == expected

    def test_a_replayed_send_is_stamped_now(self, tmp_path):
        """WAL recovery replays records in the dead incarnation's clock,
        so a frame for a replayed send is stamped with the time it
        leaves, not with that clock's reading mapped onto the new one."""

        async def scenario():
            ports = free_ports(2)  # peer 1 never comes: m1 stays unacked
            first = NetHost(_fifo_factory(), 0, ports, wal_dir=str(tmp_path))
            await first.start()
            await asyncio.sleep(0.05)  # a send time the restart cannot reach
            first.invoke(Message(id="m1", sender=0, receiver=1))
            await first.crash()
            again = NetHost(_fifo_factory(), 0, ports, wal_dir=str(tmp_path))
            await again.start()
            message = again.trace.message("m1")
            packet = Packet(src=0, dst=1, kind="user", message=message)
            before = time.time()
            stamps = again.host.stamp(packet)
            after = time.time()
            await again.shutdown()
            return again.recovered, before, stamps, after

        recovered, before, (sent, invoked), after = asyncio.run(scenario())
        assert recovered
        assert before <= invoked <= sent <= after

    def test_a_finished_run_keeps_no_stamp_per_message(self):
        """The sender's stamps are read off its trace, so once every
        message is delivered no host keeps a per-message stamp entry (it
        used to keep two for ever)."""

        async def scenario():
            ports = free_ports(2)
            hosts = [NetHost(_fifo_factory(), p, ports, run_id="bounded") for p in (0, 1)]
            for host in hosts:
                await host.start()
            for host in hosts:
                await host.ready()
            for n in range(20):
                hosts[n % 2].invoke(Message("m%d" % n, n % 2, (n + n // 2) % 2))
            for _ in range(400):
                if sum(host.stats.deliveries for host in hosts) == 20:
                    break
                await asyncio.sleep(0.005)
            held = {
                (host.process_id, name)
                for host in hosts
                for name, value in vars(host.host).items()
                if isinstance(value, dict) and "m0" in value
            }
            for host in hosts:
                await host.shutdown()
            return sum(host.stats.deliveries for host in hosts), held

        delivered, held = asyncio.run(scenario())
        assert delivered == 20
        assert held == set()


class TestUserFrameHead:
    def test_a_user_head_is_its_endpoints_and_wall_stamps(self):
        """No vector clock rides a USER frame: the monitor owns causal
        order, so the head is the two endpoints and the two wall stamps."""

        async def scenario():
            ports = free_ports(2)
            hosts = [
                NetHost(_fifo_factory(), process_id, ports, run_id="head")
                for process_id in range(2)
            ]
            heads = []
            frame_for = hosts[0].transport._frame_for

            def spy(packet):
                kind, head, sections = frame_for(packet)
                if kind == codec.USER:
                    heads.append(set(head))
                return kind, head, sections

            hosts[0].transport._frame_for = spy
            for host in hosts:
                await host.start()
            for host in hosts:
                await host.ready()
            for n in range(3):
                hosts[0].invoke(Message(id="m%d" % n, sender=0, receiver=1))
            for _ in range(400):
                if hosts[1].stats.deliveries == 3:
                    break
                await asyncio.sleep(0.005)
            delivered = hosts[1].stats.deliveries
            for host in hosts:
                await host.shutdown()
            return heads, delivered

        heads, delivered = asyncio.run(scenario())
        assert delivered == 3
        assert heads == [{"src", "dst", "sent", "invoked"}] * 3


class TestNetHostLatencyMetrics:
    def test_metrics_scrape_reads_the_histograms_stats_reads(self):
        """A METRICS scrape of a real host used to carry no delivery
        latency at all: the recorder only knows a release it saw on its
        own bus, and the wall-clock histograms rode STATS alone."""

        async def scenario():
            ports = free_ports(2)
            hosts = [
                NetHost(_fifo_factory(), process_id, ports, run_id="latency")
                for process_id in range(2)
            ]
            for host in hosts:
                await host.start()
            for host in hosts:
                await host.ready()
            for n in range(6):
                hosts[0].invoke(Message(id="m%d" % n, sender=0, receiver=1))
            # Self-addressed: released *and* delivered on one bus, so the
            # recorder could observe it too -- in virtual units.
            hosts[1].invoke(Message(id="self", sender=1, receiver=1))
            for _ in range(400):
                if hosts[1].stats.deliveries == 7:
                    break
                await asyncio.sleep(0.005)
            receiver = hosts[1]
            metrics = receiver.metrics_body()
            snapshot, text = metrics["snapshot"], metrics["text"]
            stats = receiver.stats_body()
            registry = receiver.metrics.registry
            same = (
                registry.get("latency.delivery") is receiver.host.delivery_latency
                and registry.get("latency.end_to_end") is receiver.host.e2e_latency
            )
            for host in hosts:
                await host.shutdown()
            return snapshot, text, stats, same

        snapshot, text, stats, same = asyncio.run(scenario())
        assert same
        assert 'latency_delivery_count{process="1"} 7' in text
        assert stats["deliveries"] == 7
        for name, wire in (
            ("latency.delivery", stats["latencies"]),
            ("latency.end_to_end", stats["e2e_latencies"]),
        ):
            assert snapshot[name]["count"] == wire["count"] == 7
            assert snapshot[name]["total"] == wire["total"]

    def test_metrics_without_the_observability_plane_carry_host_counters(self):
        """The host writes its counters whether or not a recorder runs,
        so METRICS is no longer empty text with the plane off."""

        async def scenario():
            ports = free_ports(2)
            hosts = [
                NetHost(
                    _fifo_factory(),
                    process_id,
                    ports,
                    run_id="bare-metrics",
                    observability=False,
                )
                for process_id in range(2)
            ]
            for host in hosts:
                await host.start()
            for host in hosts:
                await host.ready()
            for n in range(3):
                hosts[0].invoke(Message(id="m%d" % n, sender=0, receiver=1))
            for _ in range(400):
                if hosts[1].stats.deliveries == 3:
                    break
                await asyncio.sleep(0.005)
            bodies = [host.metrics_body() for host in hosts]
            for host in hosts:
                await host.shutdown()
            return bodies

        sender, receiver = asyncio.run(scenario())
        assert 'messages_user{process="0"} 3' in sender["text"]
        assert 'messages_delivered{process="1"} 3' in receiver["text"]
        assert receiver["snapshot"]["latency.delivery"]["count"] == 3
        # The phases are the host's to write, recorder or not.
        assert sender["snapshot"]["latency.inhibition"]["count"] == 3
        assert receiver["snapshot"]["latency.buffering"]["count"] == 3

    def test_stats_invoked_counts_accepted_invokes(self):
        """STATS ``invoked`` is the host's ``messages.invoked`` counter,
        so an invoke row refused as "invoked twice" is not counted."""

        async def scenario():
            port = free_ports(1)[0]
            host = NetHost(_fifo_factory(), 0, [port], run_id="twice")
            serving = asyncio.get_running_loop().create_task(host.serve_forever())
            try:
                while host._server is None:  # serve_forever is binding
                    await asyncio.sleep(0.005)
                link = ControlLink("127.0.0.1", port, "load", "twice")
                await link.connect(timeout=1.0)
                await link.ready(timeout=1.0)
                row = ["m1", 0, 0, None, 0.0, None]
                link.send(codec.INVOKE_BATCH, {"rows": [row]})
                link.send(codec.INVOKE_BATCH, {"rows": [row]})
                stats = await link.request(codec.STATS)
                await link.close()
            finally:
                await host.shutdown()
                await asyncio.wait_for(serving, 1.0)
            return stats

        stats = asyncio.run(scenario())
        assert stats["invoked"] == 1
        assert [e for e in stats["errors"] if "invoked twice" in e]

    def test_receiver_end_to_end_counts_the_senders_inhibition(self):
        """Every USER frame carries the sender's invoke wall time, and
        the receiver used to drop it: its end-to-end latency equalled its
        delivery latency for every remote message.  Under ``sync-coord``
        invoke -> release is a round trip to the coordinator, so the two
        distributions must come apart at the receiver."""

        async def scenario():
            ports = free_ports(3)
            factory = catalogue()["sync-coord"].factory
            hosts = [
                NetHost(factory, process_id, ports, run_id="e2e")
                for process_id in range(3)
            ]
            for host in hosts:
                await host.start()
            for host in hosts:
                await host.ready()
            for n in range(8):
                hosts[1].invoke(Message(id="m%d" % n, sender=1, receiver=2))
            for _ in range(800):
                if hosts[2].stats.deliveries == 8:
                    break
                await asyncio.sleep(0.005)
            receiver = hosts[2].host
            observed = (
                receiver.delivery_latency.count,
                receiver.delivery_latency.percentile(50),
                receiver.e2e_latency.percentile(50),
                dict(receiver.invoked_wall),
            )
            for host in hosts:
                await host.shutdown()
            return observed

        count, delivery_p50, e2e_p50, leftover = asyncio.run(scenario())
        assert count == 8
        assert e2e_p50 > delivery_p50
        assert leftover == {}  # popped at delivery, like sent_wall
