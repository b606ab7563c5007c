"""Conformance and soak tests over real loopback TCP.

The acceptance sweep of the net runtime: every catalogue protocol runs
**unmodified** behind :class:`~repro.net.NetHost`, with a live
:class:`~repro.verification.engine.SpecMonitor` fed by the observer's
merged event stream.  Correct protocols must quiesce with zero
violations; a deliberately broken one must be flagged live.
"""

import asyncio
import gc
import time
from collections import Counter

import pytest

from repro.events import Event, Message
from repro.faults import FaultPlan
from repro.faults.proxy import FaultProxy
from repro.mc.mutations import mutation_factories
from repro.cli import main
from repro.net import NetHost, codec, run_cluster_sync
from repro.net.client import ControlLink
from repro.net.cluster import (
    LiveObserver,
    LoadGenerator,
    NetRunReport,
    Pacer,
    drive_run,
    free_ports,
    run_cluster,
)
from repro.net.host import record_frames
from repro.net.shard import ShardWorker, ShardWorkerConfig
from repro.predicates.catalog import CAUSAL_B2, CAUSAL_ORDERING, FIFO, FIFO_ORDERING
from repro.protocols import GeneratedTaggedProtocol, catalogue
from repro.protocols.base import make_factory
from repro.simulation.trace import TraceRecord
from repro.wal import records as wal_records
from tests.conftest import free_port_base
from tests.frame_client import read_frame

# Fast wall mapping for tests: 1 virtual unit == 1ms, so the ARQ's
# 30-unit RTO is 30ms and soak runs converge quickly.
FAST = 0.001


def _run(name, seed, **overrides):
    entry = catalogue()[name]
    options = dict(
        protocol_name=name,
        rate=250.0,
        duration=0.5,
        seed=seed,
        spec=entry.spec,
        time_scale=FAST,
        color_rate=0.15 if name == "flush" else 0.0,
        run_id="t-%s-%d" % (name, seed),
    )
    options.update(overrides)
    return run_cluster_sync(entry.factory, 3, **options)


class TestCatalogueOverLoopbackTcp:
    """Every (protocol, seed) pair: clean quiesce, live spec holds."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(catalogue()))
    def test_protocol_implements_its_spec_live(self, name, seed):
        report = _run(name, seed)
        assert report.quiesced, report.render()
        assert report.violation is None, report.render()
        assert not report.errors, report.render()
        assert report.invoked == report.offered
        assert report.delivered >= report.invoked
        # The observer really merged the full four-event stream.
        assert report.observer_events >= 4 * report.invoked

    def test_report_carries_throughput_and_latency(self):
        report = _run("fifo", 0)
        assert report.delivered / report.elapsed > 0
        assert report.latencies.percentile(99) >= report.latencies.percentile(50) > 0
        assert "msg/s" in report.render()
        assert report.ok


class TestSynthesizedProtocolOverLoopbackTcp:
    """The constructive side of Theorem 3.2 on real sockets: the tag (the
    causal past as plain tuples) crosses the wire codec and the WAL, and
    the engine search keeps up with the offered load."""

    @pytest.mark.parametrize(
        "predicate, spec",
        [(FIFO, FIFO_ORDERING), (CAUSAL_B2, CAUSAL_ORDERING)],
        ids=["fifo", "causal-B2"],
    )
    def test_generated_protocol_implements_its_spec_live(
        self, predicate, spec, tmp_path
    ):
        report = run_cluster_sync(
            make_factory(GeneratedTaggedProtocol, [predicate]),
            3,
            protocol_name="generated-%s" % predicate.name,
            rate=300.0,
            duration=0.5,
            seed=0,
            spec=spec,
            time_scale=FAST,
            wal_dir=str(tmp_path),
            run_id="t-generated-%s" % predicate.name,
        )
        assert report.quiesced, report.render()
        assert report.violation is None, report.render()
        assert not report.errors, report.render()
        assert report.delivered == report.invoked == report.offered == 150


class TestLiveViolationDetection:
    def test_broken_fifo_is_flagged(self):
        """TCP's per-connection FIFO would mask the bug, so a spike plan
        reorders frames in the faulty layer above the socket."""
        factory = mutation_factories()["broken-fifo"]
        report = run_cluster_sync(
            factory,
            2,
            protocol_name="broken-fifo",
            rate=300.0,
            duration=0.6,
            seed=3,
            spec=FIFO_ORDERING,
            faults=FaultPlan(spike_rate=0.3, spike_delay=20.0, seed=3),
            time_scale=FAST,
            run_id="t-broken",
        )
        assert report.violation is not None
        assert not report.ok

    def test_correct_fifo_survives_the_same_spikes(self):
        report = _run(
            "fifo",
            3,
            rate=300.0,
            duration=0.6,
            faults=FaultPlan(spike_rate=0.3, spike_delay=20.0, seed=3),
            run_id="t-spiked",
        )
        assert report.quiesced, report.render()
        assert report.violation is None
        assert report.fault_counters.get("spikes", 0) > 0


class TestSyncOracleFallback:
    """The live monitor truncates the crown family (arity cap 2); the
    end-of-run membership oracle must close the completeness gap."""

    def _feed(self, observer):
        from repro.events import EventKind

        # A crown of length 3 with no crown of length 2: three messages
        # m1: 0->1, m2: 1->2, m3: 2->0 where each process sends before it
        # delivers (p0: m1.s then m3.r; p1: m2.s then m1.r; p2: m3.s then
        # m2.r).  Pairwise the cycle conditions never close, so the
        # capped live search sees nothing.
        messages = {
            "m1": Message(id="m1", sender=0, receiver=1),
            "m2": Message(id="m2", sender=1, receiver=2),
            "m3": Message(id="m3", sender=2, receiver=0),
        }
        script = {
            0: [("m1", "send"), ("m3", "recv")],
            1: [("m2", "send"), ("m1", "recv")],
            2: [("m3", "send"), ("m2", "recv")],
        }
        clock = 0.0
        for process, steps in script.items():
            for mid, action in steps:
                message = messages[mid]
                kinds = (
                    (EventKind.INVOKE, EventKind.SEND)
                    if action == "send"
                    else (EventKind.RECEIVE, EventKind.DELIVER)
                )
                for kind in kinds:
                    clock += 1.0
                    observer._queues[process].append(
                        (clock, process, Event(mid, kind), message)
                    )
        observer._merge()

    def test_crown3_passes_live_search_but_fails_the_oracle(self):
        from repro.net.cluster import LiveObserver
        from repro.predicates.catalog import LOGICALLY_SYNCHRONOUS

        observer = LiveObserver(3, spec=LOGICALLY_SYNCHRONOUS)
        self._feed(observer)
        assert observer.pending_merge == 0
        assert observer.violation is None  # capped search cannot see it
        found = observer.final_check()
        assert found is not None
        assert "oracle" in str(found)
        assert observer.oracle_outcome is False

    def test_uncapped_monitor_agrees_the_crown_is_real(self):
        import dataclasses

        from repro.net.cluster import LiveObserver
        from repro.predicates.catalog import LOGICALLY_SYNCHRONOUS

        full = dataclasses.replace(LOGICALLY_SYNCHRONOUS, oracle=None)
        observer = LiveObserver(3, spec=full)
        assert not observer._needs_oracle  # no oracle -> no truncation
        self._feed(observer)
        assert observer.violation is not None
        assert "crown" in observer.violation.predicate_name

    def test_synchronous_run_is_admitted(self):
        from repro.net.cluster import LiveObserver
        from repro.predicates.catalog import LOGICALLY_SYNCHRONOUS
        from repro.events import EventKind

        observer = LiveObserver(2, spec=LOGICALLY_SYNCHRONOUS)
        clock = 0.0
        for mid, (src, dst) in (("m1", (0, 1)), ("m2", (1, 0))):
            message = Message(id=mid, sender=src, receiver=dst)
            for process, kind in (
                (src, EventKind.INVOKE),
                (src, EventKind.SEND),
                (dst, EventKind.RECEIVE),
                (dst, EventKind.DELIVER),
            ):
                clock += 1.0
                observer._queues[process].append(
                    (clock, process, Event(mid, kind), message)
                )
            observer._merge()
        assert observer.final_check() is None
        assert observer.oracle_outcome is True


KINDS = ("invoke", "send", "receive", "deliver")


def _record(message, kind, t=1.0):
    """One trace record of ``message`` at its sender."""
    event = getattr(Event, kind)(message.id)
    return TraceRecord(time=t, sequence=0, process=message.sender, event=event)


def _event_bytes(message, kind, seen=None):
    return wal_records.encode_record(
        wal_records.event_record(_record(message, kind), message, seen)
    )


def _chunk_frames(*groups):
    """RECORDS frames as a host's tap writes them, one per group of
    ``(message, kind)`` steps at the sender."""
    return [
        frame
        for group in groups
        for frame in record_frames((_record(m, kind), m) for m, kind in group)
    ]


async def _observe(observer, data):
    """Attach ``observer`` to a stand-in host that answers the HELLO with
    ``data`` and then READY, as a host sends its history; returns once
    the observer has read up to READY (or a malformed chunk stopped it)."""

    async def serve(reader, writer):
        try:
            await read_frame(reader)
            writer.write(data + codec.encode_frame(codec.READY, {"process": 0}))
            await writer.drain()
            await reader.read()  # until the observer hangs up
        finally:  # also when the loop ends first and cancels the handler
            writer.close()

    server = await asyncio.start_server(serve, "127.0.0.1", 0)
    try:
        await observer.connect([server.sockets[0].getsockname()[1]], run_id="t-obs")
    finally:
        await observer.close()
        server.close()
        await server.wait_closed()


class TestObserverChunks:
    """The observer's side of the RECORDS stream, fed bytes directly."""

    M0, M1, M2 = (Message(id="m%d" % n, sender=0, receiver=0) for n in range(3))

    def test_merge_and_monitor_step_once_per_chunk(self):
        observer = LiveObserver(1, spec=FIFO_ORDERING)
        calls = {"merge": 0, "advance": 0}
        merge, advance = observer._merge, observer.monitor.advance

        def counted(name, function):
            def call(*args):
                calls[name] += 1
                return function(*args)

            return call

        observer._merge = counted("merge", merge)
        observer.monitor.advance = counted("advance", advance)
        messages = (self.M0, self.M1, self.M2)
        frames = _chunk_frames(*([(m, kind) for kind in KINDS] for m in messages))
        assert len(frames) == 3
        asyncio.run(_observe(observer, b"".join(frames)))
        assert observer.errors == []
        assert observer.events_seen == observer.events_merged == 12
        assert calls == {"merge": 3, "advance": 3}

    def test_a_replayed_chunk_does_not_hold_up_settle(self):
        """A host an observer re-attaches to replays its whole history:
        the merge skips the copies, and settle must not wait for them."""
        observer = LiveObserver(1)
        (frame,) = _chunk_frames([(self.M0, kind) for kind in KINDS])
        (decoded,) = codec.FrameDecoder().feed(frame)
        observer._on_chunk(0, decoded.body)
        observer._on_chunk(0, decoded.body)
        assert (observer.events_seen, observer.events_merged) == (8, 4)
        started = time.monotonic()
        asyncio.run(observer.settle(1.0))
        assert time.monotonic() - started < 0.1

    def _bad_chunk(self, case):
        good = _event_bytes(self.M1, "invoke") + _event_bytes(self.M1, "send")
        if case == "bad-crc":
            data = bytearray(good)
            data[-2] ^= 0x01  # a body byte of the last record
            return bytes(data)
        if case == "truncated":
            return good + _event_bytes(self.M1, "receive")[:-3]
        if case == "input-record":
            return good + wal_records.encode_record(
                wal_records.invoke_record(1.0, 0, self.M2)
            )
        if case == "cid-without-body":
            # M2's body rode the previous chunk: a chunk resolves alone.
            cid = codec.message_texts(self.M2).cid
            return good + _event_bytes(self.M2, "send", seen={cid})
        assert case == "malformed-body"
        return good + wal_records.encode_record(
            wal_records.WalRecord(
                wal_records.EVENT,
                {"t": 1.0, "p": 0, "k": "warp", "m": codec.message_to_wire(self.M1)},
            )
        )

    @pytest.mark.parametrize(
        "case, reason",
        [
            ("bad-crc", "crc mismatch"),
            ("truncated", "truncated"),
            ("input-record", "INPUT record in an observer chunk"),
            ("cid-without-body", "bad EVENT body"),
            ("malformed-body", "bad EVENT body"),
        ],
    )
    def test_malformed_chunk_ends_the_stream_and_merges_nothing(self, case, reason):
        first = _chunk_frames([(self.M0, k) for k in KINDS] + [(self.M2, "invoke")])
        bad = codec.encode_frame(codec.RECORDS, self._bad_chunk(case))
        after = _chunk_frames([(self.M1, "invoke")])
        observer = LiveObserver(1)
        asyncio.run(_observe(observer, b"".join(first) + bad + b"".join(after)))
        # The chunk before merged; nothing of the bad one or after it did.
        assert observer.events_merged == observer.trace.record_count == 5
        assert len(observer.errors) == 1
        assert observer.errors[0].startswith("observer stream 0: ")
        assert reason in observer.errors[0]

    def test_late_observer_takes_history_beyond_one_frame(self):
        """A trace spelling more than one frame's worth of records (80
        messages with 64 KiB payloads: over 5 MiB of bodies) replays to
        a late observer in several frames, each event merged once."""
        count = 80

        async def scenario():
            ports = free_ports(1)
            host = NetHost(
                catalogue()["fifo"].factory,
                0,
                ports,
                run_id="t-obs-big",
                observability=False,
            )
            await host.start()
            await host.ready()
            for n in range(count):
                message = Message(
                    id="m%d" % n, sender=0, receiver=0, payload=("%05d" % n) * 13107
                )
                host.trace.register_message(message)
                for kind in KINDS:
                    host.trace.record(float(n), 0, getattr(Event, kind)(message.id))
            observer = LiveObserver(1)
            try:
                await observer.connect(ports, run_id="t-obs-big")
                for _ in range(500):
                    if observer.events_merged >= 4 * count or observer.errors:
                        break
                    await asyncio.sleep(0.01)
            finally:
                await observer.close()
                await host.shutdown()
            return observer, host.errors

        observer, host_errors = asyncio.run(scenario())
        assert observer.errors == host_errors == []
        assert observer.events_seen == observer.events_merged == 4 * count


class TestObserverReattach:
    def test_a_restart_behind_a_fault_proxy_is_one_reconnect(self):
        """While a host is down its fault proxy accepts and hangs up at
        once.  The observer's stream re-dials through that until READY,
        and only the re-attach that reached READY counts: one restart is
        one reconnect, not one per dial while the host was down."""
        entry = catalogue()["fifo"]
        message = Message(id="m1", sender=0, receiver=0)

        async def scenario():
            public, private = free_ports(2)
            proxy = FaultProxy(public, private)
            await proxy.start()

            def incarnation():
                return NetHost(
                    entry.factory,
                    0,
                    [public],
                    run_id="t-reattach",
                    time_scale=FAST,
                    listen_port=private,
                )

            host = incarnation()
            await host.start()
            observer = LiveObserver(1, spec=entry.spec)
            try:
                await observer.connect([public], run_id="t-reattach")
                await host.crash()
                await asyncio.sleep(0.6)  # down: the proxy refuses upstream
                host = incarnation()
                await host.start()
                host.invoke(message)
                for _ in range(200):
                    if observer.events_merged == 4:
                        break
                    await asyncio.sleep(0.02)
                await asyncio.sleep(0.2)  # time for a spurious re-dial
                return observer.reconnects, observer.events_merged, observer.errors
            finally:
                await observer.close()
                await host.shutdown()
                await proxy.close()

        reconnects, merged, errors = asyncio.run(scenario())
        assert (reconnects, merged, errors) == (1, 4, [])


class TestSoakUnderLoss:
    def test_reliable_sublayer_survives_five_percent_drop(self):
        """The soak acceptance run: 5% drop on real sockets, the ARQ
        sublayer recovers every loss, the live monitor stays quiet."""
        entry = catalogue()["fifo"]
        report = run_cluster_sync(
            entry.reliable_factory(),
            3,
            protocol_name="reliable-fifo",
            rate=250.0,
            duration=0.8,
            seed=7,
            spec=entry.spec,
            faults=FaultPlan(drop_rate=0.05, seed=7),
            time_scale=FAST,
            quiesce_timeout=60.0,
            run_id="t-soak",
        )
        assert report.ok, report.render()
        assert report.delivered == report.invoked == report.offered
        # The plan really dropped frames and the ARQ really recovered.
        assert report.fault_counters.get("packets_dropped", 0) > 0
        assert report.retransmissions > 0


class TestKeptFleet:
    def test_second_load_against_kept_hosts_is_a_run_of_its_own(self):
        """Hosts left serving (``repro load --keep-serving``) take a
        second load: its ids continue after the first run's instead of
        restarting at ``m1`` (every message used to be refused as
        ``invoked twice``), its report counts its own messages, and its
        observer is fed every event once (history, then the tap)."""
        entry = catalogue()["fifo"]

        async def one_run(ports, seed):
            observer = LiveObserver(2, spec=entry.spec)
            load = LoadGenerator(ports, run_id="t-kept", seed=seed)
            try:
                await observer.connect(ports, run_id="t-kept")
                await load.connect()
                report = await drive_run(load, observer, "fifo", 300.0, 0.3, 10.0)
                return report, observer.events_seen
            finally:
                await load.close()
                await observer.close()

        async def scenario():
            ports = free_ports(2)
            hosts = [
                NetHost(entry.factory, pid, ports, run_id="t-kept", time_scale=FAST)
                for pid in range(2)
            ]
            try:
                for host in hosts:
                    await host.start()
                await asyncio.gather(*(host.ready() for host in hosts))
                runs = [await one_run(ports, seed) for seed in (0, 1)]
                return runs, [list(host.errors) for host in hosts]
            finally:
                for host in hosts:
                    await host.shutdown()

        runs, host_errors = asyncio.run(scenario())
        assert host_errors == [[], []]
        for index, (report, events_seen) in enumerate(runs):
            assert report.ok, report.render()
            assert report.offered == report.invoked == report.delivered == 90
            # A late observer is replayed the kept hosts' history first.
            assert report.observer_events == events_seen == 4 * 90 * (index + 1)

    def test_sender_recorder_keeps_no_per_message_stamps(self):
        """The deliver probe fires on the *receiver's* bus, so a sender's
        recorder must not wait for it.  It no longer stamps anything: the
        host reads the invoke time off its own trace at release."""
        entry = catalogue()["fifo"]

        async def scenario():
            ports = free_ports(3)
            hosts = [
                NetHost(entry.factory, pid, ports, run_id="t-stamps", time_scale=FAST)
                for pid in range(3)
            ]
            load = LoadGenerator(ports, run_id="t-stamps", seed=5)
            try:
                for host in hosts:
                    await host.start()
                await asyncio.gather(*(host.ready() for host in hosts))
                await load.connect()
                report = await drive_run(load, None, "fifo", 300.0, 0.4, 10.0)
                return report, [
                    (
                        set(vars(host.metrics)),
                        host.stats.registry.histogram("latency.inhibition").count,
                        host.stats.user_messages,
                    )
                    for host in hosts
                ]
            finally:
                await load.close()
                for host in hosts:
                    await host.shutdown()

        report, per_host = asyncio.run(scenario())
        assert report.quiesced and report.delivered == report.invoked == 120
        assert sum(released for _, _, released in per_host) == 120
        for recorder_state, inhibition_samples, released in per_host:
            assert recorder_state == {"registry", "_unsubscribers"}
            assert inhibition_samples == released > 0

    def test_spelled_messages_do_not_outlive_their_traffic(self):
        """The codec's spelling cache starts over at its cap, so a process
        that runs cluster after cluster keeps a flat number of spelled
        messages alive, well short of everything it ever sent."""
        live, sent = [], 0
        for seed in range(8):
            report = _run("fifo", seed, rate=1000.0, duration=0.3, spec=None)
            assert report.ok, report.render()
            sent += report.invoked
            gc.collect()
            live.append(
                sum(1 for obj in gc.get_objects() if type(obj) is codec.MessageTexts)
            )
            assert len(codec._message_cache) <= codec._MESSAGE_CACHE_SIZE
        assert max(live) <= codec._MESSAGE_CACHE_SIZE < sent, (live, sent)


class TestOneLoadDriver:
    """Hosts and a shard fleet are driven alike: each pacing tick writes
    one INVOKE_BATCH frame to each endpoint, and nothing else."""

    RATE, DURATION = 10_000.0, 0.2  # 40 ticks of 50 rows: no tick skips one

    @classmethod
    async def _drive(cls, ports):
        load = LoadGenerator(ports, run_id="t-one", seed=3, keys=8)
        await load.connect()
        written = [Counter() for _ in load.links]
        for index, link in enumerate(load.links):
            write = link.stream.write

            def sniff(data, index=index, write=write):
                for frame in codec.FrameDecoder().feed(data):
                    written[index][frame.kind] += 1
                write(data)

            link.stream.write = sniff
        try:
            await load.run(cls.RATE, cls.DURATION)
        finally:
            for link in load.links:
                del link.stream.write
        await load.drain()
        quiesced, stats = await load.quiesce(timeout=10.0, poll=0.02)
        await load.close()
        return load, written, quiesced, stats

    def _check(self, load, written, quiesced, stats):
        ticks = Pacer(self.RATE, self.DURATION).ticks
        assert written == [Counter({codec.INVOKE_BATCH: ticks})] * 2
        assert quiesced
        assert sum(body["invoked"] for body in stats) == load.requested == 2000

    def test_hosts(self):
        async def scenario():
            ports = free_ports(2)
            hosts = [
                NetHost(catalogue()["fifo"].factory, pid, ports, run_id="t-one")
                for pid in range(2)
            ]
            try:
                for host in hosts:
                    await host.start()
                await asyncio.gather(*(host.ready() for host in hosts))
                return await self._drive(ports)
            finally:
                for host in hosts:
                    await host.shutdown()

        load, *result = asyncio.run(scenario())
        assert load.shards is None and load.n_processes == 2
        self._check(load, *result)

    def test_shard_fleet(self):
        async def scenario():
            ports = free_ports(2)
            workers = [
                ShardWorker(
                    ShardWorkerConfig(
                        shard=shard,
                        n_shards=2,
                        n_processes=4,
                        port=port,
                        run_id="t-one",
                    )
                )
                for shard, port in enumerate(ports)
            ]
            serving = [
                asyncio.get_running_loop().create_task(worker.serve_forever())
                for worker in workers
            ]
            try:
                return await self._drive(ports)
            finally:
                for worker in workers:
                    await worker.shutdown()
                await asyncio.gather(*serving)

        load, *result = asyncio.run(scenario())
        assert load.shards == 2 and load.n_processes == 4
        self._check(load, *result)


async def _serving_hosts(ports, run_id):
    hosts = [
        NetHost(catalogue()["fifo"].factory, pid, ports, run_id=run_id)
        for pid in range(len(ports))
    ]
    for host in hosts:
        await host.start()
    await asyncio.gather(*(host.ready() for host in hosts))
    return hosts


def _serving_workers(ports, run_id, lane_kind="fifo"):
    workers = [
        ShardWorker(
            ShardWorkerConfig(
                shard=shard,
                n_shards=len(ports),
                n_processes=3,
                port=port,
                run_id=run_id,
                lane_kind=lane_kind,
            )
        )
        for shard, port in enumerate(ports)
    ]
    loop = asyncio.get_running_loop()
    return workers, [loop.create_task(worker.serve_forever()) for worker in workers]


class TestOneRunArc:
    """`drive_run` is the arc of a run over hosts and shard workers alike,
    and its report counts this run alone."""

    @staticmethod
    async def _runs(ports, run_id, count=1, between=None, **load_options):
        reports = []
        for _ in range(count):
            if reports and between is not None:
                await between()
            load = LoadGenerator(ports, run_id=run_id, **load_options)
            await load.connect()
            try:
                reports.append(await drive_run(load, None, "fifo", 200.0, 0.5))
            finally:
                await load.close()
        return reports

    def _check(self, report):
        assert isinstance(report, NetRunReport)
        assert report.ok, report.render()
        assert report.offered == report.invoked == report.delivered == 100
        assert report.pending == 0 and report.errors == []

    def test_hosts(self):
        async def scenario():
            ports = free_ports(2)
            hosts = await _serving_hosts(ports, "t-arc")
            try:
                return await self._runs(ports, "t-arc")
            finally:
                for host in hosts:
                    await host.shutdown()

        (report,) = asyncio.run(scenario())
        self._check(report)
        assert report.shards is None and report.oracle is None

    def test_shard_fleet(self):
        async def scenario():
            ports = free_ports(2)
            workers, serving = _serving_workers(ports, "t-arc")
            try:
                return await self._runs(ports, "t-arc", keys=4)
            finally:
                for worker in workers:
                    await worker.shutdown()
                await asyncio.gather(*serving)

        (report,) = asyncio.run(scenario())
        self._check(report)
        assert report.shards == 2 and report.oracle["total"] == 100

    def test_a_stranger_between_runs_is_no_later_runs_error(self):
        """A host's error lines are append-only: one refused HELLO used to
        fail every later run a kept cluster served."""

        async def stranger(port):
            link = ControlLink("127.0.0.1", port, "load", "someone-else")
            await link.connect(timeout=5.0)
            with pytest.raises(ConnectionError):
                await link.ready(timeout=5.0)
            await link.close()

        async def scenario():
            ports = free_ports(2)
            hosts = await _serving_hosts(ports, "kept")
            try:
                reports = await self._runs(
                    ports, "kept", 2, between=lambda: stranger(ports[0])
                )
                return reports, hosts[0].errors
            finally:
                for host in hosts:
                    await host.shutdown()

        (first, second), errors = asyncio.run(scenario())
        assert errors == ["rejected connection for run 'someone-else' (serving 'kept')"]
        self._check(first)
        self._check(second)

    def test_a_kept_causal_fleet_counts_this_runs_deliveries(self):
        """A causal lane delivers each row at every other process, so a
        run's deliveries are not its invokes: both come from STATS."""

        async def scenario():
            ports = free_ports(1)
            workers, serving = _serving_workers(ports, "t-causal", "causal")
            try:
                return await self._runs(ports, "t-causal", 2, keys=4)
            finally:
                for worker in workers:
                    await worker.shutdown()
                await asyncio.gather(*serving)

        for report in asyncio.run(scenario()):
            assert report.ok, report.render()
            assert report.offered == report.invoked == 100
            assert report.delivered == 2 * 100

    def test_teardown_logs_nothing_to_the_loop(self):
        """Teardown cancels the accepted streams' tasks; the stream
        protocol's done-callback used to log each as an error."""
        logged = []

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda loop, context: logged.append(context))
            report = await run_cluster(
                catalogue()["fifo"].factory, 3, rate=200.0, duration=0.5
            )
            await asyncio.sleep(0.1)  # let the done-callbacks run
            return report

        assert asyncio.run(scenario()).ok
        assert logged == []


class TestLoadExitStatus:
    def test_an_error_line_fails_the_run_without_a_flag(self, capsys):
        """`repro load` exits 0 iff the report is ok: an error line an
        endpoint logged during the run fails it as a violation would."""
        base = free_port_base(2)

        async def scenario():
            hosts = await _serving_hosts([base, base + 1], "t-exit")
            stats_body = hosts[0].stats_body
            pulls = Counter()

            def failing_stats_body():
                pulls["stats"] += 1
                if pulls["stats"] == 3:  # after connect's and the arc's baseline
                    hosts[0].errors.append("disk full")
                return stats_body()

            hosts[0].stats_body = failing_stats_body
            try:
                return await asyncio.get_running_loop().run_in_executor(
                    None,
                    main,
                    ["load", "--port-base", str(base), "--run-id", "t-exit"]
                    + ["--rate", "200", "--duration", "0.3", "--keep-serving"],
                )
            finally:
                for host in hosts:
                    await host.shutdown()

        code = asyncio.run(scenario())
        out = capsys.readouterr().out
        assert "error       disk full" in out
        assert code == 1
