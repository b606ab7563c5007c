"""Conformance and soak tests over real loopback TCP.

The acceptance sweep of the net runtime: every catalogue protocol runs
**unmodified** behind :class:`~repro.net.NetHost`, with a live
:class:`~repro.verification.engine.SpecMonitor` fed by the observer's
merged event stream.  Correct protocols must quiesce with zero
violations; a deliberately broken one must be flagged live.
"""

import asyncio

import pytest

from repro.events import Event, Message
from repro.faults import FaultPlan
from repro.mc.mutations import mutation_factories
from repro.net import NetHost, codec, run_cluster_sync
from repro.net.cluster import LiveObserver, LoadGenerator, drive_run, free_ports
from repro.net.host import record_frames
from repro.predicates.catalog import CAUSAL_B2, CAUSAL_ORDERING, FIFO, FIFO_ORDERING
from repro.protocols import GeneratedTaggedProtocol, catalogue
from repro.protocols.base import make_factory
from repro.simulation.trace import TraceRecord
from repro.wal import records as wal_records

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
        assert report.invoked == report.requested
        assert report.delivered >= report.invoked
        # The observer really merged the full four-event stream.
        assert report.observer_events >= 4 * report.invoked

    def test_report_carries_throughput_and_latency(self):
        report = _run("fifo", 0)
        assert report.delivered_per_sec > 0
        assert report.p99_ms >= report.p50_ms > 0
        assert "msg/s" in report.render()
        assert report.clean


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
        assert report.delivered == report.invoked == report.requested == 150


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
        assert not report.clean

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
    """Attach ``observer`` to a stand-in host that answers the HELLO
    with ``data`` and closes; returns once the stream has ended."""

    async def serve(reader, writer):
        await codec.read_frame(reader)
        writer.write(data)
        await writer.drain()
        writer.close()

    server = await asyncio.start_server(serve, "127.0.0.1", 0)
    try:
        await observer.connect([server.sockets[0].getsockname()[1]], run_id="t-obs")
        await asyncio.wait_for(asyncio.gather(*observer._readers), 5.0)
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
        assert report.clean, report.render()
        assert report.delivered == report.invoked == report.requested
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
            assert report.clean, report.render()
            assert report.requested == report.invoked == report.delivered == 90
            # A late observer is replayed the kept hosts' history first.
            assert report.observer_events == events_seen == 4 * 90 * (index + 1)

    def test_sender_recorder_keeps_no_per_message_stamps(self):
        """The deliver probe fires on the *receiver's* bus, so a sender's
        recorder must not wait for it: the invoke stamp is consumed at
        release (both maps used to hold one entry per message for ever)."""
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
                        len(host.metrics._invoke_time),
                        host.metrics.registry.histogram("latency.inhibition").count,
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
        for invoke_stamps, inhibition_samples, released in per_host:
            assert invoke_stamps == 0
            assert inhibition_samples == released > 0
