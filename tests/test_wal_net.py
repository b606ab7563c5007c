"""WAL over real loopback TCP: record/replay and crash recovery.

Two acceptance claims from the tentpole land here:

- a recorded TCP run replays bit-identically: the merged observer trace
  written by ``record_dir`` re-executes through the same incremental
  :class:`SpecMonitor` and produces the same verdict -- including the
  exact violating assignment for a broken protocol;
- a :class:`NetHost` killed mid-soak under a 10% drop plan and
  restarted from its WAL segment converges to the *same* ARQ sequence
  state and delivered-set as a never-crashed control run, where the
  volatile (no-WAL) restart demonstrably loses acknowledged messages.
"""

import asyncio

import pytest

from repro.faults import FaultPlan
from repro.mc.mutations import mutation_factories
from repro.net import cluster as cluster_module
from repro.net import run_cluster_sync
from repro.net.cluster import LiveObserver, LoadGenerator, free_ports
from repro.net.host import NetHost
from repro.predicates.catalog import FIFO_ORDERING, LOGICALLY_SYNCHRONOUS
from repro.protocols import catalogue
from repro.protocols.reliable import make_reliable
from repro.wal import (
    WalSink,
    delivery_order,
    read_log,
    replay_log,
    resolve_inputs,
)

# 1 virtual unit == 1ms so the ARQ's 30-unit RTO is 30ms (see
# test_net_cluster.py -- same convention).
FAST = 0.001
SEEDS = (0, 1, 2)


class TestTcpRecordReplaySweep:
    """Catalogue x seeds over loopback TCP: the recorded run replays
    into the same monitor with the same (clean) verdict."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", sorted(catalogue()))
    def test_recorded_tcp_run_replays_identically(self, name, seed, tmp_path):
        entry = catalogue()[name]
        report = run_cluster_sync(
            entry.factory,
            3,
            protocol_name=name,
            rate=200.0,
            duration=0.25,
            seed=seed,
            spec=entry.spec,
            spec_name=name,
            time_scale=FAST,
            color_rate=0.15 if name == "flush" else 0.0,
            run_id="t-rec-%s-%d" % (name, seed),
            record_dir=str(tmp_path),
        )
        assert report.quiesced, report.render()
        assert report.violation is None, report.render()

        replayed = replay_log(str(tmp_path), spec=entry.spec)
        assert replayed.tail_dropped == 0
        assert replayed.meta["protocol"] == name
        assert replayed.meta["seed"] == seed
        # The replayed trace is exactly the observer's merged stream.
        events = list(replayed.trace.records())
        assert len(events) == report.observer_events
        assert len(delivery_order(replayed.trace)) == report.delivered
        # Identical verdict through the same incremental monitor.
        assert replayed.violation is None


def _events(trace):
    return [(record.time, record.process, record.event) for record in trace.records()]


class TestTcpViolationReplay:
    def _broken_run(self, record_dir):
        return run_cluster_sync(
            mutation_factories()["broken-fifo"],
            2,
            protocol_name="broken-fifo",
            rate=300.0,
            duration=0.6,
            seed=3,
            spec=FIFO_ORDERING,
            spec_name="fifo",
            faults=FaultPlan(spike_rate=0.3, spike_delay=20.0, seed=3),
            time_scale=FAST,
            run_id="t-rec-broken",
            record_dir=str(record_dir),
        )

    def _clean_run(self, record_dir):
        """The correct protocol under the same spikes."""
        entry = catalogue()["fifo"]
        return run_cluster_sync(
            entry.factory,
            2,
            protocol_name="fifo",
            rate=300.0,
            duration=0.6,
            seed=3,
            spec=FIFO_ORDERING,
            spec_name="fifo",
            faults=FaultPlan(spike_rate=0.3, spike_delay=20.0, seed=3),
            time_scale=FAST,
            run_id="t-rec-clean",
            record_dir=str(record_dir),
        ).violation

    def _crown3_run(self, record_dir):
        """test_net_cluster's oracle-gap run (a 3-crown holding no
        2-crown) through a bare observer, recorded the way `record_dir`
        records; the capped live search must not be what flags it."""
        import tests.test_net_cluster as cluster_cases

        observer = LiveObserver(3, spec=LOGICALLY_SYNCHRONOUS)
        recorder = WalSink(
            str(record_dir),
            meta={"processes": 3, "spec": "logically-synchronous"},
        )
        recorder.attach_trace(observer.trace)
        cluster_cases.TestSyncOracleFallback()._feed(observer)
        asyncio.run(observer.settle())
        live = observer.final_check()
        recorder.close()
        assert observer.monitor.violation is None
        assert observer.oracle_outcome is False
        return live

    @pytest.mark.parametrize("case", ["clean-fifo", "broken-fifo", "crown-3"])
    def test_violating_assignment_survives_the_replay(
        self, case, tmp_path, monkeypatch
    ):
        """`repro replay` reports the *identical* verdict the live
        observer reached, because both judge through the one
        `capped_monitor` policy: the same violating assignment for a
        flagged TCP run (the report embeds repr(FirstViolation), so
        string equality pins predicate, witnesses and time all at once),
        none for a clean one, and the same oracle rejection -- flagged
        by the oracle step, not the capped monitor -- for a run whose
        only crown is longer than the live search looks.  On a TCP run
        the observer's merged trace is the replayed one, record for
        record."""
        observers = []

        class KeptObserver(LiveObserver):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                observers.append(self)

        monkeypatch.setattr(cluster_module, "LiveObserver", KeptObserver)
        if case == "crown-3":
            live = self._crown3_run(tmp_path)
        elif case == "broken-fifo":
            live = self._broken_run(tmp_path).violation
        else:
            live = self._clean_run(tmp_path)
        assert (live is None) == (case == "clean-fifo")

        replayed = replay_log(str(tmp_path))  # spec resolves from META
        if case != "crown-3":
            (observer,) = observers
            assert _events(observer.trace) == _events(replayed.trace)
            assert len(_events(replayed.trace)) == observer.events_merged > 0
        found = replayed.violation
        rendered = found if found is None or isinstance(found, str) else repr(found)
        assert rendered == live
        assert isinstance(found, str) == (case == "crown-3")
        if case == "crown-3":
            assert "membership oracle rejected" in found

    def test_replay_needs_no_live_cluster(self, tmp_path):
        """The segment alone reproduces the verdict: no sockets, no
        hosts, just the log (the forensics workflow after a soak)."""
        self._broken_run(tmp_path)
        first = replay_log(str(tmp_path))
        second = replay_log(str(tmp_path))
        assert repr(first.violation) == repr(second.violation)
        assert delivery_order(first.trace) == delivery_order(second.trace)


class TestHostWalSegments:
    def test_every_host_writes_its_own_segment_directory(self, tmp_path):
        entry = catalogue()["fifo"]
        report = run_cluster_sync(
            entry.factory,
            3,
            protocol_name="fifo",
            rate=200.0,
            duration=0.25,
            seed=1,
            spec=entry.spec,
            time_scale=FAST,
            run_id="t-host-wal",
            wal_dir=str(tmp_path),
        )
        assert report.quiesced
        for process_id in range(3):
            log = read_log(str(tmp_path / ("p%d" % process_id)))
            assert log.records, "host %d wrote no WAL" % process_id
            meta = log.records[0].body
            assert meta["process"] == process_id
            assert meta["protocol"] == "fifo"


# -- crash-restart mid-soak (satellite: kill a NetHost, restart from WAL) ----

PHASE_MESSAGES = 60
CRASH_PROCESS = 1


async def _offer(load, count):
    """Send exactly ``count`` seeded messages through the generator's
    stream (wall-clock pacing would make the workload size racy, and
    the control comparison needs identical workloads)."""
    from repro.net import codec

    batches = [[] for _ in load.links]
    for _ in range(count):
        row = load._next_row(0.0)
        batches[row[1]].append(row)
    for rows, link in zip(batches, load.links):
        if rows:
            link.send(codec.INVOKE_BATCH, {"rows": rows})
    for link in load.links:
        await link.stream.drain()


def _durable(protocol):
    """The ARQ state a WAL redo must rebuild."""
    return {
        "next_seq": dict(protocol._next_seq),
        "expected": dict(protocol._expected),
        "unacked": {
            dst: dict(segments)
            for dst, segments in protocol._unacked.items()
            if segments
        },
    }


async def _two_phase_soak(base_dir, crash, recover_with_wal=True, protocol="fifo"):
    """Drive two load phases over a 3-host cluster under 10% drops.

    ``crash=True`` kills process 1 abruptly between the phases
    (volatile state gone, segment preserved) and restarts it -- from its
    WAL when ``recover_with_wal``, else as a blank host (the PR 4
    volatile-loss baseline).  Returns the final durable state of every
    host: the ARQ sequence maps and the delivered-set; and, for a crash,
    the dead instance's ARQ state beside the one its successor rebuilt.
    """
    ports = free_ports(3)
    factory = make_reliable(catalogue()[protocol].factory)
    run_id = "t-soak-crash"
    wal_dir = str(base_dir)

    def spawn(process_id, with_wal=True):
        return NetHost(
            factory,
            process_id,
            ports,
            run_id=run_id,
            faults=FaultPlan(drop_rate=0.1, seed=5),
            time_scale=FAST,
            observability=False,
            wal_dir=wal_dir if with_wal else None,
            wal_meta={"protocol": protocol},
        )

    hosts = {i: spawn(i) for i in range(3)}
    rebuilt = None
    try:
        for host in hosts.values():
            await host.start()
        await asyncio.gather(*(host.ready() for host in hosts.values()))

        # Phase 1: no DRAIN (the cluster keeps serving), quiesce by
        # polling stats so every acknowledged message settles.
        load1 = LoadGenerator(ports, run_id=run_id, seed=11)
        await load1.connect()
        await _offer(load1, PHASE_MESSAGES)
        quiesced1, _ = await load1.quiesce(timeout=20.0)
        phase1_requested = load1.requested
        await load1.close()
        assert quiesced1, "phase 1 did not quiesce"

        if crash:
            await hosts[CRASH_PROCESS].crash()
            dead = _durable(hosts[CRASH_PROCESS].host.protocol)
            hosts[CRASH_PROCESS] = spawn(
                CRASH_PROCESS, with_wal=recover_with_wal
            )
            rebuilt = (dead, _durable(hosts[CRASH_PROCESS].host.protocol))
            await hosts[CRASH_PROCESS].start()
            await asyncio.gather(
                *(host.ready() for host in hosts.values())
            )

        # Phase 2 continues the *same* seeded stream where phase 1
        # stopped -- exactly what `repro load --wal` resume does.
        load2 = LoadGenerator(ports, run_id=run_id, seed=11)
        load2.fast_forward(phase1_requested)
        await load2.connect()
        await _offer(load2, PHASE_MESSAGES)
        await load2.drain()
        quiesce_timeout = 20.0 if (not crash or recover_with_wal) else 4.0
        quiesced2, _ = await load2.quiesce(timeout=quiesce_timeout)
        await load2.close()

        state = {}
        for process_id, host in hosts.items():
            state[process_id] = _durable(host.host.protocol)
            state[process_id]["delivered"] = {
                mid for _, mid in delivery_order(host.trace)
            }
        return {
            "state": state,
            "rebuilt": rebuilt,
            "quiesced": quiesced2,
            "recovered": hosts[CRASH_PROCESS].recovered,
            "requested": load2.requested,
        }
    finally:
        for host in hosts.values():
            await host.shutdown()


class TestCrashRestartFromWalSegment:
    def test_wal_restart_matches_never_crashed_control(self, tmp_path):
        """The satellite's core claim: kill mid-soak under 10% drops,
        restart from the segment, and the ARQ sequence state and
        delivered-set equal a run that never crashed."""
        control = asyncio.run(
            _two_phase_soak(tmp_path / "control", crash=False)
        )
        crashed = asyncio.run(_two_phase_soak(tmp_path / "wal", crash=True))

        assert control["quiesced"], "control run did not quiesce"
        assert crashed["quiesced"], "recovered run did not quiesce"
        assert crashed["recovered"], "restart did not recover from the WAL"
        assert crashed["requested"] == control["requested"]
        for process_id in range(3):
            ours = crashed["state"][process_id]
            theirs = control["state"][process_id]
            assert ours["delivered"] == theirs["delivered"], (
                "process %d delivered-set diverged" % process_id
            )
            assert ours["next_seq"] == theirs["next_seq"], (
                "process %d ARQ send state diverged" % process_id
            )
            assert ours["expected"] == theirs["expected"], (
                "process %d ARQ receive state diverged" % process_id
            )
            assert ours["unacked"] == theirs["unacked"] == {}

    def test_piggybacked_acks_in_the_log_rebuild_the_same_state(self, tmp_path):
        """The same kill under reliable-sync-coord, whose grants and
        completions carry acks as a 4th tag field: the restarted host's
        log holds such segments, its redo rebuilds the ARQ state the dead
        instance had, and the run ends where a never-crashed one does."""
        control = asyncio.run(
            _two_phase_soak(tmp_path / "control", crash=False, protocol="sync-coord")
        )
        crashed = asyncio.run(
            _two_phase_soak(tmp_path / "wal", crash=True, protocol="sync-coord")
        )
        log = read_log(str(tmp_path / "wal" / ("p%d" % CRASH_PROCESS)))
        piggybacked = [
            packet
            for op, _, _, packet in resolve_inputs(log.records)
            if op != "invoke"
            and len(packet.tag if packet.is_user else packet.payload) == 4
        ]
        assert piggybacked, "no arrival in the log carried an ack"

        assert control["quiesced"] and crashed["quiesced"]
        assert crashed["recovered"]
        dead, rebuilt = crashed["rebuilt"]
        assert rebuilt == dead
        for process_id in range(3):
            assert crashed["state"][process_id] == control["state"][process_id], (
                "process %d diverged from the never-crashed run" % process_id
            )
            assert crashed["state"][process_id]["unacked"] == {}

    def test_volatile_restart_loses_acknowledged_messages(self, tmp_path):
        """The PR 4 baseline this subsystem exists to fix: the same
        crash with a blank restart forgets every acknowledged delivery
        and desynchronizes the ARQ, so the cluster cannot quiesce."""
        control = asyncio.run(
            _two_phase_soak(tmp_path / "control", crash=False)
        )
        volatile = asyncio.run(
            _two_phase_soak(
                tmp_path / "volatile", crash=True, recover_with_wal=False
            )
        )
        assert not volatile["recovered"]
        lost = (
            control["state"][CRASH_PROCESS]["delivered"]
            - volatile["state"][CRASH_PROCESS]["delivered"]
        )
        assert lost, "volatile restart should have lost phase-1 deliveries"
        assert not volatile["quiesced"], (
            "a blank restart cannot rejoin mid-stream -- quiescing would "
            "mean the WAL is not needed"
        )
