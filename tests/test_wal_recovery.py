"""Redo-log crash recovery in the simulator (repro.wal.recovery).

A killed process restarts the way a live host does: the fault injector
replays the inputs its WAL logged into a *fresh* instance.  These tests
pin that the rebuilt protocol's state equals the live instance's,
attribute by attribute, that a crash-restart run stays clean, and that
a kill with no WAL given still recovers by redo.
"""

import pytest

import repro.wal
from repro.faults import FaultAction, FaultPlan
from repro.protocols import catalogue
from repro.protocols.reliable import make_reliable
from repro.simulation import UniformLatency, random_traffic, run_simulation
from repro.verification.engine import SpecMonitor
from repro.wal import (
    WalSink,
    read_log,
    rebuild_protocol,
    replay_log,
)
from tests.conftest import protocol_state

LATENCY = UniformLatency(low=1.0, high=20.0)


def _crash_plan(process=1, at=25.0, restart_at=60.0, drop_rate=0.0, seed=0):
    return FaultPlan(
        drop_rate=drop_rate,
        seed=seed,
        actions=(
            FaultAction(at=at, kind="kill", target=process, duration=restart_at - at),
        ),
    )


def _run(factory, workload, seed, faults=None, wal=None):
    return run_simulation(
        factory,
        workload,
        seed=seed,
        latency=LATENCY,
        faults=faults,
        wal=wal,
    )


class TestCrashRestartByRedo:
    @pytest.mark.parametrize("name", ["fifo", "causal-rst", "tagless"])
    def test_crash_restart_run_is_clean(self, name, tmp_path):
        entry = catalogue()[name]
        factory = make_reliable(entry.factory)
        workload = random_traffic(3, 20, seed=3)
        sink = WalSink(str(tmp_path), meta={"protocol": name}, fsync=False)
        try:
            wal_run = _run(factory, workload, 3, faults=_crash_plan(), wal=sink)
        finally:
            sink.close()

        faults = wal_run.fault_summary
        assert faults.crashes == 1 and faults.restarts == 1
        assert wal_run.delivered_all, wal_run.undelivered
        assert wal_run.stats.deliveries == len(workload.requests)
        assert SpecMonitor(entry.spec).advance(wal_run.trace) is None

    def test_acknowledged_messages_survive_the_crash(self, tmp_path):
        """Durability acceptance: everything invoked before the crash is
        delivered after the recovery, under 10% drops on top."""
        entry = catalogue()["fifo"]
        factory = make_reliable(entry.factory)
        workload = random_traffic(3, 24, seed=7)
        sink = WalSink(str(tmp_path), meta={"protocol": "fifo"}, fsync=False)
        try:
            result = _run(
                factory,
                workload,
                7,
                faults=_crash_plan(drop_rate=0.1, seed=7, restart_at=80.0),
                wal=sink,
            )
        finally:
            sink.close()
        faults = result.fault_summary
        assert faults.crashes == 1 and faults.restarts == 1
        assert result.delivered_all, result.undelivered

    def test_crash_without_a_wal_recovers_by_redo(self, monkeypatch):
        """No ``wal`` given: the run logs to a scratch sink, and the
        restart rebuilds the killed process from it."""
        rebuilt = []

        def rebuild(factory, process_id, n_processes, records):
            records = list(records)
            rebuilt.append((process_id, len(records)))
            return rebuild_protocol(factory, process_id, n_processes, records)

        monkeypatch.setattr(repro.wal, "rebuild_protocol", rebuild)
        entry = catalogue()["fifo"]
        factory = make_reliable(entry.factory)
        workload = random_traffic(3, 16, seed=5)
        result = _run(factory, workload, 5, faults=_crash_plan())
        faults = result.fault_summary
        assert faults.crashes == 1 and faults.restarts == 1
        assert result.delivered_all
        assert [process for process, _ in rebuilt] == [1]
        assert rebuilt[0][1] > 0  # the scratch log held the inputs


class TestIncrementalReload:
    def test_each_restart_decodes_only_what_was_appended(
        self, monkeypatch, tmp_path
    ):
        """Three kills over a log that rotates: every restart rebuilds
        from the whole log, equal to a full read of the directory, yet
        across all of them each record is decoded once."""
        import repro.wal.segment as segment

        decoded, counting = [0], [True]
        decode = segment.decode_record

        def counted(buffer, offset):
            decoded[0] += counting[0]
            return decode(buffer, offset)

        monkeypatch.setattr(segment, "decode_record", counted)
        seen = []

        def rebuild(factory, process_id, n_processes, records):
            counting[0] = False
            full = read_log(str(tmp_path)).records
            counting[0] = True
            seen.append((list(records), full))
            return rebuild_protocol(factory, process_id, n_processes, records)

        monkeypatch.setattr(repro.wal, "rebuild_protocol", rebuild)
        plan = FaultPlan(
            actions=tuple(
                FaultAction(at=at, kind="kill", target=target, duration=4.0)
                for at, target in ((10.0, 1), (20.0, 2), (30.0, 0))
            )
        )
        sink = WalSink(str(tmp_path), fsync=False, max_segment_bytes=2048)
        try:
            result = _run(
                make_reliable(catalogue()["fifo"].factory),
                random_traffic(3, 40, seed=2),
                2,
                faults=plan,
                wal=sink,
            )
        finally:
            sink.close()
        counting[0] = False
        assert result.fault_summary.restarts == 3 and result.delivered_all
        assert len(read_log(str(tmp_path)).segments) > 3
        assert [len(records) for records, _ in seen] == sorted(
            len(records) for records, _ in seen
        )
        for records, full in seen:
            assert [(r.kind, r.text) for r in records] == [
                (r.kind, r.text) for r in full
            ]
        assert decoded[0] == len(seen[-1][0])


class TestRebuildProtocolStateEquivalence:
    """rebuild_protocol reconstructs the durable attributes exactly: the
    reference a crash-restart run recovers to."""

    DURABLE_ARQ_ATTRS = ("_next_seq", "_expected", "_buffer")

    @pytest.mark.parametrize("name", ["fifo", "causal-rst", "tagless"])
    def test_rebuilt_state_equals_the_live_state(self, name, tmp_path):
        entry = catalogue()[name]
        factory = make_reliable(entry.factory)
        workload = random_traffic(3, 20, seed=3)
        sink = WalSink(str(tmp_path), meta={"protocol": name}, fsync=False)
        try:
            live = _run(factory, workload, 3, wal=sink)
        finally:
            sink.close()
        records = read_log(str(tmp_path)).records
        for process_id, live_protocol in enumerate(live.protocols):
            rebuilt = rebuild_protocol(factory, process_id, 3, records)
            expected = protocol_state(live_protocol)
            got = protocol_state(rebuilt)
            assert got.keys() == expected.keys()
            for attr, value in expected.items():
                assert got[attr] == value, "process %d: %s diverged" % (
                    process_id,
                    attr,
                )

    def test_arq_sequence_state_rebuilt_exactly(self, tmp_path):
        entry = catalogue()["fifo"]
        factory = make_reliable(entry.factory)
        workload = random_traffic(3, 18, seed=2)
        sink = WalSink(str(tmp_path), meta={"protocol": "fifo"}, fsync=False)
        try:
            live = _run(factory, workload, 2, wal=sink)
        finally:
            sink.close()
        records = read_log(str(tmp_path)).records
        for process_id, live_protocol in enumerate(live.protocols):
            rebuilt = rebuild_protocol(factory, process_id, 3, records)
            for attr in self.DURABLE_ARQ_ATTRS:
                assert getattr(rebuilt, attr) == getattr(
                    live_protocol, attr
                ), "process %d: %s diverged" % (process_id, attr)
            # Quiesced run: nothing should remain unacked either way.
            assert {
                dst: dict(segments)
                for dst, segments in rebuilt._unacked.items()
                if segments
            } == {
                dst: dict(segments)
                for dst, segments in live_protocol._unacked.items()
                if segments
            }

    def test_tagged_protocol_clock_state_rebuilt(self, tmp_path):
        """A vector-clock protocol's tag state is durable too."""
        entry = catalogue()["causal-rst"]
        workload = random_traffic(3, 15, seed=6)
        sink = WalSink(
            str(tmp_path), meta={"protocol": "causal-rst"}, fsync=False
        )
        try:
            live = _run(entry.factory, workload, 6, wal=sink)
        finally:
            sink.close()
        records = read_log(str(tmp_path)).records
        for process_id, live_protocol in enumerate(live.protocols):
            rebuilt = rebuild_protocol(entry.factory, process_id, 3, records)
            assert protocol_state(rebuilt) == protocol_state(live_protocol), (
                "process %d state diverged" % process_id
            )

    def test_rebuild_only_replays_the_named_process(self, tmp_path):
        entry = catalogue()["fifo"]
        workload = random_traffic(3, 10, seed=0)
        sink = WalSink(str(tmp_path), meta={"protocol": "fifo"}, fsync=False)
        try:
            live = _run(entry.factory, workload, 0, wal=sink)
        finally:
            sink.close()
        records = read_log(str(tmp_path)).records
        rebuilt = rebuild_protocol(entry.factory, 1, 3, records)
        assert protocol_state(rebuilt) == protocol_state(live.protocols[1])
        assert protocol_state(rebuilt) != protocol_state(live.protocols[0])


class TestRecordedFaultHistory:
    def test_fault_and_retx_streams_land_in_the_wal(self, tmp_path):
        from repro.obs import Bus
        from repro.wal import records as rec

        entry = catalogue()["fifo"]
        factory = make_reliable(entry.factory)
        workload = random_traffic(3, 20, seed=9)
        sink = WalSink(str(tmp_path), meta={"protocol": "fifo"}, fsync=False)
        try:
            result = run_simulation(
                factory,
                workload,
                seed=9,
                latency=LATENCY,
                faults=FaultPlan(drop_rate=0.2, seed=9),
                bus=Bus(),
                wal=sink,
            )
        finally:
            sink.close()
        assert result.fault_summary.packets_dropped > 0
        records = read_log(str(tmp_path)).records
        kinds = {record.kind for record in records}
        assert rec.FAULT in kinds, "drops were not recorded"
        assert rec.RETX in kinds, "retransmissions were not recorded"
        assert rec.TIMER in kinds, "timer fires were not recorded"
        # The replayed trace still verifies despite the loss history.
        assert replay_log(
            str(tmp_path), spec=entry.spec
        ).violation is None
