"""Redo-log crash recovery in the simulator (repro.wal.recovery).

With a WAL attached, the fault injector's restarts rebuild protocol
state by replaying the logged inputs into a *fresh* instance -- no
crash-instant snapshot.  These tests pin the equivalence: a crashed-and-
recovered run behaves exactly like the snapshot-based one, and the
rebuilt protocol's durable state matches the live instance attribute by
attribute.
"""

import pytest

from repro.faults import CrashEvent, FaultPlan
from repro.protocols import catalogue
from repro.protocols.reliable import make_reliable
from repro.simulation import UniformLatency, random_traffic, run_simulation
from repro.verification.engine import SpecMonitor
from repro.wal import (
    WalSink,
    delivery_order,
    read_log,
    rebuild_protocol,
    replay_log,
)

LATENCY = UniformLatency(low=1.0, high=20.0)


def _crash_plan(process=1, at=25.0, restart_at=60.0, drop_rate=0.0, seed=0):
    return FaultPlan(
        drop_rate=drop_rate,
        seed=seed,
        crashes=(CrashEvent(process=process, at=at, restart_at=restart_at),),
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


class TestRedoLogRestartMatchesSnapshotRestart:
    """The WAL rebuild and the snapshot restore are observationally
    equivalent for deterministic protocols -- same deliveries, same
    order, same final verdict."""

    @pytest.mark.parametrize("name", ["fifo", "causal-rst", "tagless"])
    def test_crash_restart_run_is_identical(self, name, tmp_path):
        entry = catalogue()[name]
        factory = make_reliable(entry.factory)
        workload = random_traffic(3, 20, seed=3)
        faults = _crash_plan()

        snapshot_run = _run(factory, workload, 3, faults=_crash_plan())
        sink = WalSink(str(tmp_path), meta={"protocol": name}, fsync=False)
        try:
            wal_run = _run(factory, workload, 3, faults=faults, wal=sink)
        finally:
            sink.close()

        faults = wal_run.fault_summary
        assert faults.crashes == 1 and faults.restarts == 1
        assert wal_run.delivered_all, wal_run.undelivered
        assert delivery_order(wal_run.trace) == delivery_order(
            snapshot_run.trace
        )
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

    def test_crash_without_wal_keeps_snapshot_semantics(self):
        """No WAL, no behaviour change: the legacy snapshot path still
        runs (guards the injector's conditional)."""
        entry = catalogue()["fifo"]
        factory = make_reliable(entry.factory)
        workload = random_traffic(3, 16, seed=5)
        result = _run(factory, workload, 5, faults=_crash_plan())
        faults = result.fault_summary
        assert faults.crashes == 1 and faults.restarts == 1
        assert result.delivered_all


class TestRebuildProtocolStateEquivalence:
    """rebuild_protocol reconstructs the durable attributes exactly."""

    DURABLE_ARQ_ATTRS = ("_next_seq", "_expected", "_buffer")

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
            assert rebuilt.snapshot() == live_protocol.snapshot(), (
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
        assert rebuilt.snapshot() == live.protocols[1].snapshot()
        assert rebuilt.snapshot() != live.protocols[0].snapshot()


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
