"""Fault injection: plans, the faulty transport, crashes, watchdog loss
attribution (the robustness layer of ``repro.faults``)."""

import pytest

from repro.faults import CrashEvent, FaultPlan, Partition
from repro.obs import Bus, Watchdog
from repro.protocols import FifoProtocol, make_factory, make_reliable
from repro.simulation import FixedLatency, run_simulation
from repro.simulation.persistence import trace_to_dict
from repro.simulation.workloads import SendRequest, Workload


def chain_workload(count=4, gap=10.0):
    """``count`` messages 0 -> 1, spaced out so ARQ timers can breathe."""
    return Workload(
        name="faulty-chain",
        n_processes=2,
        requests=tuple(
            SendRequest(time=i * gap, sender=0, receiver=1)
            for i in range(count)
        ),
    )


def reliable_fifo():
    return make_reliable(make_factory(FifoProtocol))


class TestPlanValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError, match="drop_rate"):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ValueError, match="dup_rate"):
            FaultPlan(dup_rate=-0.1)
        with pytest.raises(ValueError, match="channel"):
            FaultPlan(channel_drop={(0, 1): 2.0})

    def test_script_actions_validated(self):
        with pytest.raises(ValueError, match="scripted action"):
            FaultPlan(script={(0, 1, 0): "explode"})

    def test_partition_needs_two_disjoint_groups(self):
        with pytest.raises(ValueError, match="two groups"):
            Partition(groups=({0, 1},))
        with pytest.raises(ValueError, match="disjoint"):
            Partition(groups=({0, 1}, {1, 2}))
        with pytest.raises(ValueError, match="heal_at"):
            Partition(groups=({0}, {1}), start=5.0, heal_at=5.0)

    def test_crash_validation(self):
        with pytest.raises(ValueError, match="restart_at"):
            CrashEvent(process=0, at=3.0, restart_at=3.0)
        with pytest.raises(ValueError, match="duplicate crash"):
            FaultPlan(crashes=(CrashEvent(0, 1.0), CrashEvent(0, 1.0)))

    def test_channel_overrides_and_any_faults(self):
        plan = FaultPlan(drop_rate=0.1, channel_drop={(0, 1): 0.5})
        assert plan.drop_rate_for(0, 1) == 0.5
        assert plan.drop_rate_for(1, 0) == 0.1
        assert plan.any_faults
        assert not FaultPlan().any_faults

    def test_partition_windows(self):
        partition = Partition(groups=({0}, {1}), start=10.0, heal_at=20.0)
        assert not partition.severs(0, 1, 5.0)
        assert partition.severs(0, 1, 10.0)
        assert partition.severs(1, 0, 19.9)
        assert not partition.severs(0, 1, 20.0)  # healed
        assert not partition.severs(0, 2, 15.0)  # 2 is in no group


class TestScriptedFaults:
    def test_scripted_drop_is_recovered_by_arq(self):
        # The first transmission on channel (0, 1) is m1's data segment.
        plan = FaultPlan(script={(0, 1, 0): "drop"})
        result = run_simulation(
            reliable_fifo(),
            chain_workload(3),
            latency=FixedLatency(1.0),
            faults=plan,
        )
        assert result.delivered_all
        assert result.fault_summary.packets_dropped == 1
        assert result.stats.retransmissions >= 1
        assert result.dropped_messages  # m1 lost a copy on the way

    def test_scripted_dup_is_absorbed_by_dedup(self):
        plan = FaultPlan(script={(0, 1, 0): "dup"})
        result = run_simulation(
            reliable_fifo(),
            chain_workload(3),
            latency=FixedLatency(1.0),
            faults=plan,
        )
        assert result.delivered_all
        assert result.fault_summary.packets_duplicated == 1
        assert result.stats.duplicate_receives == 1
        # Each message was still delivered exactly once.
        assert result.stats.deliveries == 3

    def test_drop_without_retransmission_loses_the_message(self):
        plan = FaultPlan(script={(0, 1, 0): "drop"})
        result = run_simulation(
            make_factory(FifoProtocol),  # no ARQ underneath
            chain_workload(2),
            latency=FixedLatency(1.0),
            faults=plan,
        )
        assert not result.delivered_all
        assert result.dropped_messages == [result.undelivered[0]]


class TestPartitions:
    def test_partition_heals_and_arq_recovers(self):
        plan = FaultPlan(
            partitions=(Partition(groups=({0}, {1}), start=0.0, heal_at=35.0),)
        )
        result = run_simulation(
            reliable_fifo(),
            chain_workload(2),
            latency=FixedLatency(1.0),
            faults=plan,
        )
        assert result.delivered_all
        assert result.fault_summary.partition_drops > 0
        assert result.stats.retransmissions >= 1

    def test_permanent_partition_never_delivers(self):
        plan = FaultPlan(
            partitions=(Partition(groups=({0}, {1}), start=0.0, heal_at=None),)
        )
        result = run_simulation(
            make_reliable(make_factory(FifoProtocol), max_retries=2),
            chain_workload(1),
            latency=FixedLatency(1.0),
            faults=plan,
        )
        assert not result.delivered_all
        assert result.fault_summary.partition_drops > 0


class TestCrashRestart:
    def test_crash_blackholes_then_restart_recovers(self):
        plan = FaultPlan(crashes=(CrashEvent(process=1, at=5.0, restart_at=60.0),))
        result = run_simulation(
            reliable_fifo(),
            chain_workload(3),
            latency=FixedLatency(1.0),
            faults=plan,
        )
        assert result.delivered_all
        assert result.fault_summary.crashes == 1
        assert result.fault_summary.restarts == 1
        assert result.fault_summary.crash_drops >= 1
        summary = result.fault_summary
        assert summary.crashes == 1 and summary.restarts == 1

    def test_crash_without_restart_stays_down(self):
        plan = FaultPlan(crashes=(CrashEvent(process=1, at=5.0),))
        result = run_simulation(
            make_reliable(make_factory(FifoProtocol), max_retries=2),
            chain_workload(2),
            latency=FixedLatency(1.0),
            faults=plan,
        )
        assert not result.delivered_all
        assert result.fault_summary.crashes == 1
        assert result.fault_summary.restarts == 0

    def test_summary_mentions_fault_counters(self):
        plan = FaultPlan(script={(0, 1, 0): "drop"})
        result = run_simulation(
            reliable_fifo(),
            chain_workload(2),
            latency=FixedLatency(1.0),
            faults=plan,
        )
        text = result.summary()
        assert "packets dropped:   1" in text
        assert "retransmissions:" in text
        assert "goodput:" in text


class TestDeterminism:
    def test_same_plan_same_trace(self):
        plan = FaultPlan(drop_rate=0.3, dup_rate=0.2, seed=9)
        runs = [
            run_simulation(
                reliable_fifo(),
                chain_workload(4),
                seed=3,
                latency=FixedLatency(1.0),
                faults=plan,
            )
            for _ in range(2)
        ]
        assert trace_to_dict(runs[0].trace) == trace_to_dict(runs[1].trace)
        assert runs[0].stats.retransmissions == runs[1].stats.retransmissions

    def test_fault_seed_changes_fault_stream_not_interface(self):
        workload = chain_workload(6, gap=5.0)
        results = {
            seed: run_simulation(
                reliable_fifo(),
                workload,
                latency=FixedLatency(1.0),
                faults=FaultPlan(drop_rate=0.5, seed=seed),
            )
            for seed in (0, 1)
        }
        assert all(r.delivered_all for r in results.values())


class TestWatchdogLossAttribution:
    def test_dropped_unretransmitted_packet_reads_as_network_loss(self):
        # Satellite: a dropped user packet nobody retransmits must surface
        # as stuck with a network-loss reason, not vanish from the report.
        plan = FaultPlan(script={(0, 1, 0): "drop"})
        result = run_simulation(
            make_factory(FifoProtocol),
            chain_workload(2),
            latency=FixedLatency(1.0),
            faults=plan,
        )
        assert not result.delivered_all
        watchdog = Watchdog.from_trace(result.trace)
        for message_id in result.dropped_messages:
            watchdog.note_drop(message_id)
        stuck = watchdog.stuck(protocols=result.protocols)
        lost = [s for s in stuck if s.message_id == result.dropped_messages[0]]
        assert lost and lost[0].phase == "in-flight"
        assert "lost in network" in lost[0].reason
        assert "never retransmitted" in lost[0].reason

    def test_bus_fed_watchdog_distinguishes_awaiting_retransmit(self):
        bus = Bus()
        watchdog = Watchdog(bus)
        # Give up quickly so the run drains with the message still lost:
        # every copy (original + retries) is eaten by the full drop rate.
        plan = FaultPlan(channel_drop={(0, 1): 1.0})
        result = run_simulation(
            make_reliable(make_factory(FifoProtocol), max_retries=2),
            chain_workload(1),
            latency=FixedLatency(1.0),
            faults=plan,
            bus=bus,
        )
        assert not result.delivered_all
        stuck = watchdog.stuck(protocols=result.protocols)
        assert len(stuck) == 1
        assert "lost in network" in stuck[0].reason
        assert "awaiting retransmit" in stuck[0].reason
        # The sender's ARQ account rides along, attributed as such.
        assert "sender:" in stuck[0].reason

    def test_protocol_blocking_still_wins_for_undropped_messages(self):
        # m1 dropped, m2 arrives: m2 is buffered by FIFO reassembly -- a
        # protocol reason, not a network one.
        plan = FaultPlan(script={(0, 1, 0): "drop"})
        result = run_simulation(
            make_factory(FifoProtocol),
            chain_workload(2),
            latency=FixedLatency(1.0),
            faults=plan,
        )
        watchdog = Watchdog.from_trace(result.trace)
        for message_id in result.dropped_messages:
            watchdog.note_drop(message_id)
        stuck = {s.message_id: s for s in watchdog.stuck(protocols=result.protocols)}
        buffered = [
            s
            for s in stuck.values()
            if s.message_id not in result.dropped_messages
        ]
        assert buffered and buffered[0].phase == "buffered"
        assert "holding seq" in buffered[0].reason
