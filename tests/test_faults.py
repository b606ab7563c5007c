"""Fault injection: plans, the faulty transport, timed actions (link
faults, pauses, kills), watchdog loss attribution (the robustness layer
of ``repro.faults``)."""

import pytest

from repro.faults import ACTION_KINDS, FaultAction, FaultPlan
from repro.obs import Bus, Watchdog
from repro.predicates.catalog import FIFO_ORDERING
from repro.protocols import FifoProtocol, make_factory, make_reliable
from repro.simulation import FixedLatency, random_traffic, run_simulation
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

    def test_link_fault_needs_a_distinct_source_and_a_heal_after_start(self):
        with pytest.raises(ValueError, match="src != target"):
            FaultAction(at=0.0, kind="blackhole", target=1, src=1)
        with pytest.raises(ValueError, match="duration"):
            FaultAction(at=5.0, kind="blackhole", target=1, src=0, duration=0.0)

    def test_kill_validation(self):
        with pytest.raises(ValueError, match="duration"):
            FaultAction(at=3.0, kind="kill", target=0, duration=0.0)
        with pytest.raises(ValueError, match="duplicate kill"):
            FaultPlan(
                actions=(
                    FaultAction(at=1.0, kind="kill", target=0),
                    FaultAction(at=1.0, kind="kill", target=0),
                )
            )

    def test_channel_overrides_and_any_faults(self):
        plan = FaultPlan(drop_rate=0.1, channel_drop={(0, 1): 0.5})
        assert plan.drop_rate_for(0, 1) == 0.5
        assert plan.drop_rate_for(1, 0) == 0.1
        assert plan.any_faults
        assert not FaultPlan().any_faults
        kill = FaultAction(at=1.0, kind="kill", target=0)
        assert FaultPlan(actions=(kill,)).any_faults

    def test_link_fault_windows(self):
        cut = FaultAction(at=10.0, kind="blackhole", target=1, src=0, duration=10.0)
        assert not cut.cuts(0, 1, 5.0)
        assert cut.cuts(0, 1, 10.0)
        assert cut.cuts(0, 1, 19.9)
        assert not cut.cuts(0, 1, 20.0)  # healed
        assert not cut.cuts(1, 0, 15.0)  # directed: only src -> target
        assert not cut.cuts(2, 1, 15.0)  # another source's link

    def test_pause_cuts_every_link_to_and_from_the_target(self):
        pause = FaultAction(at=0.0, kind="pause", target=1, duration=10.0)
        assert pause.cuts(0, 1, 5.0) and pause.cuts(1, 2, 5.0)
        assert not pause.cuts(0, 2, 5.0)
        isolate = FaultAction(at=0.0, kind="sever", target=1, duration=10.0)
        assert isolate.cuts(0, 1, 5.0) and isolate.cuts(2, 1, 5.0)
        assert not isolate.cuts(1, 0, 5.0)


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


def _partition(duration=None):
    """0 and 1 cut off from each other: a blackhole each way."""
    return FaultPlan(
        actions=tuple(
            FaultAction(at=0.0, kind="blackhole", target=dst, src=src, duration=duration)
            for src, dst in ((0, 1), (1, 0))
        )
    )


class TestLinkFaults:
    def test_partition_heals_and_arq_recovers(self):
        plan = _partition(duration=35.0)
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
        plan = _partition()
        result = run_simulation(
            make_reliable(make_factory(FifoProtocol), max_retries=2),
            chain_workload(1),
            latency=FixedLatency(1.0),
            faults=plan,
        )
        assert not result.delivered_all
        assert result.fault_summary.partition_drops > 0


class TestEveryActionKind:
    """Each kind the live chaos harness runs also runs in the simulator,
    and reliable-fifo delivers every message exactly once through it."""

    @pytest.mark.parametrize("kind", ACTION_KINDS)
    def test_reliable_fifo_delivers_everything_once(self, kind):
        restored = []
        base = reliable_fifo()

        def factory(process_id, n_processes):
            protocol = base(process_id, n_processes)
            hook = protocol.on_link_restored

            def on_link_restored(ctx, dst):
                restored.append((process_id, dst, ctx.now))
                hook(ctx, dst)

            protocol.on_link_restored = on_link_restored
            return protocol

        src = 0 if kind in ("sever", "blackhole") else None
        plan = FaultPlan(
            actions=(FaultAction(at=10.0, kind=kind, target=1, src=src, duration=40.0),)
        )
        workload = random_traffic(3, 30, seed=2, rate=0.5)
        result = run_simulation(
            factory, workload, latency=FixedLatency(1.0), spec=FIFO_ORDERING, faults=plan
        )
        assert result.delivered_all, result.undelivered
        assert result.stats.deliveries == len(workload.requests)
        assert result.first_violation is None
        summary = result.fault_summary
        if kind == "kill":
            assert summary.crashes == summary.restarts == 1
        else:
            assert summary.partition_drops > 0
        # Only a severed link is re-dialed, by its source, at the heal.
        assert restored == ([(0, 1, 50.0)] if kind == "sever" else [])


class TestCrashRestart:
    def test_crash_blackholes_then_restart_recovers(self):
        plan = FaultPlan(
            actions=(FaultAction(at=5.0, kind="kill", target=1, duration=55.0),)
        )
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
        plan = FaultPlan(actions=(FaultAction(at=5.0, kind="kill", target=1),))
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
        watchdog = Watchdog()
        for message_id in result.dropped_messages:
            watchdog.note_drop(message_id)
        stuck = watchdog.stuck(result.trace, protocols=result.protocols)
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
        stuck = watchdog.stuck(result.trace, protocols=result.protocols)
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
        watchdog = Watchdog()
        for message_id in result.dropped_messages:
            watchdog.note_drop(message_id)
        stuck = {
            s.message_id: s
            for s in watchdog.stuck(result.trace, protocols=result.protocols)
        }
        buffered = [
            s
            for s in stuck.values()
            if s.message_id not in result.dropped_messages
        ]
        assert buffered and buffered[0].phase == "buffered"
        assert "holding seq" in buffered[0].reason
