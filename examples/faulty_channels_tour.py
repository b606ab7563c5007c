"""Faulty-channels tour: ordering specs survive loss, dup and crashes.

The paper assumes reliable channels; this tour breaks that assumption
on purpose and shows the ARQ sublayer (:mod:`repro.protocols.reliable`)
restoring it underneath an unmodified catalogue protocol:

1. FIFO over a network that drops 20% and duplicates 10% of packets --
   wrapped, everything is delivered and the FIFO spec still holds;
2. the same network eats messages from the *bare* protocol, and the
   watchdog names the loss ("lost in network ... never retransmitted");
3. a process is killed mid-run, loses its volatile timers, restarts by
   replaying its write-ahead log and retransmits its way back to a
   clean run;
4. the model checker plays a bounded adversary (``--fault-budget``):
   every 1-fault schedule of the wrapped protocol is verified.

Usage:  python examples/faulty_channels_tour.py
"""

from repro.faults import FaultAction, FaultPlan
from repro.mc import check_protocol, pair_workload
from repro.obs import Watchdog
from repro.predicates.catalog import FIFO_ORDERING
from repro.protocols import FifoProtocol, make_factory, make_reliable
from repro.simulation import FixedLatency, random_traffic, run_simulation
from repro.simulation.workloads import SendRequest, Workload


def lossy_network() -> None:
    print("--- 1. FIFO spec on a lossy, duplicating network ---")
    plan = FaultPlan(drop_rate=0.2, dup_rate=0.1, seed=5)
    result = run_simulation(
        make_reliable(make_factory(FifoProtocol)),
        random_traffic(3, 15, seed=5),
        spec=FIFO_ORDERING,
        faults=plan,
    )
    assert result.delivered_all, result.undelivered
    assert result.first_violation is None
    print(result.summary())
    print()


def bare_protocol_loses() -> None:
    print("--- 2. the bare protocol on the same network ---")
    result = run_simulation(
        make_factory(FifoProtocol),
        random_traffic(3, 15, seed=5),
        faults=FaultPlan(drop_rate=0.2, seed=5),
    )
    assert not result.delivered_all
    watchdog = Watchdog()
    for message_id in result.dropped_messages:
        watchdog.note_drop(message_id)
    print(watchdog.render(result.trace, protocols=result.protocols))
    print()


def crash_and_recover() -> None:
    print("--- 3. crash, restart, retransmit ---")
    workload = Workload(
        name="crash-demo",
        n_processes=2,
        requests=tuple(
            SendRequest(time=t, sender=0, receiver=1)
            for t in (0.0, 10.0, 20.0)
        ),
    )
    plan = FaultPlan(
        actions=(FaultAction(at=5.0, kind="kill", target=1, duration=55.0),)
    )
    result = run_simulation(
        make_reliable(make_factory(FifoProtocol)),
        workload,
        latency=FixedLatency(1.0),
        spec=FIFO_ORDERING,
        faults=plan,
    )
    assert result.delivered_all
    assert result.first_violation is None
    print(
        "P1 crashed at t=5, restarted at t=60: %d packet(s) blackholed, "
        "%d retransmission(s), all %d messages delivered in order"
        % (
            result.fault_summary.crash_drops,
            result.stats.retransmissions,
            result.stats.deliveries,
        )
    )
    print()


def bounded_adversary() -> None:
    print("--- 4. model checking with a fault budget ---")
    report = check_protocol(
        "reliable-fifo", pair_workload(), fault_budget=1, max_schedules=None
    )
    assert report.verified and report.exhaustive
    print(
        "reliable-fifo vs 1-fault adversary: VERIFIED over %d schedules "
        "(%d pruned)"
        % (report.schedules_explored, report.pruned_sleep + report.pruned_state)
    )


def main() -> None:
    lossy_network()
    bare_protocol_loses()
    crash_and_recover()
    bounded_adversary()
    print("\nAll faulty-channel demonstrations held.")


if __name__ == "__main__":
    main()
