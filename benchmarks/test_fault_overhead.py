"""Cost of recovery: ARQ overhead as the network degrades.

Runs ``Reliable(FIFO)`` over random traffic at drop rates {0, 0.05,
0.2} (plus 10% duplication at the highest tier) and tabulates the
recovery costs the paper's channel-model assumption hides: wall-clock
per run, retransmissions, goodput (deliveries per transmission
attempt), and delivery latency.  At drop rate 0 the ARQ layer must be
essentially free -- no retransmissions, goodput 1.0 -- which is the
regression this benchmark guards.
"""

from __future__ import annotations

import time

from conftest import format_table, write_result

from repro.faults import FaultPlan
from repro.protocols import FifoProtocol, make_factory, make_reliable
from repro.simulation import UniformLatency, random_traffic, run_simulation

SEEDS = range(5)
MESSAGES = 60
LATENCY = UniformLatency(low=1.0, high=10.0)

TIERS = (
    ("0%", None),
    ("5%", lambda seed: FaultPlan(drop_rate=0.05, seed=seed)),
    ("20%+dup", lambda seed: FaultPlan(drop_rate=0.2, dup_rate=0.1, seed=seed)),
)


def _run_tier(plan_for):
    elapsed = 0.0
    retransmissions = dropped = 0
    goodputs = []
    latencies = []
    for seed in SEEDS:
        workload = random_traffic(3, MESSAGES, seed=seed)
        faults = plan_for(seed) if plan_for else None
        started = time.perf_counter()
        result = run_simulation(
            make_reliable(make_factory(FifoProtocol)),
            workload,
            seed=seed,
            latency=LATENCY,
            faults=faults,
        )
        elapsed += time.perf_counter() - started
        assert result.delivered_all, result.undelivered
        retransmissions += result.stats.retransmissions
        if result.fault_summary is not None:  # None on the clean tier
            dropped += result.fault_summary.packets_dropped
        goodputs.append(result.stats.goodput)
        latencies.append(result.stats.mean_delivery_latency)
    runs = len(list(SEEDS))
    return {
        "ms_per_run": 1000.0 * elapsed / runs,
        "retransmissions": retransmissions,
        "dropped": dropped,
        "goodput": sum(goodputs) / runs,
        "latency": sum(latencies) / runs,
    }


def test_fault_overhead_table():
    rows = []
    measured = {}
    for label, plan_for in TIERS:
        tier = _run_tier(plan_for)
        measured[label] = tier
        rows.append(
            [
                label,
                "%.1f" % tier["ms_per_run"],
                tier["dropped"],
                tier["retransmissions"],
                "%.3f" % tier["goodput"],
                "%.1f" % tier["latency"],
            ]
        )

    table = format_table(
        ["drop rate", "ms/run", "drops", "retransmits", "goodput", "mean latency"],
        rows,
    )
    write_result(
        "fault_overhead",
        "ARQ recovery cost, Reliable(FIFO), %d msgs x %d seeds\n\n%s"
        % (MESSAGES, len(list(SEEDS)), table),
    )

    # The reliability layer is free on a reliable network...
    assert measured["0%"]["retransmissions"] == 0
    assert measured["0%"]["goodput"] == 1.0
    # ...and recovery costs rise monotonically with the fault rate.
    assert measured["5%"]["retransmissions"] > 0
    assert measured["20%+dup"]["retransmissions"] > measured["5%"]["retransmissions"]
    assert measured["20%+dup"]["goodput"] < measured["5%"]["goodput"] < 1.0
