"""E9 -- the §7 multicast extension (the paper's closing remark,
implemented).

Regenerates, for the broadcast orderings:

- the classification (``classify`` reads group guards): causal
  broadcast stays tagged; total-order (atomic) broadcast needs control
  messages (its violation cycle breaks at two cross-site deliveries);
- a simulation study mirroring E6: the BSS protocol is causal with
  vector tags and no control traffic but diverges on total order; the
  sequencer protocol is totally ordered with control traffic.
"""

import pytest

from repro.broadcast import (
    ATOMIC_BROADCAST,
    TOTAL_ORDER_VIOLATION,
    CausalBroadcastProtocol,
    SequencerBroadcastProtocol,
    check_total_order,
    group_broadcasts,
)
from repro.core.classifier import ProtocolClass, classify
from repro.predicates.catalog import CAUSAL_B2, CAUSAL_ORDERING
from repro.protocols.base import make_factory
from repro.simulation import UniformLatency, run_simulation
from repro.verification import check_simulation

from conftest import format_table, write_result

LATENCY = UniformLatency(low=1.0, high=60.0)
SEEDS = range(5)


def test_e9_grouped_classification(benchmark):
    verdict = benchmark(classify, TOTAL_ORDER_VIOLATION)
    unicast_causal = classify(CAUSAL_B2)
    rows = [
        (
            "causal-broadcast",
            "unicast causal predicate",
            unicast_causal.min_order,
            unicast_causal.protocol_class.value,
        ),
        (
            "atomic-broadcast",
            "grouped total-order predicate",
            verdict.min_order,
            verdict.protocol_class.value,
        ),
    ]
    table = format_table(
        ["ordering", "predicate", "cycle order", "class"], rows
    )
    write_result("e9_broadcast_classification", table)
    assert unicast_causal.protocol_class is ProtocolClass.TAGGED
    assert verdict.protocol_class is ProtocolClass.GENERAL


def run_broadcast_study():
    rows = []
    from repro.broadcast import FifoBroadcastProtocol

    for name, factory in [
        ("fifo-broadcast", make_factory(FifoBroadcastProtocol)),
        ("causal-bss", make_factory(CausalBroadcastProtocol)),
        ("sequencer", make_factory(SequencerBroadcastProtocol)),
    ]:
        causal_ok = True
        live = True
        divergences = 0
        control = 0
        tags = 0.0
        for seed in SEEDS:
            workload = group_broadcasts(4, 10, seed=seed)
            result = run_simulation(factory, workload, seed=seed, latency=LATENCY)
            live = live and result.delivered_all
            causal_ok = causal_ok and check_simulation(result, CAUSAL_ORDERING).safe
            divergences += len(check_total_order(result.user_run))
            control += result.stats.control_messages
            tags += result.stats.mean_tag_bytes
        count = len(list(SEEDS))
        rows.append(
            (
                name,
                "yes" if live else "NO",
                "yes" if causal_ok else "NO",
                divergences,
                control // count,
                "%.0f" % (tags / count),
            )
        )
    return rows


def test_e9_broadcast_study(benchmark):
    rows = benchmark(run_broadcast_study)
    table = format_table(
        [
            "protocol",
            "live",
            "causal",
            "total-order divergences",
            "ctrl msgs/run",
            "tag bytes/msg",
        ],
        rows,
    )
    write_result("e9_broadcast_study", table)
    by_name = {row[0]: row for row in rows}
    assert by_name["causal-bss"][1] == "yes" and by_name["causal-bss"][2] == "yes"
    assert by_name["causal-bss"][3] > 0  # diverges on total order
    assert by_name["causal-bss"][4] == 0  # no control messages
    assert by_name["sequencer"][3] == 0  # totally ordered
    assert by_name["sequencer"][4] > 0  # pays in control messages
    # The ladder: fifo-broadcast is weakest (not even causal), cheapest tags.
    assert by_name["fifo-broadcast"][2] == "NO"
    assert float(by_name["fifo-broadcast"][5]) < float(by_name["causal-bss"][5])


@pytest.mark.parametrize(
    "factory",
    [make_factory(CausalBroadcastProtocol), make_factory(SequencerBroadcastProtocol)],
    ids=["bss", "sequencer"],
)
def test_e9_broadcast_throughput(benchmark, factory):
    workload = group_broadcasts(4, 10, seed=0)

    def simulate():
        return run_simulation(factory, workload, seed=0, latency=LATENCY)

    result = benchmark(simulate)
    assert result.delivered_all
