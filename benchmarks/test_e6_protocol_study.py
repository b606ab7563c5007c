"""E6 -- the constructive side of Theorem 1 as a simulation study.

For one protocol per class (plus variants), over a common seeded workload
grid, regenerates the table the theory predicts:

- every protocol satisfies its own specification with zero violations;
- tagless and tagged protocols use **zero control messages**;
- the general (logically synchronous) protocols use control messages;
- tag sizes grow with the strength of the tagged guarantee.

Absolute latencies depend on the simulated network; the *shape* (who
pays which cost) is the result.
"""

import pytest

from repro.predicates.catalog import (
    ASYNC_ORDERING,
    CAUSAL_ORDERING,
    FIFO_ORDERING,
    LOGICALLY_SYNCHRONOUS,
    TWO_WAY_FLUSH,
    k_weaker_causal_spec,
)
from repro.protocols import (
    CausalRstProtocol,
    CausalSesProtocol,
    FifoProtocol,
    FlushChannelProtocol,
    KWeakerCausalProtocol,
    SyncCoordinatorProtocol,
    SyncRendezvousProtocol,
    TaglessProtocol,
)
from repro.protocols.base import make_factory
from repro.simulation import UniformLatency, random_traffic, run_simulation
from repro.verification import cost_study

from conftest import format_table, write_result

LATENCY = UniformLatency(low=1.0, high=40.0)
SEEDS = range(5)

STUDY = [
    ("tagless", make_factory(TaglessProtocol), ASYNC_ORDERING, "tagless"),
    ("fifo", make_factory(FifoProtocol), FIFO_ORDERING, "tagged"),
    ("flush", make_factory(FlushChannelProtocol), TWO_WAY_FLUSH, "tagged"),
    ("k-weaker(2)", make_factory(KWeakerCausalProtocol, 2), k_weaker_causal_spec(2), "tagged"),
    ("causal-rst", make_factory(CausalRstProtocol), CAUSAL_ORDERING, "tagged"),
    ("causal-ses", make_factory(CausalSesProtocol), CAUSAL_ORDERING, "tagged"),
    ("sync-coordinator", make_factory(SyncCoordinatorProtocol), LOGICALLY_SYNCHRONOUS, "general"),
    ("sync-rendezvous", make_factory(SyncRendezvousProtocol), LOGICALLY_SYNCHRONOUS, "general"),
]


def run_study():
    rows = cost_study(
        [(name, factory, spec) for name, factory, spec, _ in STUDY],
        lambda seed: random_traffic(4, 40, seed=seed, color_every=8),
        seeds=SEEDS,
        latency=LATENCY,
    )
    return [
        (
            row.name,
            klass,
            "yes" if row.spec_ok else "NO",
            row.violations,
            int(row.control_messages),
            "%.0f" % row.tag_bytes,
            int(row.delayed_deliveries),
            "%.1f" % row.send_to_deliver,
            "%.1f" % row.end_to_end,
        )
        for row, (*_, klass) in zip(rows, STUDY)
    ]


def test_e6_regenerate_study(benchmark):
    rows = benchmark(run_study)
    table = format_table(
        [
            "protocol",
            "class",
            "spec ok",
            "violations",
            "ctrl msgs/run",
            "tag bytes/msg",
            "delayed/run",
            "send->deliver",
            "invoke->deliver",
        ],
        rows,
    )
    write_result("e6_protocol_study", table)

    by_name = {row[0]: row for row in rows}
    # Every protocol implements its spec.
    assert all(row[2] == "yes" and row[3] == 0 for row in rows)
    # Control messages: exactly the general class uses them (Theorem 1).
    for row in rows:
        if row[1] == "general":
            assert row[4] > 0, row
        else:
            assert row[4] == 0, row
    # Tag size ordering: do-nothing < fifo < causal matrices.
    assert float(by_name["tagless"][5]) <= 1
    assert float(by_name["fifo"][5]) < float(by_name["causal-rst"][5])
    # The general protocols pay in end-to-end latency (send inhibition):
    # the serialized coordinator is far slower invoke-to-deliver than the
    # do-nothing protocol.
    assert float(by_name["sync-coordinator"][8]) > 2 * float(by_name["tagless"][8])


@pytest.mark.parametrize(
    "name,factory",
    [(name, factory) for name, factory, _, _ in STUDY],
    ids=[name for name, *_ in STUDY],
)
def test_e6_simulation_speed(benchmark, name, factory):
    workload = random_traffic(4, 40, seed=0, color_every=8)

    def simulate():
        return run_simulation(factory, workload, seed=0, latency=LATENCY)

    result = benchmark(simulate)
    assert result.delivered_all
