"""Cost comparison across the three protocol classes.

One shared workload, every catalogue protocol against its own
specification, the costs side by side: control messages (only the
general class), tag bytes and delivery buffering (the tagged classes),
and send inhibition, which is where the invoke-to-deliver latency of the
general class goes.  ``repro compare`` prints the same table.

Usage:  python examples/protocol_comparison.py
"""

from repro.core.report import format_table
from repro.protocols.registry import cached_catalogue
from repro.simulation import random_traffic
from repro.verification import CostRow, cost_study


def main() -> None:
    rows = cost_study(
        [(e.name, e.factory, e.spec) for e in cached_catalogue().values()],
        lambda seed: random_traffic(4, 30, seed=seed, color_every=8),
        seeds=range(3),
    )
    assert all(row.spec_ok for row in rows)
    print(format_table(CostRow.HEADERS, [row.cells() for row in rows]))
    print(
        "reading: only the sync protocols emit control messages "
        "(Theorem 1.1), and they pay for the guarantee in send inhibition "
        "and invoke-to-delivery latency; tagged protocols pay in tag bytes "
        "and delivery buffering; the do-nothing protocol pays nothing and "
        "guarantees nothing."
    )


if __name__ == "__main__":
    main()
