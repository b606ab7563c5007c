"""How the two version-1 logs beside this file were written.

Run from a checkout of the last commit whose writer spoke WAL version 1
(ada2e58)::

    PYTHONPATH=<that checkout>/src python tests/data/wal_v1/record.py <out-dir>

The logs are evidence, not fixtures to regenerate: the current writer
speaks version 2, so running this file from this tree re-records the
same two seeded runs *as version 2* -- which is exactly what
``tests/test_wal_v1_logs.py`` does to compare the two.
"""

import os
import sys

from repro.mc.mutations import mutation_factories
from repro.protocols import catalogue
from repro.simulation import UniformLatency, random_traffic, run_simulation
from repro.wal import WalSink

#: name -> (protocol, simulation seed, messages); broken-fifo's seed is
#: one on which the mutation does misorder a channel.
RUNS = {"fifo": ("fifo", 2, 12), "broken-fifo": ("broken-fifo", 4, 16)}


def record(name, directory):
    """Record ``RUNS[name]`` through the simulator sink into ``directory``."""
    protocol, seed, messages = RUNS[name]
    factory = (
        mutation_factories()[protocol]
        if protocol in mutation_factories()
        else catalogue()[protocol].factory
    )
    sink = WalSink(
        directory,
        meta={"protocol": protocol, "spec": "fifo", "processes": 3, "seed": seed},
        fsync=False,
    )
    try:
        return run_simulation(
            factory,
            random_traffic(3, messages, seed=seed),
            seed=seed,
            latency=UniformLatency(low=1.0, high=30.0),
            wal=sink,
        )
    finally:
        sink.close()


if __name__ == "__main__":
    for run in RUNS:
        record(run, os.path.join(sys.argv[1], run))
