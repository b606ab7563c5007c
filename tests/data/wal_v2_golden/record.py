"""How ``golden.json`` beside this file was written.

Run from a checkout of the last commit whose WAL writer spelled every
record field through the generic value writer and kept its message
cache in ``repro.wal.records`` (f2e8002)::

    PYTHONPATH=<that checkout>/src python tests/data/wal_v2_golden/record.py

The digests are evidence, not fixtures to regenerate: the writer now
takes its message texts from ``repro.net.codec`` and spells record heads
with fixed-shape writers, and ``tests/test_wal_v2_golden.py`` runs
:func:`segments` and :func:`content_ids` from this tree to show that
WAL format 2 did not move by a byte.

The causal-rst run records with the nested-matrix reference protocol
(``tests/rst_reference.py``): the catalogue's RST now tags with one flat
list, and the recorded segments hold the nested tags it used to send.
The writer is what this golden pins, not that tag.  From a checkout of
this tree the recipe is run with the repository root on the path::

    PYTHONPATH=src:. python tests/data/wal_v2_golden/record.py
"""

import hashlib
import json
import os
import sys
import tempfile

from repro.events import Message
from repro.faults import FaultPlan
from repro.obs import Bus
from repro.protocols import catalogue
from repro.protocols.base import make_factory
from repro.protocols.reliable import make_reliable
from repro.simulation import UniformLatency, random_traffic, run_simulation
from repro.wal import WalSink, content_id, read_segment
from tests.rst_reference import NestedCausalRstProtocol

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

#: name -> (protocol, processes, messages, seed, (drop, dup) or None).
#: The segment bound is small enough that every run rotates, so the
#: body-once-per-segment rule is pinned across segment heads too.
RUNS = {
    "fifo": ("fifo", 3, 30, 3, None),
    "causal-rst": ("causal-rst", 8, 40, 5, None),
    "sync-coord": ("sync-coord", 3, 20, 7, None),
    "reliable-fifo": ("fifo", 3, 30, 11, (0.2, 0.1)),
}
MAX_SEGMENT_BYTES = 8192

#: Messages whose content ids are pinned literally: the spellings a
#: field-by-field writer could get wrong.
MESSAGES = {
    "plain": Message(id="m1", sender=0, receiver=1),
    "unicode-quotes": Message(id='mé"\\\n\U0001f600', sender=2, receiver=0),
    "colour-group": Message(id="m2", sender=1, receiver=2, color="red", group="g1"),
    "int-colour-group": Message(id="m3", sender=0, receiver=3, color=7, group=8),
    "ordering-key": Message(id="m4", sender=3, receiver=1, ordering_key="acct-ç7"),
    "tuple-dict-payload": Message(
        id="m5", sender=0, receiver=1, payload=("p", 2, {"k": [1.5], 3: None})
    ),
    "frozenset-payload": Message(
        id="m6", sender=1, receiver=0, payload=frozenset({(1, "a"), (2, "b")})
    ),
    "nan-payload": Message(
        id="m7", sender=2, receiver=1, payload=(float("nan"), float("-inf"), -0.0)
    ),
    "scalar-payloads": Message(id="m8", sender=0, receiver=2, payload=[True, 1, 1.0]),
}


def record(name, directory):
    """Record ``RUNS[name]`` through the simulator sink into ``directory``."""
    protocol, processes, messages, seed, faults = RUNS[name]
    if protocol == "causal-rst":
        factory = make_factory(NestedCausalRstProtocol)
    else:
        factory = catalogue()[protocol].factory
    plan = None
    if faults is not None:
        factory = make_reliable(factory)
        plan = FaultPlan(drop_rate=faults[0], dup_rate=faults[1], seed=seed)
    sink = WalSink(
        directory,
        meta={"protocol": name, "processes": processes, "seed": seed},
        fsync=False,
        max_segment_bytes=MAX_SEGMENT_BYTES,
    )
    try:
        run_simulation(
            factory,
            random_traffic(processes, messages, seed=seed),
            seed=seed,
            latency=UniformLatency(low=1.0, high=30.0),
            faults=plan,
            bus=Bus(),
            wal=sink,
        )
    finally:
        sink.close()


def segments(name):
    """``[{"records", "sha256"}]``, one per segment file of run ``name``."""
    with tempfile.TemporaryDirectory() as directory:
        record(name, directory)
        digests = []
        for file_name in sorted(os.listdir(directory)):
            path = os.path.join(directory, file_name)
            with open(path, "rb") as handle:
                data = handle.read()
            records, dropped = read_segment(path, strict=True)
            assert dropped == 0
            digests.append(
                {"records": len(records), "sha256": hashlib.sha256(data).hexdigest()}
            )
        return digests


def content_ids():
    return {name: content_id(message) for name, message in MESSAGES.items()}


if __name__ == "__main__":
    golden = {
        "content_ids": content_ids(),
        "segments": {name: segments(name) for name in RUNS},
    }
    with open(sys.argv[1] if len(sys.argv) > 1 else GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
