"""How ``golden.json`` beside this file was written.

Run from a checkout of the last commit whose ``GeneratedTaggedProtocol``
kept its own poset and its own backtracking search (836367f)::

    PYTHONPATH=<that checkout>/src python tests/data/generated_golden/record.py

The digests are evidence, not fixtures to regenerate: the protocol now
decides through ``repro.verification.engine``, and
``tests/test_protocol_generated.py`` runs :func:`digest` from this tree
to show that every timed trace row is still the one recorded there.
Tag bytes are left out on purpose (the tag shrank by design).
"""

import hashlib
import json
import os

from repro.predicates.catalog import (
    CAUSAL_B1,
    CAUSAL_B2,
    CAUSAL_B3,
    FIFO,
    GLOBAL_FORWARD_FLUSH,
    LOCAL_FORWARD_FLUSH,
    RED_MARKER_NO_OVERTAKE,
    k_weaker_causal,
)
from repro.protocols import GeneratedTaggedProtocol
from repro.protocols.base import make_factory
from repro.simulation import (
    UniformLatency,
    broadcast_storm,
    random_traffic,
    red_marker_stream,
    run_simulation,
)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

#: The exact rule (FIFO, B2, the flush/marker forms, the conjunction,
#: the three-variable window) and the causal fallback (B1, B3).
PREDICATE_SETS = {
    "fifo": [FIFO],
    "causal-B1": [CAUSAL_B1],
    "causal-B2": [CAUSAL_B2],
    "causal-B3": [CAUSAL_B3],
    "local-forward-flush": [LOCAL_FORWARD_FLUSH],
    "global-forward-flush": [GLOBAL_FORWARD_FLUSH],
    "red-marker": [RED_MARKER_NO_OVERTAKE],
    "fifo+causal-B2": [FIFO, CAUSAL_B2],
    "k-weaker-causal-2": [k_weaker_causal(2)],
}
WORKLOADS = {
    "random": lambda seed: random_traffic(3, 25, seed=seed),
    "storm": lambda seed: broadcast_storm(3, 3, seed=seed),
    "marker": lambda seed: red_marker_stream(12, marker_every=4, seed=seed),
}
SEEDS = range(4)
CASES = [
    "%s/%s/%d" % (predicates, workload, seed)
    for predicates in PREDICATE_SETS
    for workload in WORKLOADS
    for seed in SEEDS
]


def digest(case):
    """One seeded adversarial-latency run of ``case``, reduced to what
    the delivery rule decides: when every event executed and where."""
    predicates, workload, seed = case.split("/")
    result = run_simulation(
        make_factory(GeneratedTaggedProtocol, PREDICATE_SETS[predicates]),
        WORKLOADS[workload](int(seed)),
        seed=int(seed),
        latency=UniformLatency(low=1.0, high=60.0),
    )
    rows = [
        (repr(r.time), r.process, r.event.kind.name, r.event.message_id)
        for r in result.trace.records()
    ]
    return {
        "rows": len(rows),
        "rows_sha256": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
        "deliveries": result.stats.deliveries,
        "delayed_deliveries": result.stats.delayed_deliveries,
    }


if __name__ == "__main__":
    with open(GOLDEN, "w") as handle:
        json.dump({case: digest(case) for case in CASES}, handle, indent=1, sort_keys=True)
        handle.write("\n")
