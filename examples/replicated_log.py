"""A replicated log on broadcast orderings (the §7 multicast extension).

Replicas apply commands they deliver.  Under causal broadcast (tags
only), replicas can diverge on concurrent commands; under total-order
broadcast (sequencer, control messages) every replica applies the same
sequence.  The classifier derives *why*: the total-order
violation pattern breaks at two cross-site deliveries, so its cycle has
order 2 and control messages are unavoidable.

Usage:  python examples/replicated_log.py
"""

from repro.broadcast import (
    ATOMIC_BROADCAST,
    TOTAL_ORDER_VIOLATION,
    CausalBroadcastProtocol,
    SequencerBroadcastProtocol,
    check_total_order,
    delivery_order_at,
    group_broadcasts,
)
from repro.core.classifier import classify
from repro.protocols.base import make_factory
from repro.simulation import UniformLatency, run_simulation

LATENCY = UniformLatency(low=1.0, high=60.0)


def show_logs(result) -> None:
    for process in result.user_run.processes():
        log = delivery_order_at(result.user_run, process)
        print("  replica %d applies: %s" % (process, " ".join(log)))


def main() -> None:
    print("total-order violation pattern:", TOTAL_ORDER_VIOLATION)
    verdict = classify(TOTAL_ORDER_VIOLATION)
    print(
        "classification: %s (cycle order %d)"
        % (verdict.protocol_class.value, verdict.min_order)
    )
    print("  witness:", verdict.witness)
    print()

    workload = group_broadcasts(n_processes=4, rounds=8, seed=4)

    print("--- causal broadcast (BSS vector tags, no control messages) ---")
    result = run_simulation(
        make_factory(CausalBroadcastProtocol), workload, seed=4, latency=LATENCY
    )
    show_logs(result)
    divergences = check_total_order(result.user_run)
    print(
        "  divergences: %d (e.g. %s)"
        % (len(divergences), divergences[:1] or "none")
    )

    print("\n--- total-order broadcast (sequencer, control messages) ---")
    result = run_simulation(
        make_factory(SequencerBroadcastProtocol), workload, seed=4, latency=LATENCY
    )
    show_logs(result)
    print("  divergences: %d" % len(check_total_order(result.user_run)))
    print("  control messages: %d" % result.stats.control_messages)


if __name__ == "__main__":
    main()
