"""Model-checking tour: prove a protocol correct, then catch a broken one.

Random simulation (``repro simulate``) samples delivery schedules; the
model checker of :mod:`repro.mc` *exhausts* them.  This tour:

1. exhaustively verifies FIFO and causal protocols on tiny workloads --
   a bounded proof, not a sampled hope;
2. unleashes the checker on ``broken-fifo`` (a FIFO protocol whose
   sender 0 skips the reorder buffer) and shows the minimized,
   replayable counterexample it produces;
3. replays the counterexample from its serialized form, byte-identical.

Usage:  python examples/model_check_tour.py
"""

import io

from repro.mc import (
    check_protocol,
    pair_workload,
    replay_schedule,
    triangle_workload,
)
from repro.protocols.registry import resolve
from repro.simulation.persistence import load_schedule, save_schedule


def prove_correct() -> None:
    print("--- 1. bounded proofs on tiny workloads ---")
    for protocol, workload in (
        ("fifo", pair_workload()),
        ("causal-rst", triangle_workload()),
        ("causal-ses", triangle_workload()),
    ):
        report = check_protocol(protocol, workload, max_schedules=None)
        assert report.verified, report.summary()
        print(
            "%-12s on %-12s VERIFIED: %d schedules, %d distinct runs, "
            "%d pruned"
            % (
                protocol,
                workload.name,
                report.schedules_explored,
                report.distinct_complete_runs,
                report.pruned_sleep + report.pruned_state,
            )
        )


def catch_broken() -> None:
    print("\n--- 2. a deliberately broken FIFO ---")
    # BrokenFifoProtocol lets sender 0 bypass the sequence-number buffer:
    # under the right adversarial schedule its messages arrive reordered.
    report = check_protocol("broken-fifo", pair_workload())
    assert report.violations, "the checker must catch the seeded bug"
    violation = report.violations[0]
    print(report.summary())
    minimized = violation.minimized
    assert minimized is not None
    print(
        "\nminimized from %d to %d transitions:"
        % (len(violation.schedule), len(minimized))
    )
    for key in minimized.keys:
        print("  %s" % (key,))

    print("\n--- 3. serialize, reload, replay ---")
    buffer = io.StringIO()
    save_schedule(minimized, buffer)
    buffer.seek(0)
    reloaded = load_schedule(buffer)
    outcome = replay_schedule(reloaded, spec=resolve(reloaded.protocol).spec)
    assert outcome.violation is not None
    assert outcome.violation.predicate_name == violation.first.predicate_name
    print("replayed %d-step schedule -> %s" % (len(reloaded), outcome.violation))
    print("the counterexample is a file: attach it to the bug report.")


if __name__ == "__main__":
    prove_correct()
    catch_broken()
