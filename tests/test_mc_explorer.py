"""The model checker: bounded proofs, seeded-bug detection, pruning, reports."""

from __future__ import annotations

import pytest

from repro.mc import (
    ControlledWorld,
    ModelChecker,
    ScheduleError,
    check_protocol,
    pair_workload,
    resolve_protocol,
    transition_home,
    transitions_dependent,
    triangle_workload,
)
from repro.predicates.catalog import FIFO_ORDERING
from repro.simulation.workloads import SendRequest, Workload


def three_sender_workload() -> Workload:
    """Three processes each sending once to the next: enough interleavings
    to exercise budgets without being expensive."""
    return Workload(
        name="mc-ring3",
        n_processes=3,
        requests=(
            SendRequest(time=0.0, sender=0, receiver=1),
            SendRequest(time=1.0, sender=1, receiver=2),
            SendRequest(time=2.0, sender=2, receiver=0),
        ),
    )


# -- exhaustive proofs ------------------------------------------------------


@pytest.mark.parametrize(
    "protocol, workload",
    [
        ("fifo", pair_workload()),
        ("tagless", pair_workload()),
        ("causal-rst", triangle_workload()),
        ("causal-ses", triangle_workload()),
    ],
)
def test_correct_protocols_verified_exhaustively(protocol, workload):
    report = check_protocol(protocol, workload, max_schedules=None)
    assert report.exhaustive
    assert report.verified
    assert not report.violations
    assert report.schedules_explored >= 1
    assert report.distinct_complete_runs >= 1


def test_verified_requires_exhaustive_coverage():
    report = check_protocol("fifo", pair_workload(), max_schedules=1)
    assert not report.violations
    assert report.budget_exhausted
    assert not report.verified  # no violation found, but not a proof


# -- seeded bugs are caught -------------------------------------------------


def test_broken_fifo_caught_within_default_budget():
    report = check_protocol("broken-fifo", pair_workload())
    assert report.violations
    violation = report.violations[0]
    assert violation.first.predicate_name == "fifo"
    assert violation.minimized is not None
    assert len(violation.minimized) <= len(violation.schedule)


def test_broken_causal_caught_on_triangle():
    report = check_protocol("broken-causal-rst", triangle_workload())
    assert report.violations
    assert report.violations[0].first.predicate_name.startswith("causal")


def test_violation_not_extended_and_stops_at_max():
    report = check_protocol("broken-fifo", pair_workload(), max_violations=1)
    assert len(report.violations) == 1
    assert report.stopped_at_max_violations
    assert not report.exhaustive


# -- budgets ----------------------------------------------------------------


def test_schedule_budget_exhaustion_is_reported():
    report = check_protocol(
        "tagless", three_sender_workload(), max_schedules=2
    )
    assert report.budget_exhausted
    assert report.schedules_explored == 2
    assert not report.exhaustive


def test_depth_truncation_is_reported():
    report = check_protocol(
        "tagless", pair_workload(), max_schedules=None, max_depth=2
    )
    assert report.depth_truncations > 0
    assert not report.exhaustive


# -- pruning soundness ------------------------------------------------------


def test_pruned_and_naive_reach_same_runs():
    workload = three_sender_workload()
    factory = resolve_protocol("tagless")
    from repro.predicates.catalog import ASYNC_ORDERING

    naive = ModelChecker(
        factory,
        workload,
        ASYNC_ORDERING,
        use_sleep_sets=False,
        use_state_cache=False,
        collect_runs=True,
        max_schedules=None,
        minimize=False,
    )
    pruned = ModelChecker(
        factory,
        workload,
        ASYNC_ORDERING,
        collect_runs=True,
        max_schedules=None,
        minimize=False,
    )
    naive_report = naive.run()
    pruned_report = pruned.run()
    assert naive_report.verified and pruned_report.verified
    # Same reachable user-view behaviour...
    assert naive.complete_runs == pruned.complete_runs
    assert (
        naive_report.distinct_complete_runs
        == pruned_report.distinct_complete_runs
    )
    # ...from strictly less work.
    assert pruned_report.schedules_explored < naive_report.schedules_explored


def test_pruning_does_not_mask_the_bug():
    for flags in (
        {"use_sleep_sets": False, "use_state_cache": False},
        {"use_sleep_sets": True, "use_state_cache": False},
        {"use_sleep_sets": True, "use_state_cache": True},
    ):
        report = check_protocol(
            "broken-fifo", pair_workload(), minimize=False, **flags
        )
        assert report.violations, flags


# -- observability ----------------------------------------------------------


def test_report_counts_schedules_prunes_and_the_violation():
    report = check_protocol("broken-fifo", pair_workload(), minimize=False)
    assert report.schedules_explored > 0
    assert report.violations[0].first.predicate_name == "fifo"

    report = check_protocol("tagless", three_sender_workload(), minimize=False)
    assert report.pruned_sleep > 0, "independent transitions must be slept on"


def test_violation_carries_stuck_diagnoses_field():
    report = check_protocol("broken-fifo", pair_workload(), minimize=False)
    violation = report.violations[0]
    assert isinstance(violation.stuck, list)
    payload = report.to_dict()
    assert payload["violations"][0]["stuck"] == violation.stuck


# -- the controllable world -------------------------------------------------


def test_transition_dependence_is_home_process():
    assert transition_home(("invoke", 0, 1)) == 0
    assert transition_home(("deliver", 0, 1, 2)) == 1
    assert transition_home(("timer", 2, 0)) == 2
    assert transitions_dependent(("invoke", 0, 1), ("deliver", 1, 0, 0))
    assert not transitions_dependent(("invoke", 0, 1), ("deliver", 0, 1, 0))


def test_script_mode_enforces_per_process_send_order():
    world = ControlledWorld(resolve_protocol("fifo"), pair_workload())
    with pytest.raises(ScheduleError):
        world.execute(("invoke", 0, 1))  # second send before the first


def test_executing_a_disabled_key_raises():
    world = ControlledWorld(resolve_protocol("fifo"), pair_workload())
    with pytest.raises(ScheduleError):
        world.execute(("deliver", 0, 1, 0))  # nothing released yet


def test_report_dict_shape():
    report = check_protocol("fifo", pair_workload(), max_schedules=None)
    payload = report.to_dict()
    assert payload["format"] == "repro-mc-report-v1"
    assert payload["verified"] is True
    assert payload["budget"]["max_schedules"] is None
    spec_report = check_protocol(
        "fifo", pair_workload(), spec=FIFO_ORDERING, max_schedules=None
    )
    assert spec_report.specification == FIFO_ORDERING.name
