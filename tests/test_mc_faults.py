"""Model checking under bounded fault budgets: the adversary may also
drop and duplicate packets (ISSUE 4 tentpole, mc side)."""

import pytest

from repro.mc import (
    check_protocol,
    minimize_schedule,
    pair_workload,
    replay_schedule,
    triple_workload,
    violation_oracle,
)
from repro.mc.world import ControlledWorld
from repro.mc.registry import resolve_protocol
from repro.protocols.registry import resolve
from repro.simulation.persistence import schedule_from_dict, schedule_to_dict


class TestFaultBudgetSemantics:
    def test_budget_zero_has_no_fault_transitions(self):
        world = ControlledWorld(
            resolve_protocol("fifo"), pair_workload(), fault_budget=0
        )
        assert not [key for key in world.enabled() if key[0] in ("drop", "dup")]

    def test_budget_enables_drop_and_dup(self):
        world = ControlledWorld(
            resolve_protocol("reliable-fifo"), pair_workload(), fault_budget=1
        )
        world.run_schedule([world.enabled()[0]])  # invoke m1 -> packet in flight
        kinds = {key[0] for key in world.enabled()}
        assert "drop" in kinds and "dup" in kinds

    def test_budget_is_spent_by_faults(self):
        world = ControlledWorld(
            resolve_protocol("reliable-fifo"), pair_workload(), fault_budget=1
        )
        world.run_schedule([world.enabled()[0]])
        drop = [key for key in world.enabled() if key[0] == "drop"][0]
        world.execute(drop)
        assert world.faults_used == 1
        assert world.drops_used == 1
        assert not [key for key in world.enabled() if key[0] in ("drop", "dup")]

    def test_timers_stay_gated_until_a_drop(self):
        # The ARQ layer declares timers_pure_recovery: with no drop spent,
        # its retransmission timers never appear as transitions.
        world = ControlledWorld(
            resolve_protocol("reliable-fifo"), pair_workload(), fault_budget=1
        )
        world.run_schedule([world.enabled()[0]])
        assert not [key for key in world.enabled() if key[0] == "timer"]
        drop = [key for key in world.enabled() if key[0] == "drop"][0]
        world.execute(drop)
        assert [key for key in world.enabled() if key[0] == "timer"]


class TestReliableMasksFaults:
    def test_pair_budget_one_verified_exhaustively(self):
        report = check_protocol(
            "reliable-fifo", pair_workload(), fault_budget=1, max_schedules=None
        )
        assert report.exhaustive
        assert report.verified
        assert not report.violations
        assert report.fault_budget == 1

    def test_triple_budget_one_verified_exhaustively(self):
        report = check_protocol(
            "reliable-fifo",
            triple_workload(),
            fault_budget=1,
            max_schedules=None,
            max_depth=200,
        )
        assert report.exhaustive
        assert report.verified
        assert not report.violations

    def test_timer_gating_keeps_faultless_tree_small(self):
        # Without gating every armed retransmission timer doubles the
        # tree; with it the budget-0 exploration of the ARQ wrapper stays
        # within a small constant of the bare protocol's.
        bare = check_protocol("fifo", pair_workload(), max_schedules=None)
        wrapped = check_protocol(
            "reliable-fifo", pair_workload(), max_schedules=None
        )
        assert wrapped.verified and bare.verified
        assert wrapped.schedules_explored <= 10 * bare.schedules_explored


class TestUnprotectedCounterexample:
    def test_broken_fifo_yields_shrunk_replayable_fault_counterexample(self):
        report = check_protocol(
            "broken-fifo", pair_workload(), fault_budget=1, max_schedules=None
        )
        assert report.violations
        violation = report.violations[0]
        minimized = violation.minimized or minimize_schedule(
            violation.schedule, resolve("broken-fifo").spec
        )
        assert minimized.fault_budget == 1
        assert len(minimized) <= len(violation.schedule)

        # Replay reproduces the identical violation...
        outcome = replay_schedule(minimized, spec=resolve("broken-fifo").spec)
        assert outcome.violation is not None
        assert violation_oracle(outcome.violation) == violation_oracle(
            violation.first
        )

        # ...including after a serialization round-trip.
        restored = schedule_from_dict(schedule_to_dict(minimized))
        assert restored.fault_budget == minimized.fault_budget
        assert restored.keys == minimized.keys
        replayed = replay_schedule(restored, spec=resolve("broken-fifo").spec)
        assert replayed.violation is not None
        assert violation_oracle(replayed.violation) == violation_oracle(
            violation.first
        )

    def test_plain_fifo_merely_blocks_under_loss(self):
        # Dropping a packet makes bare FIFO buffer forever rather than
        # misorder: safety holds (verified) even though liveness dies --
        # which is exactly why the ARQ sublayer is a separate layer.
        report = check_protocol(
            "fifo", pair_workload(), fault_budget=1, max_schedules=None
        )
        assert report.exhaustive
        assert report.verified
