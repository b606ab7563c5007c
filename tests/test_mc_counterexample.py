"""Counterexamples: serialization round-trips, strict replay, minimization."""

from __future__ import annotations

import io

import pytest

from repro.mc import (
    Schedule,
    check_protocol,
    minimize_schedule,
    pair_workload,
    replay_schedule,
    resolve_protocol,
    triangle_workload,
    violation_oracle,
)
from repro.protocols.registry import resolve
from repro.simulation.persistence import (
    load_schedule,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
    workload_from_dict,
    workload_to_dict,
)


def broken_fifo_counterexample() -> Schedule:
    report = check_protocol("broken-fifo", pair_workload())
    assert report.violations
    return report.violations[0].schedule


# -- serialization round-trips ----------------------------------------------


def test_workload_round_trip():
    for workload in (pair_workload(), triangle_workload()):
        clone = workload_from_dict(workload_to_dict(workload))
        assert clone == workload


def test_schedule_dict_round_trip_preserves_keys_exactly():
    schedule = broken_fifo_counterexample()
    clone = schedule_from_dict(schedule_to_dict(schedule))
    assert clone == schedule
    assert clone.keys == schedule.keys
    assert all(isinstance(key, tuple) for key in clone.keys)


def test_save_load_replay_reproduces_trace_and_violation():
    schedule = broken_fifo_counterexample()
    spec = resolve(schedule.protocol).spec
    original = replay_schedule(schedule, spec=spec)

    buffer = io.StringIO()
    save_schedule(schedule, buffer)
    buffer.seek(0)
    reloaded = load_schedule(buffer)
    replayed = replay_schedule(reloaded, spec=spec)

    # Bit-identical trace: same records in the same order at the same times.
    assert [
        (record.time, record.event.message_id, record.event.kind.symbol)
        for record in original.world.trace.records()
    ] == [
        (record.time, record.event.message_id, record.event.kind.symbol)
        for record in replayed.world.trace.records()
    ]
    assert original.violation is not None
    assert replayed.violation is not None
    assert violation_oracle(original.violation) == violation_oracle(
        replayed.violation
    )
    assert original.violation.time == replayed.violation.time


def test_save_load_via_path(tmp_path):
    schedule = broken_fifo_counterexample()
    path = str(tmp_path / "cex.json")
    save_schedule(schedule, path)
    assert load_schedule(path) == schedule


# -- strict replay ----------------------------------------------------------


def test_replay_is_strict_about_enabledness():
    schedule = broken_fifo_counterexample()
    # Delivering the first packet twice is never enabled.
    corrupt = Schedule(
        protocol=schedule.protocol,
        workload=schedule.workload,
        keys=schedule.keys + (schedule.keys[-1],),
        invoke_order=schedule.invoke_order,
    )
    with pytest.raises(Exception):
        replay_schedule(corrupt)


def test_replay_uses_registry_when_no_factory_given():
    schedule = broken_fifo_counterexample()
    outcome = replay_schedule(
        schedule, spec=resolve(schedule.protocol).spec
    )
    assert outcome.violation is not None


# -- minimization -----------------------------------------------------------


def test_minimized_schedule_still_violates_same_oracle():
    schedule = broken_fifo_counterexample()
    spec = resolve(schedule.protocol).spec
    minimized = minimize_schedule(schedule, spec)
    base = replay_schedule(schedule, spec=spec)
    small = replay_schedule(minimized, spec=spec)
    assert base.violation is not None and small.violation is not None
    assert violation_oracle(base.violation) == violation_oracle(small.violation)
    assert len(minimized) <= len(schedule)


def test_minimized_schedule_is_one_minimal():
    schedule = broken_fifo_counterexample()
    spec = resolve(schedule.protocol).spec
    minimized = minimize_schedule(schedule, spec)
    oracle = violation_oracle(replay_schedule(schedule, spec=spec).violation)
    factory = resolve_protocol(schedule.protocol)
    for index in range(len(minimized)):
        candidate = Schedule(
            protocol=minimized.protocol,
            workload=minimized.workload,
            keys=minimized.keys[:index] + minimized.keys[index + 1 :],
            invoke_order=minimized.invoke_order,
        )
        try:
            outcome = replay_schedule(
                candidate, spec=spec, protocol_factory=factory
            )
        except Exception:
            continue  # removal breaks replay: the key was necessary
        assert (
            outcome.violation is None
            or violation_oracle(outcome.violation) != oracle
        ), "key %d was removable" % index


def test_minimization_is_deterministic():
    schedule = broken_fifo_counterexample()
    spec = resolve(schedule.protocol).spec
    assert minimize_schedule(schedule, spec) == minimize_schedule(
        schedule, spec
    )


def test_minimizer_rejects_clean_schedule():
    report = check_protocol("fifo", pair_workload(), max_schedules=None)
    assert not report.violations
    # Build a full clean schedule by replaying the explored world directly.
    from repro.mc import ControlledWorld

    world = ControlledWorld(resolve_protocol("fifo"), pair_workload())
    keys = []
    while True:
        enabled = world.enabled()
        if not enabled:
            break
        keys.append(enabled[0])
        world.execute(enabled[0])
    clean = Schedule(
        protocol="fifo", workload=pair_workload(), keys=tuple(keys)
    )
    with pytest.raises(ValueError):
        minimize_schedule(clean, resolve("fifo").spec)
