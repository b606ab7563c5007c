"""Replayable counterexamples: schedules, strict replay, ddmin shrinking.

A violating exploration is captured as a :class:`Schedule` -- the
workload, the protocol's registry name, and the exact transition-key
sequence.  Replaying a schedule rebuilds a fresh
:class:`~repro.mc.world.ControlledWorld` and re-executes the keys, which
reproduces the trace bit-identically (every source of nondeterminism is
either seeded or scheduled).  Schedules serialize through
:mod:`repro.simulation.persistence`, so a counterexample found in CI can
be replayed and inspected locally.

The minimizer is classic delta debugging (Zeller's ddmin) over the key
sequence, followed by a greedy single-removal pass that guarantees
1-minimality: the result still replays strictly and still produces the
*same* first violation (predicate and witness assignment).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.mc.registry import resolve_protocol
from repro.mc.world import (
    ControlledWorld,
    ProtocolFactory,
    ScheduleError,
    TransitionKey,
)
from repro.predicates.spec import Specification
from repro.simulation.workloads import Workload
from repro.verification.engine import FirstViolation, monitor_trace


@dataclass(frozen=True)
class Schedule:
    """A replayable transition sequence for one protocol and workload."""

    protocol: str
    workload: Workload
    keys: Tuple[TransitionKey, ...]
    invoke_order: str = "script"
    # The world's fault budget: drop/dup keys in the sequence only replay
    # when the rebuilt world grants at least as many faults.
    fault_budget: int = 0

    def __len__(self) -> int:
        return len(self.keys)

    def describe(self) -> str:
        """The key sequence as one compact line."""
        return " ".join(
            "%s(%s)" % (key[0], ",".join(str(part) for part in key[1:]))
            for key in self.keys
        )


@dataclass
class ReplayOutcome:
    """What replaying a schedule produced."""

    world: ControlledWorld
    violation: Optional[FirstViolation] = None


def replay_schedule(
    schedule: Schedule,
    spec: Optional[Specification] = None,
    protocol_factory: Optional[ProtocolFactory] = None,
) -> ReplayOutcome:
    """Re-execute a schedule from scratch (strict: every key must be
    enabled in turn) and optionally re-verify it against ``spec``."""
    factory = protocol_factory or resolve_protocol(schedule.protocol)
    world = ControlledWorld(
        factory,
        schedule.workload,
        invoke_order=schedule.invoke_order,
        fault_budget=schedule.fault_budget,
    )
    world.run_schedule(schedule.keys)
    violation = (
        monitor_trace(world.trace, spec) if spec is not None else None
    )
    return ReplayOutcome(world=world, violation=violation)


def violation_oracle(violation: FirstViolation) -> Tuple:
    """The identity a minimized schedule must preserve: which predicate
    fired, with which witness messages."""
    return (
        violation.predicate_name,
        tuple(sorted(violation.assignment.items())),
    )


def _reproduces(
    keys: Sequence[TransitionKey],
    schedule: Schedule,
    spec: Specification,
    factory: ProtocolFactory,
    oracle: Tuple,
) -> bool:
    candidate = Schedule(
        protocol=schedule.protocol,
        workload=schedule.workload,
        keys=tuple(keys),
        invoke_order=schedule.invoke_order,
        fault_budget=schedule.fault_budget,
    )
    try:
        outcome = replay_schedule(candidate, spec=spec, protocol_factory=factory)
    except ScheduleError:
        return False
    return (
        outcome.violation is not None
        and violation_oracle(outcome.violation) == oracle
    )


def minimize_schedule(
    schedule: Schedule,
    spec: Specification,
    protocol_factory: Optional[ProtocolFactory] = None,
) -> Schedule:
    """Shrink a violating schedule to a 1-minimal violating sequence.

    Three phases: truncate to the violating step (the clock ticks once
    per transition, so the violation time *is* the prefix length), ddmin
    chunk removal, then greedy single-key removal until fixpoint.
    """
    factory = protocol_factory or resolve_protocol(schedule.protocol)
    base = replay_schedule(schedule, spec=spec, protocol_factory=factory)
    if base.violation is None:
        raise ValueError("schedule does not violate the specification")
    oracle = violation_oracle(base.violation)
    keys: List[TransitionKey] = list(schedule.keys)[: int(base.violation.time)]

    def test(candidate: Sequence[TransitionKey]) -> bool:
        return _reproduces(candidate, schedule, spec, factory, oracle)

    assert test(keys)
    keys = _ddmin(keys, test)
    # Greedy 1-minimality pass: drop any single key that is not needed.
    index = 0
    while index < len(keys):
        candidate = keys[:index] + keys[index + 1 :]
        if candidate and test(candidate):
            keys = candidate
        else:
            index += 1
    return Schedule(
        protocol=schedule.protocol,
        workload=schedule.workload,
        keys=tuple(keys),
        invoke_order=schedule.invoke_order,
        fault_budget=schedule.fault_budget,
    )


def _ddmin(
    keys: List[TransitionKey],
    test: Callable[[Sequence[TransitionKey]], bool],
) -> List[TransitionKey]:
    """Delta debugging: remove progressively smaller chunks."""
    granularity = 2
    while len(keys) >= 2:
        chunk = max(1, len(keys) // granularity)
        reduced = False
        start = 0
        while start < len(keys):
            candidate = keys[:start] + keys[start + chunk :]
            if candidate and test(candidate):
                keys = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
            start += chunk
        if not reduced:
            if chunk <= 1:
                break
            granularity = min(len(keys), granularity * 2)
    return keys
