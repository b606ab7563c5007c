"""Systematic model checking of protocol delivery schedules (``repro.mc``).

The paper's claims are universally quantified: a protocol implements a
specification only if *no* adversarial delivery schedule produces a
forbidden instance.  Seeded random simulation samples that schedule
space; this subsystem *exhausts* it (within a budget).  The pieces:

- :mod:`repro.mc.world` -- the controllable scheduler: the simulation's
  own hosts/protocols driven by explicit transitions instead of latency;
- :mod:`repro.mc.explorer` -- stateless DFS over schedules with
  sleep-set (DPOR-style) and state-signature pruning, early violation
  cutoff via :func:`repro.verification.engine.monitor_trace`, and a
  machine-readable :class:`~repro.mc.explorer.MCReport`;
- :mod:`repro.mc.counterexample` -- replayable
  :class:`~repro.mc.counterexample.Schedule` counterexamples with a
  delta-debugging minimizer;
- :mod:`repro.mc.mutations` -- deliberately broken protocol variants the
  checker must catch (the checker's own regression suite);
- :mod:`repro.mc.registry` -- the checker's tiny named workloads and
  :func:`~repro.mc.registry.resolve_protocol`, which resolves a
  catalogue name under the ARQ bounds that keep the tree finite.

>>> from repro.mc import check_protocol
>>> from repro.simulation import Workload, SendRequest
>>> pair = Workload(
...     name="pair",
...     n_processes=2,
...     requests=(
...         SendRequest(time=0.0, sender=0, receiver=1),
...         SendRequest(time=1.0, sender=0, receiver=1),
...     ),
... )
>>> check_protocol("fifo", pair, max_schedules=None).verified
True
>>> report = check_protocol("broken-fifo", pair)
>>> [v.first.predicate_name for v in report.violations]
['fifo']
"""

from repro.mc.counterexample import (
    ReplayOutcome,
    Schedule,
    minimize_schedule,
    replay_schedule,
    violation_oracle,
)
from repro.mc.explorer import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_MAX_SCHEDULES,
    MCReport,
    MCViolation,
    ModelChecker,
    check_protocol,
)
from repro.mc.mutations import (
    BrokenCausalRstProtocol,
    BrokenFifoProtocol,
    mutation_factories,
)
from repro.mc.registry import (
    flush_pair_workload,
    named_workloads,
    pair_workload,
    resolve_protocol,
    triangle_workload,
    triple_workload,
)
from repro.mc.world import (
    ControlledTransport,
    ControlledWorld,
    ScheduleError,
    StepClock,
    TransitionKey,
    transition_home,
    transitions_dependent,
)

__all__ = [
    "ModelChecker",
    "MCReport",
    "MCViolation",
    "check_protocol",
    "DEFAULT_MAX_SCHEDULES",
    "DEFAULT_MAX_DEPTH",
    "Schedule",
    "ReplayOutcome",
    "replay_schedule",
    "minimize_schedule",
    "violation_oracle",
    "ControlledWorld",
    "ControlledTransport",
    "StepClock",
    "ScheduleError",
    "TransitionKey",
    "transition_home",
    "transitions_dependent",
    "BrokenFifoProtocol",
    "BrokenCausalRstProtocol",
    "mutation_factories",
    "resolve_protocol",
    "named_workloads",
    "pair_workload",
    "triple_workload",
    "triangle_workload",
    "flush_pair_workload",
]
