"""The incremental verification engine.

One evaluation core behind every consumer of forbidden predicates:

- :func:`compile_predicate` turns a
  :class:`~repro.predicates.ast.ForbiddenPredicate` into a
  :class:`CompiledPredicate` -- selectivity-ordered variable plans with
  per-variable candidate indexes (see
  :mod:`repro.verification.engine.plan`);
- :class:`SpecMonitor` checks an append-only trace incrementally,
  anchoring the search at each new event, with ``push()``/``pop()``
  snapshots for DFS exploration (see
  :mod:`repro.verification.engine.monitor`);
- :func:`capped_monitor` is the one verdict policy for a whole run
  (capped incremental search, then the membership oracle at end of run),
  shared by the live observer and the WAL replay;
- the batch helpers below run the same compiled plans over a finished
  :class:`~repro.runs.user_run.UserRun`; the historical APIs
  (``find_assignment``, ``run_admitted``, ``Specification.admits``,
  ``first_violation``) are thin wrappers over them.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.events import Event, EventKind
from repro.predicates.ast import ForbiddenPredicate
from repro.predicates.spec import Specification
from repro.runs.user_run import UserRun
from repro.verification.engine.causality import OnlineCausality
from repro.verification.engine.indexes import MessageIndex
from repro.verification.engine.monitor import (
    FAMILY_ARITY_CAP,
    FirstViolation,
    MonitorStats,
    SpecMonitor,
    capped_monitor,
)
from repro.verification.engine.plan import (
    Assignment,
    CompiledPredicate,
    Ordered,
    compile_predicate,
)

__all__ = [
    "CompiledPredicate",
    "FAMILY_ARITY_CAP",
    "FirstViolation",
    "MessageIndex",
    "MonitorStats",
    "OnlineCausality",
    "SpecMonitor",
    "batch_find_assignment",
    "batch_run_admitted",
    "capped_monitor",
    "compile_predicate",
    "index_for_run",
    "monitor_trace",
    "spec_admits",
]


def index_for_run(run: UserRun) -> MessageIndex:
    """A message index over a finished run (id-sorted, like
    ``run.messages()``, so batch search order is deterministic)."""
    index = MessageIndex()
    for message in run.messages():
        index.add(message)
    return index


def batch_find_assignment(
    run: UserRun,
    predicate: ForbiddenPredicate,
    index: Optional[MessageIndex] = None,
) -> Optional[Assignment]:
    """The first satisfying assignment of ``predicate`` in ``run``, or
    ``None`` -- the engine-backed equivalent of
    :func:`repro.predicates.evaluation.find_assignment`.

    Pass a prebuilt ``index`` (:func:`index_for_run`) when checking many
    predicates against one run.
    """
    compiled = compile_predicate(predicate)
    if compiled.never_satisfiable:
        return None
    if index is None:
        index = index_for_run(run)
    return compiled.find(index, _ordered_in(run))


def _ordered_in(run: UserRun) -> Ordered:
    """The batch reference's ``ordered``: asked of the run's events
    (``before`` is ``False`` for an event the run does not have)."""
    before = run.before

    def ordered(a_id: str, a_kind: EventKind, b_id: str, b_kind: EventKind) -> bool:
        return before(Event(a_id, a_kind), Event(b_id, b_kind))

    return ordered


def batch_run_admitted(
    run: UserRun,
    predicate: ForbiddenPredicate,
    index: Optional[MessageIndex] = None,
) -> bool:
    """``True`` iff ``run ∈ X_B`` (no forbidden instance exists)."""
    return batch_find_assignment(run, predicate, index=index) is None


def spec_admits(
    run: UserRun, spec: Union[Specification, ForbiddenPredicate]
) -> bool:
    """``True`` iff ``run`` belongs to the specification's run set.

    Uses the specification's oracle when it has one (exact and faster
    than any search); otherwise every applicable member is checked over
    one shared index.
    """
    if isinstance(spec, ForbiddenPredicate):
        return batch_run_admitted(run, spec)
    if spec.oracle is not None:
        return spec.oracle(run)
    index = index_for_run(run)
    return all(
        batch_run_admitted(run, member, index=index)
        for member in spec.members_for(run)
    )


def monitor_trace(
    trace, spec: Union[Specification, ForbiddenPredicate]
) -> Optional[FirstViolation]:
    """Check a whole trace with a fresh monitor: the earliest event
    whose execution completed a forbidden instance, or ``None``."""
    return SpecMonitor(spec).advance(trace)
