"""High-level API tying classification, synthesis and simulation together.

>>> from repro import classify, parse_predicate
>>> verdict = classify(parse_predicate("x.s < y.s & y.r < x.r"))
>>> verdict.protocol_class.value
'tagged'
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

from repro.core.classifier import (
    Classification,
    ProtocolClass,
    classify,
    classify_specification,
)
from repro.predicates.ast import ForbiddenPredicate
from repro.predicates.spec import Specification
from repro.runs.user_run import UserRun
from repro.verification.checker import CheckResult, check_run, check_simulation

SpecLike = Union[Specification, ForbiddenPredicate]


def _predicates_of(spec: SpecLike, max_family_arity: int = 6):
    if isinstance(spec, ForbiddenPredicate):
        return [spec]
    return spec.all_predicates(max_family_arity)


def protocol_for(
    spec: SpecLike, max_family_arity: int = 6
) -> Callable[[int, int], object]:
    """A protocol factory implementing ``spec``, per its classification.

    - tagless  → the do-nothing protocol;
    - tagged   → the generated knowledge-tagging protocol specialized to
      the specification's predicates;
    - general  → the coordinator-based logically synchronous protocol
      (whose run set ``X_sync`` is contained in every implementable
      specification, Corollary 1); if a general predicate is grouped,
      the sequencer broadcast instead, since logical synchrony over
      unicast copies does not order one broadcast's copies at all sites;
    - not implementable → ``ValueError``.
    """
    from repro.broadcast import SequencerBroadcastProtocol
    from repro.graphs.predicate_graph import PredicateGraph
    from repro.protocols.base import make_factory
    from repro.protocols.generated import GeneratedTaggedProtocol
    from repro.protocols.sync_coordinator import SyncCoordinatorProtocol
    from repro.protocols.tagless import TaglessProtocol

    predicates = _predicates_of(spec, max_family_arity)
    verdicts = [classify(p) for p in predicates]
    strongest = max(verdicts, key=lambda v: v.protocol_class.strength)
    if strongest.protocol_class is ProtocolClass.NOT_IMPLEMENTABLE:
        raise ValueError(
            "specification is not implementable: %s"
            % "; ".join(strongest.notes)
        )
    if strongest.protocol_class is ProtocolClass.TAGLESS:
        return make_factory(TaglessProtocol)
    if strongest.protocol_class is ProtocolClass.TAGGED:
        enforced = [
            v.predicate
            for v in verdicts
            if v.protocol_class is ProtocolClass.TAGGED
        ]
        return make_factory(GeneratedTaggedProtocol, enforced)
    if any(
        PredicateGraph(v.predicate).grouped
        for v in verdicts
        if v.protocol_class is ProtocolClass.GENERAL
    ):
        return make_factory(SequencerBroadcastProtocol)
    return make_factory(SyncCoordinatorProtocol)


def simulate(
    spec: SpecLike,
    workload,
    seed: int = 0,
    protocol_factory: Optional[Callable[[int, int], object]] = None,
    **kwargs,
):
    """Simulate ``workload`` under a protocol implementing ``spec``.

    When ``protocol_factory`` is omitted it is synthesized via
    :func:`protocol_for`.  Returns the
    :class:`~repro.simulation.runner.SimulationResult`.
    """
    from repro.simulation.runner import run_simulation

    factory = protocol_factory or protocol_for(spec)
    return run_simulation(factory, workload, seed=seed, **kwargs)


def verify(run_or_result, spec: SpecLike) -> CheckResult:
    """Check a user run or a simulation result against ``spec``."""
    if isinstance(run_or_result, UserRun):
        return check_run(run_or_result, spec)
    return check_simulation(run_or_result, spec)
