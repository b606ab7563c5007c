"""The compiled evaluator returns the *first* assignment, exactly.

A plan's evaluator binds its variables in plan order and tries each
variable's candidates in registration order, so the assignment it
returns is the least satisfying one under that order.  Here the set of
satisfying assignments comes from the brute-force enumeration of
:mod:`repro.predicates.evaluation`, and the expected answer is its least
member:

- for the batch :meth:`~repro.verification.engine.plan.CompiledPredicate.find`,
  over the run's id-sorted messages in :attr:`CompiledPredicate.plan`'s order;
- for the anchored plans, through :meth:`SpecMonitor.advance`: the first
  event that completes an assignment, and of the assignments it
  completes, those pinning the first live anchor of the event's kind,
  least in that anchor's plan order over first-appearance positions.

Chains (``k``-weaker causal shapes) and crowns of every small length,
with random process, colour and group guards, over simulated fifo and
causal-rst runs, and tagless ones, where chains complete too.
"""

import dataclasses
import functools

from hypothesis import given, settings, strategies as st

from repro.events import DELIVER, SEND
from repro.predicates.ast import ForbiddenPredicate
from repro.predicates.catalog import crown, k_weaker_causal
from repro.predicates.evaluation import satisfying_assignments
from repro.predicates.guards import ColorGuard, GroupGuard, ProcessGuard
from repro.protocols.registry import catalogue_entry
from repro.simulation import UniformLatency, random_traffic, run_simulation
from repro.simulation.workloads import Workload
from repro.verification.engine import (
    SpecMonitor,
    batch_find_assignment,
    compile_predicate,
)

ROLES = ("sender", "receiver")
PROTOCOLS = ("fifo", "causal-rst", "tagless")


@functools.lru_cache(maxsize=None)
def _simulate(protocol, seed):
    traffic = random_traffic(3, 8, seed=seed, color_every=3)
    # Groups shared by every third message, so group guards can hold.
    workload = Workload(
        name=traffic.name,
        n_processes=traffic.n_processes,
        requests=tuple(
            dataclasses.replace(request, group="g%d" % (i % 3) if i % 2 else None)
            for i, request in enumerate(traffic.requests)
        ),
    )
    return run_simulation(
        catalogue_entry(protocol).factory,
        workload,
        seed=seed,
        latency=UniformLatency(low=1.0, high=60.0),
    )


@st.composite
def predicates(draw):
    k = draw(st.integers(0, 3))
    base = crown(k + 2) if draw(st.booleans()) else k_weaker_causal(k)
    variables = base.variables
    pick = st.sampled_from(variables)
    guards = draw(
        st.lists(
            st.one_of(
                st.builds(
                    ProcessGuard,
                    st.tuples(pick, st.sampled_from(ROLES)),
                    st.tuples(pick, st.sampled_from(ROLES)),
                    st.booleans(),
                ),
                st.builds(ColorGuard, pick, st.just("red"), st.booleans()),
                st.builds(GroupGuard, pick, pick, st.booleans()),
            ),
            max_size=3,
        )
    )
    return ForbiddenPredicate.build(
        base.conjuncts,
        guards=guards,
        name="random",
        distinct=base.distinct or draw(st.booleans()),
    )


def _least(assignments, order, position):
    return min(
        assignments,
        key=lambda assignment: [position[assignment[v].id] for v in order],
        default=None,
    )


def _ids(assignment):
    return None if assignment is None else {v: m.id for v, m in assignment.items()}


def _first_violation(trace, predicate, every):
    """What the monitor must report: ``(event, assignment ids)`` or ``None``."""
    compiled = compile_predicate(predicate)
    records = [r for r in trace.records() if r.event.kind in (SEND, DELIVER)]
    at = {(r.event.message_id, r.event.kind): i for i, r in enumerate(records)}
    position, completing = {}, {}
    for assignment in every:
        last = max(
            at[assignment[term.variable].id, term.kind]
            for conjunct in predicate.conjuncts
            for term in (conjunct.left, conjunct.right)
        )
        completing.setdefault(last, []).append(assignment)
    for i, record in enumerate(records):
        message_id, kind = record.event.message_id, record.event.kind
        position.setdefault(message_id, len(position))
        # The monitor searches a member once the run has as many messages.
        if len(position) < predicate.arity:
            continue
        for anchor in compiled.anchors.get(kind, ()):
            if anchor.dead:
                continue
            pinned = [
                a for a in completing.get(i, ()) if a[anchor.variable].id == message_id
            ]
            if pinned:
                plan = compiled.anchored_plans[anchor.variable]
                order = [step.variable for step in plan]
                return record.event, _ids(_least(pinned, order, position))
    return None


@given(
    predicates(),
    st.sampled_from(PROTOCOLS),
    st.integers(0, 4),
)
@settings(max_examples=120, deadline=None)
def test_batch_and_anchored_plans_return_the_first_assignment(
    predicate, protocol, seed
):
    result = _simulate(protocol, seed)
    run = result.user_run
    every = list(satisfying_assignments(run, predicate))

    compiled = compile_predicate(predicate)
    sorted_position = {m.id: i for i, m in enumerate(run.messages())}
    expected = _least(every, [step.variable for step in compiled.plan], sorted_position)
    assert _ids(batch_find_assignment(run, predicate)) == _ids(expected)

    monitor = SpecMonitor(predicate)
    found = monitor.advance(result.trace)
    reference = _first_violation(result.trace, predicate, every)
    if reference is None:
        assert found is None
    else:
        assert found is not None
        assert (found.event, found.assignment) == reference


def test_the_runs_carry_what_the_guards_read():
    """Colours and groups are present, and both shapes complete on some
    runs: the property above compares found assignments, not only
    ``None``s."""
    messages = _simulate("fifo", 0).user_run.messages()
    assert {m.color for m in messages} >= {"red", None}
    assert len({m.group for m in messages}) == 4
    for shape in (crown(2), k_weaker_causal(1)):
        assert any(
            SpecMonitor(shape).advance(_simulate(protocol, seed).trace)
            for protocol in PROTOCOLS
            for seed in range(5)
        ), shape
