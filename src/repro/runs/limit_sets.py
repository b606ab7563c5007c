"""The limit sets of §3.4: ``X_sync ⊆ X_co ⊆ X_async`` (user-view runs).

- ``X_async``: every complete partial-order run.
- ``X_co``:    runs with causally ordered deliveries
  (no pair with ``x.s ▷ y.s`` and ``y.r ▷ x.r``).
- ``X_sync``:  logically synchronous runs -- the time diagram can be drawn
  with vertical message arrows; equivalently, a numbering
  ``T : M → ℕ`` exists with ``x.h ▷ y.f ⇒ T(x) < T(y)``; equivalently, the
  *message graph* is acyclic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.events import DELIVER, SEND, Event
from repro.poset import CycleError, Digraph
from repro.poset.algorithms import find_cycle, topological_sort
from repro.runs.user_run import UserRun


def is_async(run: UserRun) -> bool:
    """Membership in ``X_async``: a valid, complete partial-order run."""
    return run.is_valid() and run.is_complete()


def causal_violations(run: UserRun) -> List[Tuple[str, str]]:
    """All ordered message pairs ``(x, y)`` with ``x.s ▷ y.s ∧ y.r ▷ x.r``."""
    violations = []
    ids = run.message_ids()
    for x in ids:
        for y in ids:
            if x == y:
                continue
            if run.before(Event.send(x), Event.send(y)) and run.before(
                Event.deliver(y), Event.deliver(x)
            ):
                violations.append((x, y))
    return violations


def is_causally_ordered(run: UserRun) -> bool:
    """Membership in ``X_co`` (assumes the run is in ``X_async``)."""
    return is_async(run) and not causal_violations(run)


def message_graph(run: UserRun) -> Digraph:
    """Directed graph on message ids: edge ``x → y`` iff some user event of
    ``x`` happens before some user event of ``y`` (``x ≠ y``).

    Because ``x.s ▷ x.r`` always holds, ``x → y`` is equivalent to
    ``x.s ▷ y.r``; a cycle in this graph is exactly a "crown"
    ``x1.s ▷ x2.r ∧ x2.s ▷ x3.r ∧ ... ∧ xk.s ▷ x1.r``.
    """
    ids = run.message_ids()
    graph = Digraph(nodes=ids)
    for x in ids:
        for y in ids:
            if x == y:
                continue
            for h in (SEND, DELIVER):
                if any(
                    run.before(Event(x, h), Event(y, f)) for f in (SEND, DELIVER)
                ):
                    graph.add_edge(x, y)
                    break
    return graph


def sync_numbering(run: UserRun) -> Optional[Dict[str, int]]:
    """A witness ``T : M → ℕ`` for logical synchrony, or ``None``.

    ``T`` satisfies the paper's SYNC condition:
    ``x.h ▷ y.f ⇒ T(x) < T(y)`` for all distinct messages ``x, y``.

    Linear in the generating relation: each recorded ``a ▷ b`` between
    two messages is the edge ``msg(a) → msg(b)``.  That edge is in
    :func:`message_graph`, and each message-graph edge is a walk of such
    edges, so both graphs are acyclic together and a topological order
    of this one is a SYNC numbering.  An invalid run raises
    :class:`~repro.poset.poset.CycleError`, as any ``▷`` query does.
    """
    pairs = run.generating_pairs()
    cycle = find_cycle(Digraph(edges=pairs))
    if cycle is not None:
        raise CycleError(cycle)
    graph = Digraph(nodes=run.message_ids())
    for low, high in pairs:
        if low.message_id != high.message_id:
            graph.add_edge(low.message_id, high.message_id)
    try:
        order = topological_sort(graph)
    except ValueError:
        return None
    return {message_id: position for position, message_id in enumerate(order)}


def is_logically_synchronous(run: UserRun) -> bool:
    """Membership in ``X_sync``."""
    return is_async(run) and sync_numbering(run) is not None


def crown_cycles(run: UserRun) -> List[List[str]]:
    """All minimal "crowns" witnessing non-synchrony: message cycles in the
    message graph.  Empty iff the run is logically synchronous.

    Only simple cycles through distinct messages are reported; each cycle is
    rotated to start at its smallest id and returned once.
    """
    from repro.graphs.cycles import simple_cycles_digraph

    return simple_cycles_digraph(message_graph(run))


def limit_set_memberships(run: UserRun) -> Dict[str, bool]:
    """Convenience: membership of the run in all three limit sets."""
    async_member = is_async(run)
    co_member = async_member and not causal_violations(run)
    sync_member = co_member and sync_numbering(run) is not None
    return {"async": async_member, "co": co_member, "sync": sync_member}
