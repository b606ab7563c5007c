"""Catalogue of the paper's named message-ordering specifications.

Every specification discussed in the paper is here, with the protocol
class the paper assigns to it.  The expected class is stored as a string
(``"tagless" | "tagged" | "general" | "not_implementable"``) matching
:class:`repro.core.classifier.ProtocolClass` values, so the catalogue can
be consumed without importing the classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.predicates.ast import Conjunct, ForbiddenPredicate, deliver_of, send_of
from repro.predicates.guards import ColorGuard, ProcessGuard
from repro.predicates.spec import PredicateFamily, Specification

# ---------------------------------------------------------------------------
# Causal-ordering forms (Lemma 3.2): three equivalent predicates whose
# specification set is exactly X_co.
# ---------------------------------------------------------------------------

CAUSAL_B1 = ForbiddenPredicate.build(
    [
        Conjunct(send_of("x"), deliver_of("y")),
        Conjunct(deliver_of("y"), deliver_of("x")),
    ],
    name="causal-B1",
)

CAUSAL_B2 = ForbiddenPredicate.build(
    [
        Conjunct(send_of("x"), send_of("y")),
        Conjunct(deliver_of("y"), deliver_of("x")),
    ],
    name="causal-B2",
)

CAUSAL_B3 = ForbiddenPredicate.build(
    [
        Conjunct(send_of("x"), send_of("y")),
        Conjunct(send_of("y"), deliver_of("x")),
    ],
    name="causal-B3",
)

CAUSAL_FORMS = (CAUSAL_B1, CAUSAL_B2, CAUSAL_B3)

# ---------------------------------------------------------------------------
# Unsatisfiable two-variable predicates (Lemma 3.3): their specification
# sets equal the ground set X_async, so "do nothing" implements them.
# The paper lists five; we include the complete family of zero-β
# two-vertex cycles (the printed list contains a duplicate).
# ---------------------------------------------------------------------------


def _two_cycle(p: str, q: str, p2: str, q2: str, name: str) -> ForbiddenPredicate:
    term = {"s": send_of, "r": deliver_of}
    return ForbiddenPredicate.build(
        [
            Conjunct(term[p]("x"), term[q]("y")),
            Conjunct(term[p2]("y"), term[q2]("x")),
        ],
        name=name,
    )


ASYNC_A = _two_cycle("s", "s", "s", "s", "async-a")  # x.s▷y.s ∧ y.s▷x.s
ASYNC_B = _two_cycle("s", "s", "r", "s", "async-b")  # x.s▷y.s ∧ y.r▷x.s
ASYNC_C = _two_cycle("r", "r", "r", "s", "async-c")  # x.r▷y.r ∧ y.r▷x.s
ASYNC_E = _two_cycle("r", "r", "r", "r", "async-e")  # x.r▷y.r ∧ y.r▷x.r
ASYNC_F = _two_cycle("r", "s", "r", "s", "async-f")  # x.r▷y.s ∧ y.r▷x.s
ASYNC_G = _two_cycle("r", "s", "r", "r", "async-g")  # x.r▷y.s ∧ y.r▷x.r
ASYNC_H = _two_cycle("s", "r", "r", "s", "async-h")  # x.s▷y.r ∧ y.r▷x.s

ASYNC_FORMS = (ASYNC_A, ASYNC_B, ASYNC_C, ASYNC_E, ASYNC_F, ASYNC_G, ASYNC_H)

# ---------------------------------------------------------------------------
# The logically synchronous family (Lemma 3.1): crowns of every length.
# ---------------------------------------------------------------------------


def crown(k: int) -> ForbiddenPredicate:
    """``(x1.s ▷ x2.r) ∧ (x2.s ▷ x3.r) ∧ ... ∧ (xk.s ▷ x1.r)`` for ``k ≥ 2``."""
    if k < 2:
        raise ValueError("crowns need k >= 2 (got %d)" % k)
    variables = ["x%d" % (i + 1) for i in range(k)]
    conjuncts = [
        Conjunct(send_of(variables[i]), deliver_of(variables[(i + 1) % k]))
        for i in range(k)
    ]
    # The crown quantifies over *distinct* messages: with x1 = x2 the
    # 2-crown collapses to x.s ▷ x.r, which every delivered message
    # satisfies (the paper's ∀x_j ∈ M implicitly means distinct x_j).
    return ForbiddenPredicate.build(conjuncts, name="crown-%d" % k, distinct=True)


CROWN_FAMILY = PredicateFamily(name="crowns", generator=crown, k_min=2)


def _no_crown_oracle(run) -> bool:
    """Exact membership for the crown family: a crown of some length
    exists iff the run's message graph has a cycle (checked in polynomial
    time instead of searching every crown arity)."""
    from repro.runs.limit_sets import sync_numbering

    return sync_numbering(run) is not None


LOGICALLY_SYNCHRONOUS = Specification(
    name="logically-synchronous",
    families=(CROWN_FAMILY,),
    description="Time diagram redrawable with vertical message arrows; "
    "forbids every crown x1.s▷x2.r ∧ ... ∧ xk.s▷x1.r.",
    oracle=_no_crown_oracle,
    family_arity_cap=6,
)

CAUSAL_ORDERING = Specification(
    name="causal-ordering",
    predicates=(CAUSAL_B2,),
    description="x.s ▷ y.s implies not (y.r ▷ x.r).",
)

ASYNC_ORDERING = Specification(
    name="asynchronous-ordering",
    predicates=(ASYNC_A,),
    description="The ground set X_async (the forbidden pattern is "
    "unsatisfiable, so every run is admitted).",
)

# ---------------------------------------------------------------------------
# §6 discussion specifications.
# ---------------------------------------------------------------------------

FIFO = ForbiddenPredicate.build(
    [
        Conjunct(send_of("x"), send_of("y")),
        Conjunct(deliver_of("y"), deliver_of("x")),
    ],
    guards=[
        ProcessGuard(("x", "sender"), ("y", "sender")),
        ProcessGuard(("x", "receiver"), ("y", "receiver")),
    ],
    name="fifo",
)

FIFO_ORDERING = Specification(
    name="fifo",
    predicates=(FIFO,),
    description="Messages on the same channel are delivered in send order.",
)


def k_weaker_causal(k: int) -> ForbiddenPredicate:
    """§6: messages may be delivered out of causal order by at most ``k``.

    Forbidden: a causal chain of ``k + 2`` sends whose last message is
    delivered before the first
    (``s1 ▷ s2 ∧ ... ∧ s_{k+1} ▷ s_{k+2} ∧ r_{k+2} ▷ r1``).
    ``k = 0`` degenerates to causal ordering.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    count = k + 2
    variables = ["x%d" % (i + 1) for i in range(count)]
    conjuncts = [
        Conjunct(send_of(variables[i]), send_of(variables[i + 1]))
        for i in range(count - 1)
    ]
    conjuncts.append(Conjunct(deliver_of(variables[-1]), deliver_of(variables[0])))
    return ForbiddenPredicate.build(conjuncts, name="k-weaker-causal-%d" % k)


def k_weaker_causal_spec(k: int) -> Specification:
    return Specification(
        name="k-weaker-causal-%d" % k,
        predicates=(k_weaker_causal(k),),
        description="Delivery may disagree with causal send order by at most"
        " %d messages." % k,
    )


def channel_k_weaker(k: int) -> ForbiddenPredicate:
    """Per-channel window ordering: messages on one channel may be
    delivered out of order by at most ``k`` (FIFO is ``k = 0``)."""
    base = k_weaker_causal(k)
    variables = base.variables
    guards = []
    anchor = variables[0]
    for other in variables[1:]:
        guards.append(ProcessGuard((anchor, "sender"), (other, "sender")))
        guards.append(ProcessGuard((anchor, "receiver"), (other, "receiver")))
    return ForbiddenPredicate.build(
        base.conjuncts, guards=guards, name="channel-%d-window" % k
    )


LOCAL_FORWARD_FLUSH = ForbiddenPredicate.build(
    [
        Conjunct(send_of("x"), send_of("y")),
        Conjunct(deliver_of("y"), deliver_of("x")),
    ],
    guards=[
        ProcessGuard(("x", "sender"), ("y", "sender")),
        ProcessGuard(("x", "receiver"), ("y", "receiver")),
        ColorGuard("y", "red"),
    ],
    name="local-forward-flush",
)

GLOBAL_FORWARD_FLUSH = ForbiddenPredicate.build(
    [
        Conjunct(send_of("x"), send_of("y")),
        Conjunct(deliver_of("y"), deliver_of("x")),
    ],
    guards=[ColorGuard("y", "red")],
    name="global-forward-flush",
)

# "All red messages delivered before any blue message at each process":
# a single edge x -> y, no cycle -- a process cannot hold a blue message
# for red messages that have not even been sent yet (not implementable,
# the same knowing-the-future obstacle as SECOND_BEFORE_FIRST).
PRIORITY_CLASSES = ForbiddenPredicate.build(
    [Conjunct(deliver_of("x"), deliver_of("y"))],
    guards=[
        ColorGuard("x", "blue"),
        ColorGuard("y", "red"),
        ProcessGuard(("x", "receiver"), ("y", "receiver")),
    ],
    name="priority-classes",
)

GLOBAL_BACKWARD_FLUSH = ForbiddenPredicate.build(
    [
        Conjunct(send_of("y"), send_of("x")),
        Conjunct(deliver_of("x"), deliver_of("y")),
    ],
    guards=[ColorGuard("y", "red")],
    name="global-backward-flush",
)

LOCAL_BACKWARD_FLUSH = ForbiddenPredicate.build(
    [
        Conjunct(send_of("y"), send_of("x")),
        Conjunct(deliver_of("x"), deliver_of("y")),
    ],
    guards=[
        ProcessGuard(("x", "sender"), ("y", "sender")),
        ProcessGuard(("x", "receiver"), ("y", "receiver")),
        ColorGuard("y", "red"),
    ],
    name="local-backward-flush",
)

TWO_WAY_FLUSH = Specification(
    name="two-way-flush",
    predicates=(LOCAL_FORWARD_FLUSH, LOCAL_BACKWARD_FLUSH),
    description="A red flush message is a channel barrier in both "
    "directions (Ahuja's F-channels).",
)

MOBILE_HANDOFF = ForbiddenPredicate.build(
    [
        Conjunct(send_of("y"), deliver_of("x")),
        Conjunct(send_of("x"), deliver_of("y")),
    ],
    guards=[ColorGuard("x", "handoff")],
    name="mobile-handoff",
    distinct=True,
)

MOBILE_HANDOFF_SPEC = Specification(
    name="mobile-handoff",
    predicates=(MOBILE_HANDOFF,),
    description="§6: no message may cross a handoff message; every other "
    "message is ordered entirely before or after it.",
)

# "Deliver the second message before the first": the predicate graph has
# two parallel edges x -> y and no cycle, so the specification is not
# implementable (§6).
SECOND_BEFORE_FIRST = ForbiddenPredicate.build(
    [
        Conjunct(send_of("x"), send_of("y")),
        Conjunct(deliver_of("x"), deliver_of("y")),
    ],
    guards=[
        ProcessGuard(("x", "sender"), ("y", "sender")),
        ProcessGuard(("x", "receiver"), ("y", "receiver")),
    ],
    name="second-before-first",
)

# Example 1 of §4.2: six conjuncts over five variables -- the worked
# example for predicate graphs, cycles and β vertices.  Its graph has two
# cycles: the four-vertex cycle Example 2 analyses (through the conjunct
# x4.s ▷ x1.s) and a two-vertex cycle x1 <-> x4 (through x1.s ▷ x4.r).
EXAMPLE_1 = ForbiddenPredicate.build(
    [
        Conjunct(deliver_of("x1"), send_of("x2")),
        Conjunct(send_of("x2"), send_of("x3")),
        Conjunct(deliver_of("x3"), deliver_of("x4")),
        Conjunct(send_of("x4"), deliver_of("x5")),
        Conjunct(send_of("x4"), send_of("x1")),
        Conjunct(send_of("x1"), deliver_of("x4")),
    ],
    name="example-1",
)

# The red-marker ordering of §4.1: "messages should not overtake the red
# marker message".
RED_MARKER_NO_OVERTAKE = ForbiddenPredicate.build(
    [
        Conjunct(send_of("x"), send_of("y")),
        Conjunct(deliver_of("y"), deliver_of("x")),
    ],
    guards=[ColorGuard("y", "red")],
    name="red-marker-no-overtake",
)


# ---------------------------------------------------------------------------
# The catalogue registry.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """One named specification with the paper's expected classification."""

    name: str
    specification: Specification
    expected_class: str  # "tagless" | "tagged" | "general" | "not_implementable"
    paper_ref: str
    notes: str = ""


def _single(predicate: ForbiddenPredicate, description: str = "") -> Specification:
    return Specification(
        name=predicate.name or "anonymous",
        predicates=(predicate,),
        description=description,
    )


CATALOG: Tuple[CatalogEntry, ...] = (
    CatalogEntry(
        "asynchronous",
        ASYNC_ORDERING,
        "tagless",
        "§3.4",
        "Ground set; the trivial protocol suffices.",
    ),
    CatalogEntry(
        "causal-B1", _single(CAUSAL_B1), "tagged", "Lemma 3.2a"
    ),
    CatalogEntry(
        "causal-B2",
        CAUSAL_ORDERING,
        "tagged",
        "Lemma 3.2b",
        "The canonical causal-ordering predicate.",
    ),
    CatalogEntry(
        "causal-B3", _single(CAUSAL_B3), "tagged", "Lemma 3.2c"
    ),
    CatalogEntry(
        "logically-synchronous",
        LOGICALLY_SYNCHRONOUS,
        "general",
        "Lemma 3.1",
        "Every crown k >= 2 must be forbidden; control messages required.",
    ),
    CatalogEntry(
        "fifo",
        FIFO_ORDERING,
        "tagged",
        "§4.1 / §6",
        "Sequence numbers (a form of tagging) implement it.",
    ),
    CatalogEntry(
        "k-weaker-causal-1",
        k_weaker_causal_spec(1),
        "tagged",
        "§6",
    ),
    CatalogEntry(
        "k-weaker-causal-2",
        k_weaker_causal_spec(2),
        "tagged",
        "§6",
    ),
    CatalogEntry(
        "channel-1-window",
        _single(channel_k_weaker(1)),
        "tagged",
        "(new; per-channel variant of §6's k-weaker ordering)",
        "Same-channel deliveries may lag send order by at most one.",
    ),
    CatalogEntry(
        "local-forward-flush",
        _single(LOCAL_FORWARD_FLUSH),
        "tagged",
        "§6",
    ),
    CatalogEntry(
        "global-forward-flush",
        _single(GLOBAL_FORWARD_FLUSH),
        "tagged",
        "§6",
    ),
    CatalogEntry(
        "local-backward-flush",
        _single(LOCAL_BACKWARD_FLUSH),
        "tagged",
        "§2 (F-channels)",
    ),
    CatalogEntry(
        "global-backward-flush",
        _single(GLOBAL_BACKWARD_FLUSH),
        "tagged",
        "§2 (F-channels)",
    ),
    CatalogEntry(
        "priority-classes",
        _single(PRIORITY_CLASSES),
        "not_implementable",
        "(new; same obstacle as §6's second-before-first)",
        "Blue after all reds needs knowledge of future sends.",
    ),
    CatalogEntry(
        "two-way-flush",
        TWO_WAY_FLUSH,
        "tagged",
        "§2 (F-channels)",
        "Both directions of the flush barrier; still no control messages.",
    ),
    CatalogEntry(
        "red-marker-no-overtake",
        _single(RED_MARKER_NO_OVERTAKE),
        "tagged",
        "§4.1",
    ),
    CatalogEntry(
        "mobile-handoff",
        MOBILE_HANDOFF_SPEC,
        "general",
        "§6",
        "No message may cross the handoff; a 2-crown with a colour guard.",
    ),
    CatalogEntry(
        "second-before-first",
        _single(SECOND_BEFORE_FIRST),
        "not_implementable",
        "§6",
        "Parallel edges, no cycle: would require knowing the future.",
    ),
    CatalogEntry(
        "example-1",
        _single(EXAMPLE_1),
        "tagged",
        "§4.2 Examples 1-3",
        "The worked example: two cycles, both of order 1 with β vertex x4.",
    ),
) + tuple(
    CatalogEntry(
        predicate.name,
        _single(predicate),
        "tagless",
        "Lemma 3.3",
        "Unsatisfiable pattern; specification set equals X_async.",
    )
    for predicate in ASYNC_FORMS
)


def catalog_by_name() -> Dict[str, CatalogEntry]:
    return {entry.name: entry for entry in CATALOG}


def resolve_spec(text: str, distinct: bool = False, name: str = "cli") -> Specification:
    """The specification a user or a log's META record wrote down: a
    catalogue entry's name, a catalogued specification's own name (the
    two differ for a couple of aliases), or predicate DSL text (parsed
    into a one-predicate specification called ``name``)."""
    for entry in CATALOG:
        if text in (entry.name, entry.specification.name):
            return entry.specification
    from repro.predicates.dsl import parse_predicate

    predicate = parse_predicate(text, name=name, distinct=distinct)
    return Specification(name=name, predicates=(predicate,))
