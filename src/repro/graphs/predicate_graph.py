"""The predicate graph ``G_B(V, E)`` of a forbidden predicate."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.events import DELIVER, SEND, EventKind
from repro.poset import Digraph
from repro.predicates.ast import ForbiddenPredicate
from repro.predicates.guards import GROUP_SLOT, SlotClasses


@dataclass(frozen=True, order=True)
class LabeledEdge:
    """One edge of the multigraph: conjunct ``tail_var.p ▷ head_var.q``.

    ``tail``/``head`` are the vertices, ``tail_var``/``head_var`` the
    conjunct's own variables (they differ only for a copy of a grouped
    broadcast).  ``index`` is the position of the conjunct in the
    predicate, which keeps parallel edges distinct.
    """

    tail: str
    head: str
    p: EventKind  # kind at the tail (s or r)
    q: EventKind  # kind at the head (s or r)
    index: int
    tail_var: str
    head_var: str

    @property
    def is_self_loop(self) -> bool:
        return self.tail == self.head

    @property
    def is_degenerate(self) -> bool:
        """The ``x.s ▷ x.r`` self-loop (see DESIGN.md caveat)."""
        return self.is_self_loop and self.p is SEND and self.q is DELIVER

    def __repr__(self) -> str:
        return "%s.%s>%s.%s" % (
            self.tail_var,
            self.p.symbol,
            self.head_var,
            self.q.symbol,
        )


class PredicateGraph:
    """Multigraph over the predicate's messages, one edge per conjunct.

    Variables that group guards make equal bind copies of one broadcast
    (§7): one send, one delivery per site.  They share one vertex, named
    by the group's smallest variable; without group guards every
    variable is its own vertex.  ``slots`` keeps the guards' attribute
    classes, which say whether two copies are delivered at one site.
    """

    def __init__(self, predicate: ForbiddenPredicate):
        self.predicate = predicate
        self.slots = SlotClasses(predicate.guards)
        self.vertex_of: Dict[str, str] = {
            variable: min(
                other
                for other in predicate.variables
                if self.slots.same((variable, GROUP_SLOT), (other, GROUP_SLOT))
            )
            for variable in predicate.variables
        }
        self.vertices: Tuple[str, ...] = tuple(
            v for v in predicate.variables if self.vertex_of[v] == v
        )
        self.edges: List[LabeledEdge] = [
            LabeledEdge(
                tail=self.vertex_of[conjunct.left.variable],
                head=self.vertex_of[conjunct.right.variable],
                p=conjunct.left.kind,
                q=conjunct.right.kind,
                index=i,
                tail_var=conjunct.left.variable,
                head_var=conjunct.right.variable,
            )
            for i, conjunct in enumerate(predicate.conjuncts)
        ]

    @property
    def grouped(self) -> bool:
        """Whether some vertex stands for several copies of one broadcast."""
        return len(self.vertices) < len(self.predicate.variables)

    def parallel_edges(self, tail: str, head: str) -> List[LabeledEdge]:
        """Edges from ``tail`` to ``head`` (one per parallel conjunct)."""
        return [e for e in self.edges if e.tail == tail and e.head == head]

    def self_loops(self) -> List[LabeledEdge]:
        """Edges whose endpoints coincide."""
        return [e for e in self.edges if e.is_self_loop]

    def underlying_digraph(self, include_self_loops: bool = False) -> Digraph:
        """The simple digraph used for vertex-cycle enumeration."""
        graph = Digraph(nodes=self.vertices)
        for edge in self.edges:
            if edge.is_self_loop and not include_self_loops:
                continue
            graph.add_edge(edge.tail, edge.head)
        return graph

    def event_graph(self) -> Digraph:
        """Graph over event terms: conjunct edges plus implicit
        ``x.s → x.r`` for every variable, one send node per group.  The
        predicate's conjunction is satisfiable in *some* run iff this
        graph is acyclic."""

        def node(variable: str, kind: EventKind) -> Tuple[str, EventKind]:
            return (self.vertex_of[variable] if kind is SEND else variable, kind)

        graph = Digraph()
        for variable in self.predicate.variables:
            graph.add_edge(node(variable, SEND), node(variable, DELIVER))
        for edge in self.edges:
            graph.add_edge(node(edge.tail_var, edge.p), node(edge.head_var, edge.q))
        return graph

    def __repr__(self) -> str:
        return "PredicateGraph(V=%s, E=%s)" % (list(self.vertices), self.edges)
