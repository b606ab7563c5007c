"""Cycle enumeration for predicate graphs.

``simple_cycles_digraph`` is Johnson's algorithm over a plain digraph; it
returns vertex cycles.  ``resolved_cycles`` expands each vertex cycle of a
*multigraph* into every choice of parallel edges (predicate graphs are
tiny, so the product is cheap), and also reports self-loop cycles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.poset.digraph import Digraph, Node
from repro.poset.algorithms import strongly_connected_components
from repro.graphs.predicate_graph import LabeledEdge, PredicateGraph
from repro.predicates.guards import SlotClasses


def simple_cycles_digraph(graph: Digraph) -> List[List[Node]]:
    """All simple directed cycles, Johnson-style.

    Self-loops appear as single-element cycles.  Each cycle is rotated to
    start at its smallest vertex; the result list is sorted.
    """
    cycles: List[List[Node]] = []

    # Self-loops first (Johnson's algorithm below works on loop-free graphs).
    work = graph.copy()
    for node in graph.nodes():
        if graph.has_edge(node, node):
            cycles.append([node])
            work.remove_edge(node, node)

    # Johnson's algorithm.
    nodes = work.nodes()
    for start in nodes:
        # Subgraph induced by start and all larger nodes, restricted to the
        # strongly connected component containing start.
        candidates = [n for n in work.nodes() if n >= start]
        sub = work.subgraph(candidates)
        component = None
        for scc in strongly_connected_components(sub):
            if start in scc and len(scc) > 1:
                component = set(scc)
                break
        if component is None:
            continue
        comp_graph = sub.subgraph(component)

        blocked: Set[Node] = set()
        blocked_map: Dict[Node, Set[Node]] = {n: set() for n in component}
        stack: List[Node] = []

        def unblock(node: Node) -> None:
            blocked.discard(node)
            while blocked_map[node]:
                other = blocked_map[node].pop()
                if other in blocked:
                    unblock(other)

        def circuit(node: Node) -> bool:
            found = False
            stack.append(node)
            blocked.add(node)
            for nxt in comp_graph.successors(node):
                if nxt == start:
                    cycles.append(list(stack))
                    found = True
                elif nxt not in blocked:
                    if circuit(nxt):
                        found = True
            if found:
                unblock(node)
            else:
                for nxt in comp_graph.successors(node):
                    blocked_map[nxt].add(node)
            stack.pop()
            return found

        circuit(start)

    canonical = []
    for cycle in cycles:
        pivot = cycle.index(min(cycle))
        canonical.append(cycle[pivot:] + cycle[:pivot])
    canonical.sort(key=lambda c: (len(c), c))
    return canonical


@dataclass(frozen=True)
class ResolvedCycle:
    """A cycle with concrete edges chosen among parallel conjuncts.

    ``vertices[i]`` is the tail of ``edges[i]``; ``edges[i]`` runs to
    ``vertices[(i + 1) % len]``.  Self-loop cycles have one vertex and one
    edge.  ``slots`` are the predicate's guard classes, which decide
    whether two copies of one broadcast meet at a site.
    """

    vertices: Tuple[str, ...]
    edges: Tuple[LabeledEdge, ...]
    slots: Optional[SlotClasses] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.vertices) != len(self.edges):
            raise ValueError("a cycle has as many edges as vertices")
        for i, edge in enumerate(self.edges):
            if edge.tail != self.vertices[i]:
                raise ValueError("edge %r does not start at %r" % (edge, self.vertices[i]))
            if edge.head != self.vertices[(i + 1) % len(self.vertices)]:
                raise ValueError("edge %r does not close the cycle" % (edge,))

    @property
    def length(self) -> int:
        return len(self.vertices)

    def incoming_edge(self, position: int) -> LabeledEdge:
        """The edge arriving at ``vertices[position]``."""
        return self.edges[(position - 1) % len(self.edges)]

    def outgoing_edge(self, position: int) -> LabeledEdge:
        """The edge leaving ``vertices[position]``."""
        return self.edges[position]

    @property
    def is_degenerate(self) -> bool:
        """A single ``x.s ▷ x.r`` self-loop (not a usable cycle)."""
        return self.length == 1 and self.edges[0].is_degenerate

    def __repr__(self) -> str:
        return "Cycle[%s]" % " ".join(repr(e) for e in self.edges)


def resolved_cycles(pgraph: PredicateGraph) -> List[ResolvedCycle]:
    """Every simple cycle of the multigraph with edges made explicit.

    For a vertex cycle ``v0 .. v_{k-1}`` every combination of parallel
    edges between consecutive vertices yields one :class:`ResolvedCycle`.
    """
    results: List[ResolvedCycle] = []
    vertex_cycles = simple_cycles_digraph(
        pgraph.underlying_digraph(include_self_loops=True)
    )
    for cycle in vertex_cycles:
        k = len(cycle)
        edge_options = [
            pgraph.parallel_edges(cycle[i], cycle[(i + 1) % k]) for i in range(k)
        ]
        for combo in itertools.product(*edge_options):
            results.append(
                ResolvedCycle(
                    vertices=tuple(cycle), edges=tuple(combo), slots=pgraph.slots
                )
            )
    return results
