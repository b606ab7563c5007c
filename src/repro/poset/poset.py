"""Strict finite partial orders with a bitset transitive closure.

Elements are numbered in insertion order, and the closure is one Python
``int`` per element: bit ``j`` of ``up[i]`` says element ``i`` < element
``j``, and ``down`` is the mirror.  A closure over ``E`` elements thus
keeps ``2·E²/8`` bytes, and ``less`` is a shift and a mask; the sets that
``down_set``, ``up_set`` and ``relation_pairs`` return are built from the
bits only when asked.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.poset.algorithms import (
    find_cycle,
    linear_extensions,
    topological_sort,
    transitive_reduction,
)
from repro.poset.digraph import Digraph, Node


class CycleError(ValueError):
    """Raised when generating relations are cyclic (not a partial order)."""

    def __init__(self, cycle: List[Node]):
        super().__init__("relation is cyclic: %s" % " -> ".join(map(repr, cycle)))
        self.cycle = cycle


def _indices(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    digits = bin(mask)[:1:-1]  # least significant digit first
    position = digits.find("1")
    while position >= 0:
        yield position
        position = digits.find("1", position + 1)


def _popcount(mask: int) -> int:
    # ``int.bit_count`` needs Python 3.10; this also runs on 3.9.
    return bin(mask).count("1")


class PartialOrder:
    """A strict partial order ``<`` over a finite set of elements.

    The order is stored as a DAG of generating pairs; ``less(a, b)`` answers
    whether ``a < b`` in the transitive closure, kept as one bitset of
    successors (``up``) and one of predecessors (``down``) per element.
    The first query builds both in one topological pass over the
    generating pairs.  After that the closure is maintained
    *incrementally*: adding the relation ``low < high`` ORs the
    descendants of ``high`` into the ``up`` bits of each ancestor of
    ``low`` and vice versa, so append-heavy construction (online replay,
    run builders) never pays a global recomputation.  An edge that would
    close a cycle drops back to the lazy path, so :meth:`validate` (or any
    query) still detects cycles introduced by ``add_relation``.
    """

    def __init__(
        self,
        elements: Iterable[Node] = (),
        relations: Iterable[Tuple[Node, Node]] = (),
    ):
        self._graph = Digraph()
        self._nodes: List[Node] = []
        self._index: Dict[Node, int] = {}
        # (up, down), or None until a query builds it.
        self._bits: Optional[Tuple[List[int], List[int]]] = None
        for element in elements:
            self.add_element(element)
        for low, high in relations:
            self.add_relation(low, high)

    # Construction -------------------------------------------------------------

    def add_element(self, element: Node) -> None:
        """Register an element (isolated until related)."""
        if element in self._index:
            return
        self._index[element] = len(self._nodes)
        self._nodes.append(element)
        self._graph.add_node(element)
        # An isolated element adds no order: a cached closure stays valid.
        if self._bits is not None:
            for row in self._bits:
                row.append(0)

    def add_relation(self, low: Node, high: Node) -> None:
        """Record ``low < high``.  Cycles are detected lazily."""
        if low == high:
            raise CycleError([low, high])
        self.add_element(low)
        self.add_element(high)
        self._graph.add_edge(low, high)
        if self._bits is None:
            return
        up, down = self._bits
        lo, hi = self._index[low], self._index[high]
        if up[hi] >> lo & 1:
            # The new edge closes a cycle; fall back to the lazy path so
            # the next query raises CycleError exactly as before.
            self._bits = None
            return
        if up[lo] >> hi & 1:
            return  # already implied; nothing new to propagate
        # New pairs are exactly (anc*(low) x desc*(high)): the edge is the
        # only way order can newly flow from low's side to high's side.
        descendants = up[hi] | 1 << hi
        ancestors = down[lo] | 1 << lo
        for i in _indices(ancestors):
            up[i] |= descendants
        for j in _indices(descendants):
            down[j] |= ancestors

    def copy(self) -> "PartialOrder":
        """An independent copy with the same generating relations."""
        clone = PartialOrder()
        clone._graph = self._graph.copy()
        clone._nodes = list(self._nodes)
        clone._index = dict(self._index)
        if self._bits is not None:
            # Ints are immutable, so copying the lists copies the closure.
            clone._bits = (list(self._bits[0]), list(self._bits[1]))
        return clone

    # Internal -------------------------------------------------------------

    def _closure(self) -> Tuple[List[int], List[int]]:
        """The ``(up, down)`` bitsets, built on first use."""
        if self._bits is None:
            self._bits = self._build()
        return self._bits

    def _build(self) -> Tuple[List[int], List[int]]:
        index = self._index
        try:
            order = [index[node] for node in topological_sort(self._graph)]
        except ValueError:
            raise CycleError(find_cycle(self._graph)) from None  # type: ignore[arg-type]
        successors = [
            [index[head] for head in self._graph.successors(node)]
            for node in self._nodes
        ]
        up = [0] * len(successors)
        for i in reversed(order):
            bits = 0
            for j in successors[i]:
                bits |= up[j] | 1 << j
            up[i] = bits
        down = [0] * len(successors)
        for i in order:
            below = down[i] | 1 << i
            for j in successors[i]:
                down[j] |= below
        return up, down

    def _members(self, mask: int) -> Set[Node]:
        nodes = self._nodes
        return {nodes[i] for i in _indices(mask)}

    # Queries --------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`CycleError` if the generating relation is cyclic."""
        self._closure()

    def is_valid(self) -> bool:
        """Whether the generating relation is acyclic."""
        try:
            self.validate()
        except CycleError:
            return False
        return True

    def elements(self) -> List[Node]:
        """All elements, sorted."""
        return self._graph.nodes()

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, element: Node) -> bool:
        return element in self._index

    def __iter__(self) -> Iterator[Node]:
        return iter(self._graph)

    def less(self, a: Node, b: Node) -> bool:
        """``True`` iff ``a < b`` (a happened before b); ``False`` when
        either is not an element."""
        up = self._closure()[0]
        i, j = self._index.get(a), self._index.get(b)
        return i is not None and j is not None and bool(up[i] >> j & 1)

    def leq(self, a: Node, b: Node) -> bool:
        """``a <= b``: equal or strictly before."""
        return a == b or self.less(a, b)

    def concurrent(self, a: Node, b: Node) -> bool:
        """``True`` iff ``a`` and ``b`` are distinct and incomparable."""
        return a != b and not self.less(a, b) and not self.less(b, a)

    def comparable(self, a: Node, b: Node) -> bool:
        """Whether ``a`` and ``b`` are related (either direction) or equal."""
        return a == b or self.less(a, b) or self.less(b, a)

    def down_set(self, element: Node) -> Set[Node]:
        """All strict predecessors of ``element`` (its causal past)."""
        down = self._closure()[1]
        i = self._index.get(element)
        return set() if i is None else self._members(down[i])

    def up_set(self, element: Node) -> Set[Node]:
        """All strict successors of ``element`` (its causal future)."""
        up = self._closure()[0]
        i = self._index.get(element)
        return set() if i is None else self._members(up[i])

    def minimal_elements(self) -> List[Node]:
        """Elements with no strict predecessor."""
        down = self._closure()[1]
        return sorted(node for node, below in zip(self._nodes, down) if not below)

    def maximal_elements(self) -> List[Node]:
        """Elements with no strict successor."""
        up = self._closure()[0]
        return sorted(node for node, above in zip(self._nodes, up) if not above)

    def generating_pairs(self) -> List[Tuple[Node, Node]]:
        """The relations as recorded (a superset of the covering relation,
        usually far smaller than the closure)."""
        return self._graph.edges()

    def relation_pairs(self) -> List[Tuple[Node, Node]]:
        """Every ordered pair ``(a, b)`` with ``a < b`` (the full closure)."""
        up, nodes = self._closure()[0], self._nodes
        return sorted(
            (low, nodes[j]) for low, above in zip(nodes, up) for j in _indices(above)
        )

    def relation_count(self) -> int:
        """The number of pairs ``a < b``: ``len(relation_pairs())``, counted
        from the bits without listing them."""
        return sum(map(_popcount, self._closure()[0]))

    def covering_pairs(self) -> List[Tuple[Node, Node]]:
        """The covering relation (transitive reduction of the closure)."""
        closure_graph = Digraph(nodes=self._graph.nodes())
        for low, high in self.relation_pairs():
            closure_graph.add_edge(low, high)
        return transitive_reduction(closure_graph).edges()

    # Order-wide operations ------------------------------------------------

    def a_linear_extension(self) -> List[Node]:
        """One linear extension (lexicographically least)."""
        self.validate()
        return topological_sort(self._graph)

    def all_linear_extensions(self, limit: Optional[int] = None) -> Iterator[List[Node]]:
        """Iterate linear extensions (optionally at most ``limit``)."""
        self.validate()
        return linear_extensions(self._graph, limit=limit)

    def restricted_to(self, elements: Iterable[Node]) -> "PartialOrder":
        """The induced sub-order on ``elements`` (closure is preserved)."""
        keep = set(elements)
        sub = PartialOrder(elements=sorted(keep, key=repr))
        for low, high in self.relation_pairs():
            if low in keep and high in keep:
                sub.add_relation(low, high)
        return sub

    def is_down_closed(self, subset: Iterable[Node]) -> bool:
        """``True`` iff ``subset`` contains the causal past of each member."""
        members = set(subset)
        return all(self.down_set(element) <= members for element in members)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartialOrder):
            return NotImplemented
        return (
            self.elements() == other.elements()
            and self.relation_pairs() == other.relation_pairs()
        )

    def __hash__(self) -> int:  # pragma: no cover - posets are mutable
        raise TypeError("PartialOrder is unhashable (mutable)")

    def __repr__(self) -> str:
        return "PartialOrder(elements=%d, relations=%d)" % (
            len(self),
            self.relation_count(),
        )
