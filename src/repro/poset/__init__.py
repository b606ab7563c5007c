"""Partial-order substrate shared by runs and predicate evaluation.

A :class:`PartialOrder` stores a finite strict partial order as a DAG of
*generating* edges and answers reachability (``h -> g`` / ``h ▷ g``)
queries from a cached transitive closure, kept as one ``int`` bitset of
successors and one of predecessors per element.  It is the common data
structure under system runs, user-view runs, and the constructed runs of
the theorem proofs.
"""

from repro.poset.digraph import Digraph
from repro.poset.poset import CycleError, PartialOrder
from repro.poset.algorithms import (
    find_cycle,
    linear_extensions,
    topological_sort,
    transitive_closure,
    transitive_reduction,
)

__all__ = [
    "Digraph",
    "PartialOrder",
    "CycleError",
    "find_cycle",
    "topological_sort",
    "linear_extensions",
    "transitive_closure",
    "transitive_reduction",
]
