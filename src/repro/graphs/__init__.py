"""Predicate graphs (§4.2): the decision structure for classification.

The predicate graph of ``B`` has one vertex per message variable (one per
broadcast for group-equal variables, §7) and one directed edge per
conjunct ``xj.p ▷ xk.q`` labeled ``(p, q)``.  Cycles and their β vertices
decide implementability and the protocol class.
"""

from repro.graphs.predicate_graph import LabeledEdge, PredicateGraph
from repro.graphs.cycles import (
    ResolvedCycle,
    resolved_cycles,
    simple_cycles_digraph,
)
from repro.graphs.beta import beta_vertices, cycle_order, is_beta_at
from repro.graphs.reduction import ReductionStep, reduce_cycle, cycle_to_predicate
from repro.graphs.dot import predicate_graph_to_dot, user_run_to_dot

__all__ = [
    "PredicateGraph",
    "LabeledEdge",
    "ResolvedCycle",
    "simple_cycles_digraph",
    "resolved_cycles",
    "beta_vertices",
    "cycle_order",
    "is_beta_at",
    "ReductionStep",
    "reduce_cycle",
    "cycle_to_predicate",
    "predicate_graph_to_dot",
    "user_run_to_dot",
]
