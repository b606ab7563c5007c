"""Property-based tests for the partial-order substrate."""

import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.poset import CycleError, PartialOrder
from repro.poset.algorithms import (
    find_cycle,
    is_acyclic,
    linear_extensions,
    strongly_connected_components,
    topological_sort,
    transitive_closure,
    transitive_reduction,
)
from repro.poset.digraph import Digraph


@st.composite
def dags(draw, max_nodes=8):
    """Random DAGs: edges only from lower to higher labels."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    nodes = list(range(n))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ).filter(lambda e: e[0] < e[1]),
            max_size=3 * n,
        )
    )
    return Digraph(nodes=nodes, edges=edges)


@st.composite
def digraphs(draw, max_nodes=7):
    """Random directed graphs, possibly cyclic."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=3 * n,
        )
    )
    return Digraph(nodes=range(n), edges=edges)


class TestClosureProperties:
    @given(dags())
    def test_closure_is_idempotent(self, graph):
        once = transitive_closure(graph)
        twice = transitive_closure(once)
        assert once.edges() == twice.edges()

    @given(dags())
    def test_closure_contains_graph(self, graph):
        closure = transitive_closure(graph)
        for edge in graph.edges():
            assert edge in closure.edges() or edge[0] == edge[1]

    @given(dags())
    def test_reduction_round_trips_through_closure(self, graph):
        closure = transitive_closure(graph)
        reduction = transitive_reduction(closure)
        assert transitive_closure(reduction).edges() == closure.edges()

    @given(dags())
    def test_reduction_is_subset(self, graph):
        closure = transitive_closure(graph)
        assert set(transitive_reduction(closure).edges()) <= set(closure.edges())


class TestOrderProperties:
    @given(dags())
    def test_topological_sort_respects_all_edges(self, graph):
        order = topological_sort(graph)
        position = {node: i for i, node in enumerate(order)}
        for tail, head in graph.edges():
            assert position[tail] < position[head]

    @given(dags())
    def test_linear_extensions_all_valid(self, graph):
        count = 0
        for extension in linear_extensions(graph, limit=20):
            position = {node: i for i, node in enumerate(extension)}
            for tail, head in graph.edges():
                assert position[tail] < position[head]
            count += 1
        assert count >= 1

    @given(dags())
    def test_down_set_up_set_duality(self, graph):
        order = PartialOrder(elements=graph.nodes(), relations=graph.edges())
        for a in graph.nodes():
            for b in order.up_set(a):
                assert a in order.down_set(b)

    @given(dags())
    def test_less_is_a_strict_order(self, graph):
        order = PartialOrder(elements=graph.nodes(), relations=graph.edges())
        nodes = graph.nodes()
        for a in nodes:
            assert not order.less(a, a)
            for b in nodes:
                if order.less(a, b):
                    assert not order.less(b, a)
                for c in nodes:
                    if order.less(a, b) and order.less(b, c):
                        assert order.less(a, c)


class TestCycleDetectionProperties:
    @given(digraphs())
    def test_find_cycle_returns_real_cycle_or_proves_acyclic(self, graph):
        cycle = find_cycle(graph)
        if cycle is None:
            topological_sort(graph)  # must not raise
        else:
            assert cycle[0] == cycle[-1]
            for tail, head in zip(cycle, cycle[1:]):
                assert graph.has_edge(tail, head)

    @given(digraphs())
    def test_scc_partitions_nodes(self, graph):
        components = strongly_connected_components(graph)
        flattened = [node for component in components for node in component]
        assert sorted(flattened) == graph.nodes()

    @given(digraphs())
    def test_acyclic_iff_all_sccs_trivial(self, graph):
        has_self_loop = any(graph.has_edge(n, n) for n in graph.nodes())
        nontrivial = any(
            len(c) > 1 for c in strongly_connected_components(graph)
        )
        assert is_acyclic(graph) == (not nontrivial and not has_self_loop)


@st.composite
def order_scripts(draw, max_nodes=9):
    """A random DAG as a script of ``add_element`` / ``add_relation`` /
    query steps.  Edges follow a random rank, not the labels or the
    insertion order, so index order is not a topological order."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    rank = draw(st.permutations(range(n)))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]
    )
    step = st.one_of(
        st.tuples(st.just("element"), st.integers(0, n - 1)),
        pairs.map(lambda e: ("relation", tuple(sorted(e, key=rank.__getitem__)))),
        st.just(("query",)),
    )
    return draw(st.lists(step, max_size=4 * n))


def _check_against_reachability(order, elements, edges):
    """Every closure query of ``order`` equals brute-force reachability
    over the generating ``edges``."""
    successors = {element: set() for element in elements}
    for low, high in edges:
        successors[low].add(high)

    def reachable(start):
        seen, stack = set(), list(successors[start])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(successors[node])
        return seen

    above = {element: reachable(element) for element in elements}
    below = {
        element: {low for low in elements if element in above[low]}
        for element in elements
    }
    pairs = sorted((low, high) for low in elements for high in above[low])
    for a in elements:
        assert order.up_set(a) == above[a]
        assert order.down_set(a) == below[a]
        for b in elements:
            assert order.less(a, b) == (b in above[a])
    assert order.relation_pairs() == pairs
    assert order.relation_count() == len(pairs)
    assert order.minimal_elements() == sorted(e for e in elements if not below[e])
    assert order.maximal_elements() == sorted(e for e in elements if not above[e])
    absent = "absent"
    assert not any(order.less(e, absent) or order.less(absent, e) for e in elements)
    assert order.down_set(absent) == order.up_set(absent) == set()


class TestBitsetClosure:
    @settings(max_examples=200)
    @given(order_scripts())
    def test_interleaved_updates_match_reachability(self, script):
        # A query between two updates caches the closure, so the updates
        # after it take the incremental path and the first query the
        # lazy build.
        order, elements, edges = PartialOrder(), set(), []
        for step in script:
            if step[0] == "element":
                order.add_element(step[1])
                elements.add(step[1])
            elif step[0] == "relation":
                order.add_relation(*step[1])
                elements.update(step[1])
                edges.append(step[1])
            else:
                _check_against_reachability(order, elements, edges)
        _check_against_reachability(order, elements, edges)

    @given(dags(), st.data())
    def test_cycle_closed_after_caching_raises_on_next_query(self, graph, data):
        order = PartialOrder(elements=graph.nodes(), relations=graph.edges())
        pairs = order.relation_pairs()  # caches the closure
        assume(pairs)
        low, high = data.draw(st.sampled_from(pairs))
        order.add_relation(high, low)
        with pytest.raises(CycleError) as raised:
            order.less(low, high)
        cycle = raised.value.cycle
        assert cycle[0] == cycle[-1]
        assert all(
            (tail, head) in order.generating_pairs()
            for tail, head in zip(cycle, cycle[1:])
        )
        assert not order.is_valid()

    @given(dags(), st.booleans())
    def test_copy_is_independent_of_its_original(self, graph, cached):
        order = PartialOrder(elements=graph.nodes(), relations=graph.edges())
        if cached:
            order.validate()
        pairs = order.relation_pairs()
        clone = order.copy()
        assert clone == order
        top, bottom = len(graph), -1  # labels no DAG node carries
        for element in graph.nodes():
            clone.add_relation(element, top)
        order.add_relation(bottom, 0)
        assert order.relation_pairs() == sorted(
            pairs
            + [(bottom, 0)]
            + [(bottom, high) for low, high in pairs if low == 0]
        )
        assert top not in order and bottom not in clone
        assert clone.relation_pairs() == sorted(
            pairs + [(element, top) for element in graph.nodes()]
        )


def test_batch_fifo_verdict_keeps_no_quadratic_closure():
    """The closure of a 200-message run is 400 bitsets, not a set per
    event: a batch verdict's allocations stay under 1 MB."""
    from repro.predicates.catalog import FIFO_ORDERING
    from repro.protocols.registry import resolve
    from repro.simulation import random_traffic, run_simulation

    workload = random_traffic(3, 200, seed=1)
    run = run_simulation(resolve("fifo").factory, workload, seed=1).user_run
    tracemalloc.start()
    try:
        assert FIFO_ORDERING.admits(run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20, "batch verdict peaked at %d bytes" % peak
