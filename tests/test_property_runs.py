"""Property-based tests for runs, projection and limit sets."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.events import Event, EventKind, Message
from repro.poset.algorithms import is_acyclic
from repro.runs.construction import is_realizable, system_run_from_user_run
from repro.runs.limit_sets import (
    causal_violations,
    is_async,
    is_causally_ordered,
    is_logically_synchronous,
    message_graph,
    sync_numbering,
)
from repro.runs.system_run import SystemRun, causal_past, in_x_u
from repro.runs.user_run import UserRun


@st.composite
def random_user_runs(draw, max_processes=4, max_messages=5):
    """Realizable complete runs built from a random interleaving."""
    n = draw(st.integers(2, max_processes))
    m = draw(st.integers(1, max_messages))
    messages = []
    for i in range(m):
        sender = draw(st.integers(0, n - 1))
        receiver = draw(st.integers(0, n - 1).filter(lambda r: True))
        if receiver == sender:
            receiver = (receiver + 1) % n
        color = draw(st.sampled_from([None, None, None, "red"]))
        messages.append(
            Message(id="m%d" % (i + 1), sender=sender, receiver=receiver, color=color)
        )
    # Random global interleaving: sends in random order, each delivery at
    # a random later point.
    events = []
    for message in messages:
        events.append(Event.send(message.id))
    draw(st.randoms(use_true_random=False)).shuffle(events)
    sequence = []
    for event in events:
        sequence.append(event)
    # Insert deliveries after their sends.
    rng = draw(st.randoms(use_true_random=False))
    for message in messages:
        send_index = sequence.index(Event.send(message.id))
        insert_at = rng.randint(send_index + 1, len(sequence))
        sequence.insert(insert_at, Event.deliver(message.id))
    by_message = {message.id: message for message in messages}
    sequences = {p: [] for p in range(n)}
    for event in sequence:
        message = by_message[event.message_id]
        process = (
            message.sender if event.kind is EventKind.SEND else message.receiver
        )
        sequences[process].append(event)
    return UserRun.from_process_sequences(messages, sequences)


class TestRunInvariants:
    @given(random_user_runs())
    def test_generated_runs_are_valid_and_complete(self, run):
        run.validate()
        assert run.is_complete()
        assert is_async(run)

    @given(random_user_runs())
    def test_send_precedes_delivery(self, run):
        for mid in run.message_ids():
            assert run.before(Event.send(mid), Event.deliver(mid))

    @given(random_user_runs())
    def test_realizable_and_round_trips_through_figure5(self, run):
        assert is_realizable(run)
        system = system_run_from_user_run(run)
        assert system.users_view() == run
        assert in_x_u(system)

    @given(random_user_runs())
    def test_causal_past_is_down_closed_prefix(self, run):
        system = system_run_from_user_run(run)
        order = system.happened_before()
        for process in range(system.n_processes):
            past = causal_past(system, process)
            assert past.is_prefix_of(system)
            kept = set(past.events())
            for event in kept:
                assert order.down_set(event) <= kept


class TestLimitSetProperties:
    @given(random_user_runs())
    def test_hierarchy(self, run):
        if is_logically_synchronous(run):
            assert is_causally_ordered(run)
        if is_causally_ordered(run):
            assert is_async(run)

    @given(random_user_runs())
    def test_sync_numbering_is_a_witness(self, run):
        numbering = sync_numbering(run)
        if numbering is None:
            return
        for x in run.message_ids():
            for y in run.message_ids():
                if x == y:
                    continue
                for h in (Event.send, Event.deliver):
                    for f in (Event.send, Event.deliver):
                        if run.before(h(x), f(y)):
                            assert numbering[x] < numbering[y]

    @given(random_user_runs(max_messages=8))
    def test_sync_numbering_agrees_with_the_message_graph(self, run):
        """The contracted generating relation is acyclic exactly when
        the message graph is, and its order is a SYNC numbering:
        ``x.h ▷ y.f ⇒ T(x) < T(y)``."""
        numbering = sync_numbering(run)
        graph = message_graph(run)
        assert (numbering is None) == (not is_acyclic(graph))
        if numbering is not None:
            assert sorted(numbering) == run.message_ids()
            for x, y in graph.edges():  # x.h ▷ y.f for some h, f
                assert numbering[x] < numbering[y]

    @given(random_user_runs())
    def test_message_graph_matches_direct_definition(self, run):
        graph = message_graph(run)
        ids = run.message_ids()
        for x in ids:
            for y in ids:
                if x == y:
                    continue
                expected = any(
                    run.before(Event(x, h), Event(y, f))
                    for h in (EventKind.SEND, EventKind.DELIVER)
                    for f in (EventKind.SEND, EventKind.DELIVER)
                )
                assert graph.has_edge(x, y) == expected

    @given(random_user_runs())
    def test_causal_violations_symmetrically_absent(self, run):
        violations = set(causal_violations(run))
        for x, y in violations:
            # x sent before y and delivered after it; the reverse pair
            # cannot also be a violation.
            assert (y, x) not in violations


class TestMetricsProperties:
    @given(random_user_runs())
    def test_pair_counts_partition(self, run):
        from repro.runs.metrics import run_metrics

        metrics = run_metrics(run)
        n = metrics.events
        assert metrics.comparable_pairs + metrics.concurrent_pairs == n * (n - 1) // 2
        assert 0.0 <= metrics.concurrency_ratio <= 1.0

    @given(random_user_runs(max_messages=8))
    def test_pair_counts_match_the_pair_definition(self, run):
        from itertools import combinations

        from repro.runs.metrics import run_metrics

        comparable = sum(
            run.before(a, b) or run.before(b, a)
            for a, b in combinations(run.events(), 2)
        )
        metrics = run_metrics(run)
        assert metrics.comparable_pairs == comparable
        assert metrics.concurrent_pairs == (
            len(run) * (len(run) - 1) // 2 - comparable
        )

    @given(random_user_runs())
    def test_width_is_the_largest_antichain_of_one_depth(self, run):
        from collections import defaultdict
        from itertools import combinations

        from repro.clocks import assign_lamport_clocks
        from repro.runs.metrics import run_metrics

        levels = defaultdict(list)
        for event, clock in assign_lamport_clocks(run).items():
            levels[clock].append(event)
        for level in levels.values():
            assert all(run.concurrent(a, b) for a, b in combinations(level, 2))
        assert run_metrics(run).width == max(map(len, levels.values()), default=0)

    @given(random_user_runs())
    def test_chain_and_width_bounds(self, run):
        from repro.runs.metrics import run_metrics

        metrics = run_metrics(run)
        if metrics.events:
            assert 1 <= metrics.longest_chain <= metrics.events
            # The greedy width is a lower bound on the true width, which
            # Mirsky's theorem relates to the chain cover; here we only
            # assert its range.
            assert 1 <= metrics.width <= metrics.events
            assert metrics.parallelism >= 1.0

    @given(random_user_runs())
    def test_vector_clocks_agree_with_metrics_chain(self, run):
        from repro.clocks import assign_lamport_clocks
        from repro.runs.metrics import run_metrics

        metrics = run_metrics(run)
        clocks = assign_lamport_clocks(run)
        assert metrics.longest_chain == max(clocks.values(), default=0)

    @given(random_user_runs())
    def test_serialization_round_trip(self, run):
        from repro.simulation.persistence import (
            user_run_from_dict,
            user_run_to_dict,
        )

        assert user_run_from_dict(user_run_to_dict(run)) == run
