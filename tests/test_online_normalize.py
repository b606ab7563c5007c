"""Tests for online verification and predicate normalization."""

import pytest

from repro.predicates import parse_predicate
from repro.predicates.catalog import CAUSAL_B2, CAUSAL_ORDERING, FIFO, crown
from repro.predicates.normalize import canonicalize, canonical_signature, isomorphic
from repro.protocols import CausalRstProtocol, TaglessProtocol
from repro.protocols.base import make_factory
from repro.simulation import UniformLatency, random_traffic, run_simulation
from repro.verification import check_simulation
from repro.verification.engine import monitor_trace

ADVERSARIAL = UniformLatency(low=1.0, high=60.0)


class TestFirstViolation:
    def _violating_trace(self):
        for seed in range(15):
            result = run_simulation(
                make_factory(TaglessProtocol),
                random_traffic(3, 25, seed=seed),
                seed=seed,
                latency=ADVERSARIAL,
            )
            if not check_simulation(result, CAUSAL_ORDERING).safe:
                return result
        pytest.fail("no violating run found")

    def test_agrees_with_posthoc_checker(self):
        result = self._violating_trace()
        hit = monitor_trace(result.trace, CAUSAL_ORDERING)
        assert hit is not None
        assert hit.predicate_name == "causal-B2"
        assert set(hit.assignment) == {"x", "y"}

    def test_clean_runs_return_none(self):
        result = run_simulation(
            make_factory(CausalRstProtocol),
            random_traffic(3, 25, seed=1),
            seed=1,
            latency=ADVERSARIAL,
        )
        assert monitor_trace(result.trace, CAUSAL_ORDERING) is None

    def test_reported_event_is_the_earliest_completion(self):
        """Truncating the trace just before the reported event must leave
        no violation; including it must violate."""
        from repro.simulation.trace import Trace
        from repro.verification import check_run

        result = self._violating_trace()
        hit = monitor_trace(result.trace, CAUSAL_ORDERING)

        def replay(up_to_sequence):
            partial = Trace(result.trace.n_processes)
            for message in result.trace.messages():
                partial.register_message(message)
            for record in result.trace.records():
                if record.sequence <= up_to_sequence:
                    partial.record(record.time, record.process, record.event)
            return partial.to_user_run()

        hit_sequence = next(
            r.sequence for r in result.trace.records() if r.event == hit.event
        )
        before = replay(hit_sequence - 1)
        at = replay(hit_sequence)
        assert check_run(before, CAUSAL_B2).safe
        assert not check_run(at, CAUSAL_B2).safe

    def test_bare_predicate_accepted(self):
        result = self._violating_trace()
        assert monitor_trace(result.trace, CAUSAL_B2) is not None

    def test_repr_readable(self):
        result = self._violating_trace()
        hit = monitor_trace(result.trace, CAUSAL_ORDERING)
        assert "fires causal-B2" in repr(hit)


class TestNormalization:
    def test_renaming_is_isomorphic(self):
        a = parse_predicate("x.s < y.s & y.r < x.r")
        b = parse_predicate("p.s < q.s & q.r < p.r")
        assert isomorphic(a, b)
        assert canonical_signature(a) == canonical_signature(b)

    def test_conjunct_order_irrelevant(self):
        a = parse_predicate("x.s < y.s & y.r < x.r")
        b = parse_predicate("y.r < x.r & x.s < y.s")
        assert isomorphic(a, b)

    def test_different_shapes_not_isomorphic(self):
        a = parse_predicate("x.s < y.s & y.r < x.r")
        b = parse_predicate("x.s < y.s & y.s < x.r")
        assert not isomorphic(a, b)

    def test_distinctness_matters(self):
        assert not isomorphic(
            crown(2), parse_predicate("x.s < y.r & y.s < x.r")
        )
        assert isomorphic(
            crown(2), parse_predicate("a.s < b.r & b.s < a.r", distinct=True)
        )

    def test_guards_compared_up_to_renaming(self):
        a = FIFO
        b = parse_predicate(
            "sender(p) = sender(q), receiver(p) = receiver(q) ::"
            " p.s < q.s & q.r < p.r"
        )
        assert isomorphic(a, b)

    def test_guard_differences_detected(self):
        a = parse_predicate("color(y) = red :: x.s < y.s & y.r < x.r")
        b = parse_predicate("color(x) = red :: x.s < y.s & y.r < x.r")
        # Same shape but the colour sits on the other role: NOT isomorphic
        # (renaming both variables cannot map one onto the other).
        assert not isomorphic(a, b)

    def test_canonicalize_idempotent(self):
        for predicate in (CAUSAL_B2, FIFO, crown(3)):
            once = canonicalize(predicate)
            twice = canonicalize(once)
            assert canonical_signature(once) == canonical_signature(twice)
            assert isomorphic(predicate, once)

    def test_canonical_form_classifies_identically(self):
        from repro.core.classifier import classify

        for predicate in (CAUSAL_B2, FIFO, crown(2)):
            assert (
                classify(canonicalize(predicate)).protocol_class
                is classify(predicate).protocol_class
            )
