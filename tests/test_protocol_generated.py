"""The generated tagged protocol: one engine, many order-1 specifications."""

import importlib.util
import json
import os

import pytest

from repro.predicates import parse_predicate
from repro.predicates.catalog import (
    CAUSAL_B2,
    CAUSAL_ORDERING,
    FIFO,
    FIFO_ORDERING,
    GLOBAL_FORWARD_FLUSH,
    LOCAL_FORWARD_FLUSH,
    RED_MARKER_NO_OVERTAKE,
)
from repro.protocols import CausalRstProtocol, GeneratedTaggedProtocol
from repro.protocols.base import make_factory
from repro.simulation import (
    UniformLatency,
    broadcast_storm,
    random_traffic,
    red_marker_stream,
    run_simulation,
)
from repro.verification import check_simulation

ADVERSARIAL = UniformLatency(low=1.0, high=60.0)


class TestConstruction:
    def test_needs_predicates(self):
        with pytest.raises(ValueError):
            GeneratedTaggedProtocol([])

    def test_single_predicate_accepted(self):
        protocol = GeneratedTaggedProtocol(CAUSAL_B2)
        assert "causal-B2" in protocol.name


class TestGeneratedCausal:
    @pytest.mark.parametrize("seed", range(4))
    def test_causal_spec(self, seed):
        result = run_simulation(
            make_factory(GeneratedTaggedProtocol, [CAUSAL_B2]),
            random_traffic(3, 25, seed=seed),
            seed=seed,
            latency=ADVERSARIAL,
        )
        outcome = check_simulation(result, CAUSAL_ORDERING)
        assert outcome.ok, outcome.summary()

    def test_agrees_with_rst_on_safety(self):
        workload = broadcast_storm(3, rounds=4, seed=1)
        generated = run_simulation(
            make_factory(GeneratedTaggedProtocol, [CAUSAL_B2]),
            workload,
            seed=1,
            latency=ADVERSARIAL,
        )
        rst = run_simulation(
            make_factory(CausalRstProtocol), workload, seed=1, latency=ADVERSARIAL
        )
        assert check_simulation(generated, CAUSAL_ORDERING).ok
        assert check_simulation(rst, CAUSAL_ORDERING).ok


class TestGeneratedFifo:
    @pytest.mark.parametrize("seed", range(4))
    def test_fifo_spec(self, seed):
        result = run_simulation(
            make_factory(GeneratedTaggedProtocol, [FIFO]),
            random_traffic(3, 25, seed=seed),
            seed=seed,
            latency=ADVERSARIAL,
        )
        outcome = check_simulation(result, FIFO_ORDERING)
        assert outcome.ok, outcome.summary()


class TestGeneratedFlush:
    @pytest.mark.parametrize(
        "predicate", [LOCAL_FORWARD_FLUSH, GLOBAL_FORWARD_FLUSH, RED_MARKER_NO_OVERTAKE],
        ids=lambda p: p.name,
    )
    def test_marker_specs(self, predicate):
        for seed in range(3):
            result = run_simulation(
                make_factory(GeneratedTaggedProtocol, [predicate]),
                red_marker_stream(25, marker_every=5, seed=seed),
                seed=seed,
                latency=ADVERSARIAL,
            )
            outcome = check_simulation(result, predicate)
            assert outcome.ok, outcome.summary()


class TestGeneratedWindowOrdering:
    """The new per-channel window spec, end to end via synthesis."""

    def test_window_spec_satisfied(self):
        from repro.predicates.catalog import channel_k_weaker

        window = channel_k_weaker(1)
        for seed in range(3):
            result = run_simulation(
                make_factory(GeneratedTaggedProtocol, [window]),
                random_traffic(3, 14, seed=seed),
                seed=seed,
                latency=ADVERSARIAL,
            )
            outcome = check_simulation(result, window)
            assert outcome.ok, outcome.summary()

    def test_window_allows_bounded_reordering(self):
        """Looser than FIFO: some run shows a single-step inversion."""
        from repro.predicates.catalog import channel_k_weaker
        from repro.runs.metrics import run_metrics

        window = channel_k_weaker(1)
        inverted = 0
        for seed in range(6):
            result = run_simulation(
                make_factory(GeneratedTaggedProtocol, [window]),
                random_traffic(2, 16, seed=seed),
                seed=seed,
                latency=ADVERSARIAL,
            )
            assert check_simulation(result, window).ok
            inverted += run_metrics(result.user_run).reordered_channel_pairs
        assert inverted > 0


class TestGeneratedMultiSpec:
    def test_conjunction_of_fifo_and_causal(self):
        result = run_simulation(
            make_factory(GeneratedTaggedProtocol, [FIFO, CAUSAL_B2]),
            random_traffic(3, 20, seed=2),
            seed=2,
            latency=ADVERSARIAL,
        )
        assert check_simulation(result, FIFO_ORDERING).ok
        assert check_simulation(result, CAUSAL_ORDERING).ok


class TestSingleFutureApplicability:
    """The static shape check that picks exact vs causal-fallback mode."""

    def test_canonical_shapes_are_exact(self):
        from repro.protocols.generated import single_future_applicable
        from repro.predicates.catalog import (
            CAUSAL_B2,
            GLOBAL_FORWARD_FLUSH,
            k_weaker_causal,
        )

        for predicate in (CAUSAL_B2, FIFO, GLOBAL_FORWARD_FLUSH,
                          k_weaker_causal(2)):
            assert single_future_applicable(predicate), predicate.name

    def test_b1_and_b3_need_causal_fallback(self):
        from repro.protocols.generated import single_future_applicable
        from repro.predicates.catalog import CAUSAL_B1, CAUSAL_B3

        # B1 has three delivery positions; B3's send commits the pattern.
        assert not single_future_applicable(CAUSAL_B1)
        assert not single_future_applicable(CAUSAL_B3)
        assert GeneratedTaggedProtocol([CAUSAL_B1]).causal_fallback
        assert GeneratedTaggedProtocol([CAUSAL_B3]).causal_fallback

    def test_exact_mode_selected_for_fifo(self):
        assert not GeneratedTaggedProtocol([FIFO]).causal_fallback

    def test_b1_protocol_satisfies_its_spec(self):
        from repro.predicates.catalog import CAUSAL_B1

        for seed in range(4):
            result = run_simulation(
                make_factory(GeneratedTaggedProtocol, [CAUSAL_B1]),
                random_traffic(3, 20, seed=seed),
                seed=seed,
                latency=ADVERSARIAL,
            )
            outcome = check_simulation(result, CAUSAL_B1)
            assert outcome.ok, outcome.summary()


class TestGeneratedProperties:
    def test_no_control_messages(self):
        result = run_simulation(
            make_factory(GeneratedTaggedProtocol, [CAUSAL_B2]),
            random_traffic(3, 15, seed=0),
            seed=0,
        )
        assert result.stats.control_messages == 0

    def test_tags_grow_with_history(self):
        result = run_simulation(
            make_factory(GeneratedTaggedProtocol, [CAUSAL_B2]),
            random_traffic(3, 25, seed=0),
            seed=0,
        )
        # Knowledge-complete tags dwarf the compressed hand-written ones.
        assert result.stats.max_tag_bytes > result.stats.mean_tag_bytes > 8

    def test_order_zero_predicate_never_delays(self):
        unsat = parse_predicate("x.s < y.s & y.s < x.s", name="async-a")
        result = run_simulation(
            make_factory(GeneratedTaggedProtocol, [unsat]),
            random_traffic(3, 20, seed=4),
            seed=4,
            latency=ADVERSARIAL,
        )
        assert result.delivered_all
        assert result.stats.delayed_deliveries == 0


# -- parity with the implementation this one replaced ---------------------------


def _load_recorder():
    path = os.path.join(
        os.path.dirname(__file__), "data", "generated_golden", "record.py"
    )
    spec = importlib.util.spec_from_file_location("generated_golden_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RECORDER = _load_recorder()
with open(RECORDER.GOLDEN) as _handle:
    GOLDEN = json.load(_handle)


class TestSameRunsAsThePrivateSearch:
    """``data/generated_golden/golden.json`` was recorded at the last
    commit where this protocol kept its own poset and its own three-valued
    backtracking search; the engine-backed rule makes the same decisions."""

    def test_every_recorded_case_is_still_a_case(self):
        assert sorted(GOLDEN) == sorted(RECORDER.CASES)

    @pytest.mark.parametrize("case", RECORDER.CASES)
    def test_timed_trace_matches_the_parent_commit(self, case):
        """Every ``(time, process, kind, message)`` row, hence the
        delivery order, and the delivered / delayed counts -- for the
        exact rule and the causal fallback alike."""
        assert RECORDER.digest(case) == GOLDEN[case]
