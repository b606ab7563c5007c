"""The two tagged causal-ordering protocols (RST and SES)."""

import pytest

from repro.predicates.catalog import CAUSAL_ORDERING
from repro.protocols import CausalRstProtocol, CausalSesProtocol, TaglessProtocol
from repro.protocols.base import make_factory
from repro.runs.limit_sets import is_causally_ordered
from repro.simulation import (
    UniformLatency,
    broadcast_storm,
    client_server,
    random_traffic,
    run_simulation,
)
from repro.verification import check_simulation

ADVERSARIAL = UniformLatency(low=1.0, high=60.0)

CAUSAL_FACTORIES = [
    pytest.param(make_factory(CausalRstProtocol), id="rst"),
    pytest.param(make_factory(CausalSesProtocol), id="ses"),
]


@pytest.mark.parametrize("factory", CAUSAL_FACTORIES)
class TestCausalSafetyAndLiveness:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_traffic(self, factory, seed):
        result = run_simulation(
            factory,
            random_traffic(4, 50, seed=seed),
            seed=seed,
            latency=ADVERSARIAL,
        )
        outcome = check_simulation(result, CAUSAL_ORDERING)
        assert outcome.ok, outcome.summary()
        assert is_causally_ordered(result.user_run)

    @pytest.mark.parametrize("seed", range(3))
    def test_broadcast_storm(self, factory, seed):
        result = run_simulation(
            factory,
            broadcast_storm(4, rounds=6, seed=seed),
            seed=seed,
            latency=ADVERSARIAL,
        )
        assert check_simulation(result, CAUSAL_ORDERING).ok

    def test_client_server(self, factory):
        result = run_simulation(
            factory, client_server(3, 4, seed=2), seed=2, latency=ADVERSARIAL
        )
        assert check_simulation(result, CAUSAL_ORDERING).ok

    def test_no_control_messages(self, factory):
        result = run_simulation(
            factory, random_traffic(3, 30, seed=1), seed=1
        )
        assert result.stats.control_messages == 0


class TestNecessity:
    def test_tagless_violates_causal_ordering_somewhere(self):
        violated = False
        for seed in range(10):
            result = run_simulation(
                make_factory(TaglessProtocol),
                random_traffic(3, 40, seed=seed),
                seed=seed,
                latency=ADVERSARIAL,
            )
            if not check_simulation(result, CAUSAL_ORDERING).safe:
                violated = True
                break
        assert violated


class TestTagShapes:
    def test_rst_tag_is_n_by_n_matrix(self):
        n = 4
        result = run_simulation(
            make_factory(CausalRstProtocol),
            random_traffic(n, 30, seed=0),
            seed=0,
        )
        # n*n ints in one row-major list: one container overhead.
        expected = 8 + 8 * n * n
        assert result.stats.max_tag_bytes == expected

    def test_ses_tag_smaller_than_rst_on_sparse_traffic(self):
        workload = client_server(4, 4, seed=0)
        rst = run_simulation(
            make_factory(CausalRstProtocol), workload, seed=0
        )
        ses = run_simulation(
            make_factory(CausalSesProtocol), workload, seed=0
        )
        assert ses.stats.mean_tag_bytes < rst.stats.mean_tag_bytes

    def test_protocols_delay_deliveries_under_reordering(self):
        delayed = 0
        for seed in range(5):
            result = run_simulation(
                make_factory(CausalRstProtocol),
                broadcast_storm(4, rounds=6, seed=seed),
                seed=seed,
                latency=ADVERSARIAL,
            )
            delayed += result.stats.delayed_deliveries
        assert delayed > 0


class TestDeterminism:
    def test_same_seed_reproduces_run(self):
        def run():
            return run_simulation(
                make_factory(CausalRstProtocol),
                random_traffic(3, 25, seed=9),
                seed=9,
                latency=ADVERSARIAL,
            )

        assert run().user_run == run().user_run
