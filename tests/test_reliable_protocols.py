"""Acceptance sweep: every catalogue protocol, wrapped in the ARQ
sublayer, survives a lossy/duplicating network with its ordering
specification intact (ISSUE 4 acceptance criterion)."""

import pytest

from repro.faults import FaultPlan
from repro.predicates.catalog import (
    ASYNC_ORDERING,
    CAUSAL_ORDERING,
    FIFO_ORDERING,
    LOGICALLY_SYNCHRONOUS,
    TWO_WAY_FLUSH,
    k_weaker_causal_spec,
)
from repro.protocols import (
    CausalRstProtocol,
    CausalSesProtocol,
    FifoProtocol,
    FlushChannelProtocol,
    KWeakerCausalProtocol,
    SyncCoordinatorProtocol,
    SyncRendezvousProtocol,
    TaglessProtocol,
    make_factory,
    make_reliable,
)
from repro.simulation import random_traffic, run_simulation

LOSSY = {seed: FaultPlan(drop_rate=0.2, dup_rate=0.1, seed=seed) for seed in range(5)}

CATALOGUE = [
    ("tagless", make_factory(TaglessProtocol), ASYNC_ORDERING),
    ("fifo", make_factory(FifoProtocol), FIFO_ORDERING),
    ("causal-rst", make_factory(CausalRstProtocol), CAUSAL_ORDERING),
    ("causal-ses", make_factory(CausalSesProtocol), CAUSAL_ORDERING),
    ("flush", make_factory(FlushChannelProtocol), TWO_WAY_FLUSH),
    ("k-weaker", make_factory(KWeakerCausalProtocol, 2), k_weaker_causal_spec(2)),
    ("sync-coord", make_factory(SyncCoordinatorProtocol), LOGICALLY_SYNCHRONOUS),
    ("sync-rdv", make_factory(SyncRendezvousProtocol), LOGICALLY_SYNCHRONOUS),
]


@pytest.mark.parametrize(
    "name,factory,spec", CATALOGUE, ids=[entry[0] for entry in CATALOGUE]
)
@pytest.mark.parametrize("seed", sorted(LOSSY))
def test_reliable_wrapper_preserves_spec_under_loss(name, factory, spec, seed):
    """Reliable(P) at 20% drop + 10% dup delivers everything and admits
    the same specification P satisfies on a reliable network."""
    workload = random_traffic(3, 12, seed=seed, color_every=6)
    result = run_simulation(
        make_reliable(factory),
        workload,
        seed=seed,
        spec=spec,
        faults=LOSSY[seed],
    )
    assert result.delivered_all, result.undelivered
    assert result.first_violation is None, result.first_violation
    # The network really was hostile -- otherwise this proves nothing.
    faults = result.fault_summary
    assert faults.packets_dropped + faults.packets_duplicated > 0


def test_unwrapped_fifo_loses_messages_on_the_same_network():
    """Control experiment: the bare protocol on an equally lossy network
    loses exactly the runs where the coins destroyed a packet (the ARQ
    layer is load-bearing).  Drops only -- a duplicate would not merely
    misbehave but raise, since bare protocols do not even accept
    repeated arrivals."""
    lossy_runs = 0
    for seed in sorted(LOSSY):
        workload = random_traffic(3, 12, seed=seed, color_every=6)
        result = run_simulation(
            make_factory(FifoProtocol),
            workload,
            seed=seed,
            faults=FaultPlan(drop_rate=0.2, seed=seed),
        )
        # FIFO sends no control traffic, so every drop hits a user
        # message and (without retransmission) loses it for good.
        assert result.delivered_all == (result.fault_summary.packets_dropped == 0)
        if result.fault_summary.packets_dropped:
            lossy_runs += 1
            assert result.dropped_messages
    assert lossy_runs >= 3  # the coins really did bite most seeds
