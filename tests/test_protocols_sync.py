"""The two general (control-message) logically synchronous protocols."""

import pytest

from repro.events import Message
from repro.predicates.catalog import CAUSAL_ORDERING, LOGICALLY_SYNCHRONOUS
from repro.protocols import (
    CausalRstProtocol,
    SyncCoordinatorProtocol,
    SyncRendezvousProtocol,
)
from repro.protocols.base import make_factory
from repro.protocols.sync_rendezvous import NACK, REQ
from repro.runs.limit_sets import is_logically_synchronous, sync_numbering
from repro.simulation import (
    UniformLatency,
    broadcast_storm,
    client_server,
    random_traffic,
    run_simulation,
)
from repro.simulation.host import ProtocolHost
from repro.simulation.network import Network, Packet
from repro.simulation.sim import Simulator
from repro.simulation.trace import SimulationStats, Trace
from repro.verification import check_simulation
from repro.wal import WalSink, read_log, rebuild_protocol

ADVERSARIAL = UniformLatency(low=1.0, high=60.0)

SYNC_FACTORIES = [
    pytest.param(make_factory(SyncCoordinatorProtocol), id="coordinator"),
    pytest.param(make_factory(SyncRendezvousProtocol), id="rendezvous"),
]


@pytest.mark.parametrize("factory", SYNC_FACTORIES)
class TestSynchrony:
    @pytest.mark.parametrize("seed", range(6))
    def test_runs_are_logically_synchronous(self, factory, seed):
        result = run_simulation(
            factory,
            random_traffic(4, 40, seed=seed),
            seed=seed,
            latency=ADVERSARIAL,
        )
        outcome = check_simulation(result, LOGICALLY_SYNCHRONOUS)
        assert outcome.ok, outcome.summary()
        assert is_logically_synchronous(result.user_run)

    def test_numbering_witness_exists(self, factory):
        result = run_simulation(
            factory, random_traffic(3, 20, seed=2), seed=2
        )
        assert sync_numbering(result.user_run) is not None

    def test_sync_implies_causal(self, factory):
        result = run_simulation(
            factory,
            broadcast_storm(3, rounds=5, seed=1),
            seed=1,
            latency=ADVERSARIAL,
        )
        assert check_simulation(result, CAUSAL_ORDERING).ok

    def test_control_messages_are_used(self, factory):
        """Theorem 1.1: this class cannot exist without control traffic."""
        result = run_simulation(
            factory, random_traffic(4, 30, seed=3), seed=3
        )
        assert result.stats.control_messages > 0

    def test_client_server_liveness(self, factory):
        result = run_simulation(
            factory, client_server(3, 3, seed=0), seed=0, latency=ADVERSARIAL
        )
        assert result.delivered_all


class _Ctx:
    """What a rendezvous process needs of a host: its id, the control
    messages it sends and the delays of the timers it arms (which never
    fire here)."""

    def __init__(self, process_id=0):
        self.process_id = process_id
        self.controls = []
        self.delays = []

    def send_control(self, dst, payload):
        self.controls.append((dst, payload))

    def schedule(self, delay, action):
        self.delays.append(delay)


class TestControlOverheadShape:
    def test_coordinator_three_control_messages_per_transfer(self):
        workload = random_traffic(4, 30, seed=5)
        result = run_simulation(
            make_factory(SyncCoordinatorProtocol), workload, seed=5
        )
        # REQ + GRANT + DONE per remote transfer; transfers touching the
        # coordinator replace some legs with local calls.
        assert 0 < result.stats.control_messages <= 3 * 30

    def test_rendezvous_three_control_messages_plus_retries(self):
        workload = random_traffic(4, 30, seed=5)
        result = run_simulation(
            make_factory(SyncRendezvousProtocol), workload, seed=5
        )
        # REQ + ACK + FIN per transfer, plus REQ + NACK per refusal.
        overhead = result.stats.control_messages - 3 * 30
        assert overhead >= 0 and overhead % 2 == 0

    def test_rendezvous_backoff_differs_between_processes(self):
        """Two processes that refused each other must not draw the same
        retry delays, or they wake together and collide again -- over
        loopback TCP (no latency jitter) that livelock ran for tens of
        seconds and made the sync-rdv net tests flaky."""

        contexts = [_Ctx(0), _Ctx(1)]
        for ctx in contexts:
            protocol = make_factory(SyncRendezvousProtocol)(ctx.process_id, 2)
            for _ in range(5):
                protocol._retry_later(ctx)
        assert all(a != b for a, b in zip(contexts[0].delays, contexts[1].delays))

    def test_tagged_protocol_is_not_synchronous(self):
        """The converse: causal protocols do not produce only sync runs."""
        found_non_sync = False
        for seed in range(10):
            result = run_simulation(
                make_factory(CausalRstProtocol),
                random_traffic(4, 30, seed=seed),
                seed=seed,
                latency=ADVERSARIAL,
            )
            if not is_logically_synchronous(result.user_run):
                found_non_sync = True
                break
        assert found_non_sync


class TestRestartDuringBackoff:
    """The NACK backoff timer is volatile: neither a snapshot nor the redo
    log holds it, so a process restarted while backing off must retry
    from ``on_restart`` or its outbox head is never requested again."""

    def test_snapshot_restart_sends_the_request(self):
        protocol = SyncRendezvousProtocol()
        ctx = _Ctx()
        protocol.on_invoke(ctx, Message(id="m1", sender=0, receiver=1))
        protocol.on_control(ctx, 1, (NACK,))
        assert ctx.controls == [(1, (REQ,))]
        assert protocol.blocking_reason("m1").endswith("will retry")
        restarted = SyncRendezvousProtocol()
        restarted.restore(protocol.snapshot())
        ctx = _Ctx()
        restarted.on_restart(ctx)
        assert ctx.controls == [(1, (REQ,))]
        assert restarted.blocking_reason("m1") == "REQ sent to P1, awaiting ACK/NACK"

    def test_a_log_ending_after_a_nack_rebuilds_into_a_request(self, tmp_path):
        factory = make_factory(SyncRendezvousProtocol)
        sim = Simulator()
        network = Network(sim, 2)
        network.attach(1, lambda packet: None)  # P1 answers by hand below
        host = ProtocolHost(sim, network, Trace(2), SimulationStats(), 0, factory(0, 2))
        sink = WalSink(str(tmp_path), fsync=False)
        sink.attach_trace(host.trace)
        sink.attach_host(host)
        host.start()
        host.invoke(Message(id="m1", sender=0, receiver=1))
        host._on_packet(Packet(src=1, dst=0, kind="control", payload=(NACK,)))
        sink.close()
        rebuilt = rebuild_protocol(factory, 0, 2, read_log(str(tmp_path)).records)
        ctx = _Ctx()
        rebuilt.on_restart(ctx)
        assert ctx.controls == [(1, (REQ,))]


class TestStress:
    @pytest.mark.parametrize("factory", SYNC_FACTORIES)
    def test_many_seeds_no_deadlock(self, factory):
        for seed in range(12):
            result = run_simulation(
                factory,
                random_traffic(5, 25, seed=seed),
                seed=seed,
                latency=UniformLatency(low=1.0, high=30.0),
            )
            assert result.delivered_all
            assert is_logically_synchronous(result.user_run)
