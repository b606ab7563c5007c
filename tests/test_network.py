"""Tests for the simulated network."""

import pytest

from repro.events import Message
from repro.simulation.network import (
    FixedLatency,
    Network,
    Packet,
    ScriptedLatency,
    UniformLatency,
)
from repro.simulation.sim import Simulator


def build(n=2, **kwargs):
    sim = Simulator()
    network = Network(sim, n, **kwargs)
    inboxes = {i: [] for i in range(n)}
    for i in range(n):
        network.attach(i, lambda p, i=i: inboxes[i].append((network.sim.now, p)))
    return sim, network, inboxes


class TestRouting:
    def test_user_packet_arrives_at_destination(self):
        sim, network, inboxes = build(latency=FixedLatency(2.0))
        message = Message(id="m1", sender=0, receiver=1)
        network.send_user(0, 1, message)
        sim.run()
        assert len(inboxes[1]) == 1
        time, packet = inboxes[1][0]
        assert time == 2.0
        assert packet.message is message
        assert packet.is_user

    def test_control_packet(self):
        sim, network, inboxes = build()
        network.send_control(1, 0, ("token",))
        sim.run()
        _, packet = inboxes[0][0]
        assert not packet.is_user
        assert packet.payload == ("token",)

    def test_unknown_destination_rejected(self):
        sim, network, _ = build()
        with pytest.raises(ValueError):
            network.send_control(0, 9, "boom")

    def test_double_attach_rejected(self):
        sim, network, _ = build()
        with pytest.raises(ValueError):
            network.attach(0, lambda p: None)

    def test_handler_for_returns_attached_handler(self):
        sim, network, inboxes = build()
        handler = network.handler_for(1)
        handler(Packet(src=0, dst=1, kind="control", payload="x"))
        assert inboxes[1]

    def test_handler_for_missing_process_names_the_culprit(self):
        sim = Simulator()
        network = Network(sim, 3)
        network.attach(0, lambda p: None)
        network.attach(2, lambda p: None)
        with pytest.raises(ValueError) as excinfo:
            network.handler_for(1)
        text = str(excinfo.value)
        assert "process 1" in text
        assert "[0, 2]" in text  # says who *is* attached

    def test_handler_for_with_nothing_attached(self):
        network = Network(Simulator(), 2)
        with pytest.raises(ValueError, match="none"):
            network.handler_for(0)


class TestLatencyModels:
    def test_uniform_bounds(self):
        import random

        model = UniformLatency(low=1.0, high=5.0)
        rng = random.Random(0)
        for _ in range(100):
            sample = model.sample(rng, 0, 1)
            assert 1.0 <= sample < 5.0

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            UniformLatency(low=5.0, high=1.0)

    def test_scripted_plays_in_order_then_falls_back(self):
        import random

        model = ScriptedLatency([3.0, 1.0], default=7.0)
        rng = random.Random(0)
        samples = [model.sample(rng, 0, 1) for _ in range(4)]
        assert samples == [3.0, 1.0, 7.0, 7.0]

    def test_scripted_validation(self):
        with pytest.raises(ValueError, match="delays"):
            ScriptedLatency([1.0, -2.0])
        with pytest.raises(ValueError, match="default"):
            ScriptedLatency([1.0], default=-1.0)

    def test_scripted_reset_rewinds_the_cursor(self):
        import random

        model = ScriptedLatency([3.0, 1.0], default=7.0)
        rng = random.Random(0)
        assert [model.sample(rng, 0, 1) for _ in range(3)] == [3.0, 1.0, 7.0]
        model.reset()
        assert model.sample(rng, 0, 1) == 3.0

    def test_run_simulation_resets_scripted_latency(self):
        # Instance reuse across runs: run_simulation rewinds the model,
        # so the second run sees the script, not the fallback.
        from repro.protocols import FifoProtocol, make_factory
        from repro.simulation import run_simulation
        from repro.simulation.workloads import SendRequest, Workload

        workload = Workload(
            name="one",
            n_processes=2,
            requests=(SendRequest(time=0.0, sender=0, receiver=1),),
        )
        model = ScriptedLatency([5.0], default=99.0)
        times = []
        for _ in range(2):
            result = run_simulation(
                make_factory(FifoProtocol), workload, latency=model
            )
            times.append(result.stats.registry.get("latency.delivery").values()[0])
        assert times == [5.0, 5.0]

    def test_reordering_possible_without_fifo(self):
        sim, network, inboxes = build(
            latency=UniformLatency(low=1.0, high=50.0), seed=3
        )
        for i in range(20):
            network.send_user(0, 1, Message(id="m%d" % i, sender=0, receiver=1))
        sim.run()
        order = [p.message.id for _, p in inboxes[1]]
        assert order != ["m%d" % i for i in range(20)]

    def test_fifo_channels_preserve_order(self):
        sim, network, inboxes = build(
            latency=UniformLatency(low=1.0, high=50.0),
            seed=3,
            fifo_channels=True,
        )
        for i in range(20):
            network.send_user(0, 1, Message(id="m%d" % i, sender=0, receiver=1))
        sim.run()
        order = [p.message.id for _, p in inboxes[1]]
        assert order == ["m%d" % i for i in range(20)]


class TestDeterminism:
    def run_once(self, seed):
        sim, network, inboxes = build(
            latency=UniformLatency(low=1.0, high=10.0), seed=seed
        )
        for i in range(10):
            network.send_user(0, 1, Message(id="m%d" % i, sender=0, receiver=1))
        sim.run()
        return [(round(t, 9), p.message.id) for t, p in inboxes[1]]

    def test_same_seed_same_schedule(self):
        assert self.run_once(5) == self.run_once(5)

    def test_different_seed_differs(self):
        assert self.run_once(5) != self.run_once(6)

