"""Tests for the host's enforcement of the inhibitory-protocol contract."""

import pytest

from repro.events import Message
from repro.net.host import NetProtocolHost
from repro.protocols.base import Protocol
from repro.simulation.host import ProtocolError, ProtocolHost
from repro.simulation.network import FixedLatency, Network
from repro.simulation.sim import Simulator
from repro.simulation.trace import SimulationStats, Trace


class Rogue(Protocol):
    """A protocol whose hooks do whatever the test tells them to."""

    name = "rogue"

    def __init__(self):
        self.on_invoke_action = lambda ctx, m: ctx.release(m)
        self.on_message_action = lambda ctx, m, tag: ctx.deliver(m)

    def on_invoke(self, ctx, message):
        self.on_invoke_action(ctx, message)

    def on_user_message(self, ctx, message, tag):
        self.on_message_action(ctx, message, tag)


def rig(n=2, host_class=ProtocolHost):
    sim = Simulator()
    network = Network(sim, n, latency=FixedLatency(1.0))
    trace = Trace(n)
    stats = SimulationStats()
    protocols = [Rogue() for _ in range(n)]
    hosts = [
        host_class(sim, network, trace, stats, i, protocols[i])
        for i in range(n)
    ]
    return sim, hosts, protocols, trace, stats


M1 = Message(id="m1", sender=0, receiver=1)


class TestInvokePreconditions:
    def test_invoke_at_wrong_process(self):
        _, hosts, _, _, _ = rig()
        with pytest.raises(ProtocolError, match="sender"):
            hosts[1].invoke(M1)

    def test_double_invoke(self):
        sim, hosts, protocols, _, _ = rig()
        hosts[0].invoke(M1)
        with pytest.raises(ProtocolError, match="twice"):
            hosts[0].invoke(M1)


class TestReleasePreconditions:
    def test_release_before_invoke(self):
        _, hosts, _, _, _ = rig()
        with pytest.raises(ProtocolError, match="before it was invoked"):
            hosts[0].release(M1, None)

    def test_double_release(self):
        sim, hosts, protocols, _, _ = rig()

        def double(ctx, message):
            ctx.release(message)
            ctx.release(message)

        protocols[0].on_invoke_action = double
        with pytest.raises(ProtocolError, match="released twice"):
            hosts[0].invoke(M1)


#: The simulator's host and the one the TCP runtime runs share one
#: ``deliver``; only the latency accounting behind it differs.
host_classes = pytest.mark.parametrize(
    "host_class", [ProtocolHost, NetProtocolHost], ids=lambda cls: cls.__name__
)


class TestDeliverPreconditions:
    @host_classes
    def test_deliver_before_receive(self, host_class):
        _, hosts, _, _, _ = rig(host_class=host_class)
        with pytest.raises(ProtocolError, match="before it was received"):
            hosts[1].deliver(M1)

    @host_classes
    def test_double_deliver(self, host_class):
        sim, hosts, protocols, _, _ = rig(host_class=host_class)

        def double(ctx, message, tag):
            ctx.deliver(message)
            ctx.deliver(message)

        protocols[1].on_message_action = double
        hosts[0].invoke(M1)
        with pytest.raises(ProtocolError, match="delivered twice"):
            sim.run()


class TestAccounting:
    def test_full_transfer_recorded(self):
        sim, hosts, _, trace, stats = rig()
        hosts[0].invoke(M1)
        sim.run()
        assert trace.undelivered_messages() == []
        assert stats.user_messages == 1
        assert stats.deliveries == 1
        assert stats.registry.histogram("latency.delivery").values() == [1.0]
        assert stats.delayed_deliveries == 0

    def test_tag_bytes_counted(self):
        sim, hosts, protocols, _, stats = rig()
        protocols[0].on_invoke_action = lambda ctx, m: ctx.release(m, tag=[0] * 4)
        hosts[0].invoke(M1)
        sim.run()
        assert stats.tag_bytes_total == 8 + 32
        assert stats.max_tag_bytes == stats.tag_bytes_total

    def test_control_message_counted(self):
        sim, hosts, protocols, _, stats = rig()

        def chatty(ctx, message):
            ctx.send_control(1, ("hello",))
            ctx.release(message)

        protocols[0].on_invoke_action = chatty
        protocols[1].on_control = lambda ctx, src, payload: None
        hosts[0].invoke(M1)
        sim.run()
        assert stats.control_messages == 1
        assert stats.control_bytes > 0

    def test_delayed_delivery_counted(self):
        sim, hosts, protocols, _, stats = rig()

        def later(ctx, message, tag):
            ctx.schedule(5.0, lambda: ctx.deliver(message))

        protocols[1].on_message_action = later
        hosts[0].invoke(M1)
        sim.run()
        assert stats.delayed_deliveries == 1

    def test_unexpected_control_raises(self):
        sim, hosts, protocols, _, _ = rig()

        def chatty(ctx, message):
            ctx.send_control(1, "?")
            ctx.release(message)

        protocols[0].on_invoke_action = chatty
        hosts[0].invoke(M1)
        with pytest.raises(NotImplementedError):
            sim.run()
