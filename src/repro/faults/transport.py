"""A transport decorator that applies a :class:`FaultPlan` at transmit
time.

``FaultyTransport`` wraps *any* transport -- the seeded
:class:`~repro.simulation.network.LatencyTransport` or the model
checker's :class:`~repro.mc.world.ControlledTransport` -- and decides
each packet's fate before handing it down: drop it, duplicate it, delay
it by a spike, or let it pass.  Crash blackholing happens on the
*arrival* side: the inner transport resolves destination handlers
through a guarded proxy so that a packet in flight when its destination
crashes is silently discarded.

Faults consume a private RNG seeded from the plan, so enabling them
never perturbs the latency stream of the inner transport.
"""

from __future__ import annotations

import random
from typing import Callable, List, Set

from repro.faults.plan import FaultPlan
from repro.simulation.network import Network, Packet, Transport


class _GuardedNetwork:
    """Network proxy whose handlers blackhole arrivals at crashed hosts.

    The inner transport looks up ``handler_for(dst)`` when it schedules
    an arrival; routing the lookup through this proxy defers the
    down-check to arrival time, so packets already in flight when the
    destination crashes are lost (as they should be) rather than
    delivered to a dead process.
    """

    def __init__(self, network: Network, faulty: "FaultyTransport"):
        self._network = network
        self._faulty = faulty

    def __getattr__(self, name):
        return getattr(self._network, name)

    def handler_for(self, process_id: int) -> Callable[[Packet], None]:
        handler = self._network.handler_for(process_id)
        network = self._network
        faulty = self._faulty

        def guarded(packet: Packet) -> None:
            if process_id in faulty.down:
                faulty.crash_drops += 1
                faulty._note_user_loss(packet)
                faulty._emit(network, "fault.drop", packet, reason="crash")
                return
            handler(packet)

        return guarded


class FaultyTransport(Transport):
    """Applies a :class:`FaultPlan` on top of an inner transport.

    Composable by construction: it only calls ``inner.transmit`` (zero,
    one, or two times) and exposes the inner transport's ``latency`` /
    ``fifo_channels`` so the :class:`~repro.simulation.network.Network`
    facade keeps working.  Per-fault counters feed the run's
    :class:`~repro.faults.injector.FaultSummary`; the ``fault.*`` probes
    carry the same events to the bus.
    """

    def __init__(self, plan: FaultPlan, inner: Transport):
        self.plan = plan
        self.inner = inner
        self._rng = random.Random(plan.seed)
        #: Processes currently crashed (maintained by the FaultInjector).
        self.down: Set[int] = set()
        self.packets_dropped = 0
        self.packets_duplicated = 0
        self.partition_drops = 0
        self.crash_drops = 0
        self.spikes = 0
        #: Message ids of user packets lost to any fault, in loss order
        #: (the watchdog uses these to attribute stuck messages).
        self.dropped_user: List[str] = []

    # Facade delegation ------------------------------------------------------

    @property
    def latency(self):
        """The inner transport's latency model (``None`` if controlled)."""
        return getattr(self.inner, "latency", None)

    @property
    def fifo_channels(self) -> bool:
        """The inner transport's per-channel FIFO flag."""
        return bool(getattr(self.inner, "fifo_channels", False))

    # Crash state (driven by repro.faults.injector) --------------------------

    def mark_down(self, process_id: int) -> None:
        """Start blackholing arrivals at ``process_id``."""
        self.down.add(process_id)

    def mark_up(self, process_id: int) -> None:
        """Stop blackholing arrivals at ``process_id``."""
        self.down.discard(process_id)

    # Transport --------------------------------------------------------------

    def transmit(self, network: Network, packet: Packet) -> None:
        """Decide the packet's fate, then hand survivors to the inner
        transport (through the arrival guard)."""
        plan = self.plan
        now = network.sim.now
        if plan.partitioned(packet.src, packet.dst, now):
            self.partition_drops += 1
            self._note_user_loss(packet)
            self._emit(network, "fault.partition", packet)
            return
        guarded = _GuardedNetwork(network, self)
        action = plan.scripted_action(packet.src, packet.dst, packet.channel_seq)
        reason = "scripted"
        if action is None:
            reason = "random"
            # Three draws per packet, unconditionally, so the fault stream
            # stays aligned whatever the rates are.
            drop_roll = self._rng.random()
            dup_roll = self._rng.random()
            spike_roll = self._rng.random()
            if drop_roll < plan.drop_rate_for(packet.src, packet.dst):
                action = "drop"
            elif dup_roll < plan.dup_rate_for(packet.src, packet.dst):
                action = "dup"
            elif plan.spike_rate and spike_roll < plan.spike_rate:
                self.spikes += 1
                self._emit(
                    network, "fault.spike", packet, extra_delay=plan.spike_delay
                )
                network.sim.schedule(
                    plan.spike_delay,
                    lambda: self.inner.transmit(guarded, packet),
                )
                return
        if action == "drop":
            self.packets_dropped += 1
            self._note_user_loss(packet)
            self._emit(network, "fault.drop", packet, reason=reason)
            return
        if action == "dup":
            self.packets_duplicated += 1
            self._emit(network, "fault.dup", packet)
            self.inner.transmit(guarded, packet)
        self.inner.transmit(guarded, packet)

    # Internals --------------------------------------------------------------

    def _note_user_loss(self, packet: Packet) -> None:
        if packet.is_user and packet.message is not None:
            self.dropped_user.append(packet.message.id)

    def _emit(self, network: Network, probe: str, packet: Packet, **extra) -> None:
        bus = network.bus
        if bus is not None and bus.active:
            message = packet.message
            bus.emit(
                probe,
                network.sim.now,
                src=packet.src,
                dst=packet.dst,
                kind=packet.kind,
                message_id=message.id if message is not None else None,
                **extra,
            )
