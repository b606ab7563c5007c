"""Timed fault actions against simulated protocol hosts.

A ``kill`` marks the host down (arrivals blackhole, timers die with its
crash epoch); its restart recovers by WAL redo, as a live host does.
The :class:`~repro.faults.transport.FaultyTransport` cuts what link
faults and pauses cut; a sever's heal calls ``on_link_restored`` on
each source, as a live re-dial does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.faults.plan import FaultAction, FaultPlan
from repro.faults.transport import FaultyTransport
from repro.simulation.sim import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.bus import Bus
    from repro.simulation.host import ProtocolHost


@dataclass(frozen=True)
class FaultSummary:
    """What the fault layer did to one run (for ``summary()`` blocks)."""

    packets_dropped: int = 0
    packets_duplicated: int = 0
    partition_drops: int = 0  # cut by a link fault or a pause
    crash_drops: int = 0
    spikes: int = 0
    crashes: int = 0
    restarts: int = 0


class FaultInjector:
    """Drives the timed actions of a plan against the hosts.

    ``wal`` is the :class:`~repro.wal.WalSink` the hosts log their
    inputs to; a restart rebuilds the protocol from it with
    ``protocol_factory``.
    """

    def __init__(
        self,
        sim: Simulator,
        transport: FaultyTransport,
        hosts: "Dict[int, ProtocolHost]",
        wal: Any,
        protocol_factory: Callable[[int, int], Any],
        bus: "Optional[Bus]" = None,
    ):
        self.sim = sim
        self.transport = transport
        self.hosts = hosts
        self._wal = wal
        self._factory = protocol_factory
        self._bus = bus
        self._deferred: Dict[int, List[Callable[[], None]]] = {}
        self.crashes = 0
        self.restarts = 0

    def install(self, plan: FaultPlan) -> None:
        """Schedule every kill, restart and sever heal of ``plan``."""
        for action in plan.actions:
            for process in (action.target, action.src):
                if process is not None and process not in self.hosts:
                    raise ValueError(
                        "fault scheduled for unknown process %d" % process
                    )
            if action.kind == "kill":
                self._at(action.at, lambda a=action: self._crash(a.target))
                if action.ends_at is not None:
                    self._at(action.ends_at, lambda a=action: self._restart(a.target))
            elif action.kind == "sever" and action.ends_at is not None:
                self._at(action.ends_at, lambda a=action: self._restore_link(a))

    def defer_invoke(self, process_id: int, thunk: Callable[[], None]) -> None:
        """Queue a user invoke that hit a crashed process; it is replayed
        when the process restarts (or lost forever if it never does)."""
        self._deferred.setdefault(process_id, []).append(thunk)

    def summary(self) -> FaultSummary:
        """The combined transport + injector fault counters."""
        transport = self.transport
        return FaultSummary(
            packets_dropped=transport.packets_dropped,
            packets_duplicated=transport.packets_duplicated,
            partition_drops=transport.partition_drops,
            crash_drops=transport.crash_drops,
            spikes=transport.spikes,
            crashes=self.crashes,
            restarts=self.restarts,
        )

    # Internals --------------------------------------------------------------

    def _at(self, time: float, action: Callable[[], None]) -> None:
        self.sim.schedule(max(0.0, time - self.sim.now), action)

    def _restore_link(self, action: FaultAction) -> None:
        for src in action.sources(len(self.hosts)):
            host = self.hosts[src]
            if not host.down:
                host.protocol.on_link_restored(host.ctx, action.target)

    def _crash(self, process_id: int) -> None:
        host = self.hosts[process_id]
        if host.down:
            return
        host.down = True
        self.transport.down.add(process_id)
        self.crashes += 1
        bus = self._bus
        if bus is not None and bus.active:
            bus.emit("crash", self.sim.now, process=process_id)

    def _restart(self, process_id: int) -> None:
        from repro.wal import rebuild_protocol

        host = self.hosts[process_id]
        if not host.down:
            return
        host.down = False
        host.crash_epoch += 1
        self.transport.down.discard(process_id)
        # The log, not the dead instance, is the recovery authority.
        host.protocol = rebuild_protocol(
            self._factory, process_id, host.n_processes, self._wal.reload().records
        )
        self.restarts += 1
        bus = self._bus
        if bus is not None and bus.active:
            bus.emit("restart", self.sim.now, process=process_id)
        host.protocol.on_restart(host.ctx)
        for thunk in self._deferred.pop(process_id, []):
            thunk()
