"""Crash/restart orchestration against live protocol hosts.

The injector turns a :class:`~repro.faults.plan.FaultPlan`'s
:class:`~repro.faults.plan.CrashEvent` entries into simulator events.
On crash it snapshots the protocol (volatile state excluded), marks the
host down (arrivals blackhole, timers die via the host's crash epoch);
on restart it restores the snapshot, bumps the epoch, runs the
protocol's ``on_restart`` hook, and replays any user invokes that
arrived while the process was down (the application retries once the
process is back).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.faults.plan import FaultPlan
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
    partition_drops: int = 0
    crash_drops: int = 0
    spikes: int = 0
    crashes: int = 0
    restarts: int = 0


class FaultInjector:
    """Drives the crash/restart events of a plan against the hosts."""

    def __init__(
        self,
        sim: Simulator,
        transport: FaultyTransport,
        hosts: "Dict[int, ProtocolHost]",
        bus: "Optional[Bus]" = None,
        wal: "Optional[Any]" = None,
        protocol_factory: "Optional[Callable[[int, int], Any]]" = None,
    ):
        self.sim = sim
        self.transport = transport
        self.hosts = hosts
        self._bus = bus
        # With a WAL sink and the factory, restarts rebuild protocol
        # state by replaying the logged inputs (repro.wal.recovery)
        # instead of restoring a crash-instant snapshot -- redo-log
        # durability rather than checkpoint-at-crash magic.
        self._wal = wal if protocol_factory is not None else None
        self._factory = protocol_factory
        self._snapshots: Dict[int, Dict[str, Any]] = {}
        self._deferred: Dict[int, List[Callable[[], None]]] = {}
        self.crashes = 0
        self.restarts = 0

    def install(self, plan: FaultPlan) -> None:
        """Schedule every crash/restart of ``plan`` on the simulator."""
        for crash in plan.crashes:
            if crash.process not in self.hosts:
                raise ValueError(
                    "crash scheduled for unknown process %d" % crash.process
                )
            self.sim.schedule(
                max(0.0, crash.at - self.sim.now),
                lambda c=crash: self._crash(c.process),
            )
            if crash.restart_at is not None:
                self.sim.schedule(
                    max(0.0, crash.restart_at - self.sim.now),
                    lambda c=crash: self._restart(c.process),
                )

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

    def _crash(self, process_id: int) -> None:
        host = self.hosts[process_id]
        if host.down:
            return
        host.down = True
        self.transport.mark_down(process_id)
        if self._wal is None:
            self._snapshots[process_id] = host.protocol.snapshot()
        self.crashes += 1
        bus = self._bus
        if bus is not None and bus.active:
            bus.emit("crash", self.sim.now, process=process_id)

    def _restart(self, process_id: int) -> None:
        host = self.hosts[process_id]
        if not host.down:
            return
        host.down = False
        host.crash_epoch += 1
        self.transport.mark_up(process_id)
        if self._wal is not None:
            from repro.wal import rebuild_protocol

            # The log, not the dead instance, is the recovery authority:
            # replay every input this process ever handled into a fresh
            # protocol built by the same factory.
            assert self._factory is not None
            host.protocol = rebuild_protocol(
                self._factory,
                process_id,
                host.n_processes,
                self._wal.reload().records,
            )
        else:
            host.protocol.restore(self._snapshots.pop(process_id))
        self.restarts += 1
        bus = self._bus
        if bus is not None and bus.active:
            bus.emit("restart", self.sim.now, process=process_id)
        host.protocol.on_restart(host.ctx)
        for thunk in self._deferred.pop(process_id, []):
            thunk()
