"""Crash recovery by redo: rebuild protocol state from logged inputs.

The protocols in this repository are deterministic state machines over
their inputs -- user invokes, packet arrivals, and (volatile) timers.
That makes the WAL's INPUT stream a classical redo log: feed the same
inputs in the same order to a fresh instance and the durable state
(per-destination ARQ sequence numbers, reassembly buffers, protocol
tags, delivered sets) comes back exactly, with no checkpoint-at-crash
magic.  Timers are *not* replayed -- they are volatile by the fault
model's definition, and ``on_restart`` re-arms whatever recovery needs.

Two replay shapes:

- :func:`replay_into_host` pushes the inputs back through a live
  :class:`~repro.simulation.host.ProtocolHost` with outbound transport
  and timers suppressed.  The host's own bookkeeping (its trace, which
  answers the dedup test and holds receive times, and its stats)
  rebuilds alongside the protocol -- this is what a restarted
  :class:`~repro.net.host.NetHost` uses.
- :func:`rebuild_protocol` does the same into a throwaway host around a
  *fresh protocol instance* and keeps only the instance.  The sim fault
  injector uses it to give crash events honest durability semantics
  (the WAL, not a crash-instant snapshot, is the authority).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Optional

from repro.simulation.host import ProtocolHost
from repro.simulation.network import Network
from repro.simulation.trace import SimulationStats, Trace
from repro.wal.records import WalRecord, resolve_inputs

__all__ = ["RecoveryReport", "replay_into_host", "rebuild_protocol"]


class _ReplayClock:
    """Stands in for the Simulator/WallClock during replay: ``now`` is
    whatever the current input record says, and timers never fire."""

    def __init__(self) -> None:
        self.now = 0.0

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Suppressed: replay feeds recorded inputs only; ``on_restart``
        re-arms the timers recovery actually needs."""


class _NullTransport:
    """A transport that drops every packet (replay must not re-send)."""

    def transmit(self, network, packet) -> None:
        pass


class _ScratchHost(ProtocolHost):
    """The host :func:`rebuild_protocol` throws away.  Its trace holds
    one process's events only, so a delivery has no send record to
    measure a latency from -- and nobody reads its statistics."""

    def _account_latency(self, message) -> None:
        pass


@dataclass
class RecoveryReport:
    """What a replay processed (and what it could not)."""

    inputs: int = 0
    invokes: int = 0
    arrivals: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.errors


def replay_into_host(
    host,
    records: Iterable[WalRecord],
    *,
    process_id: Optional[int] = None,
) -> RecoveryReport:
    """Replay logged inputs through a live host, side effects suppressed.

    The host's clock and its network's transport are swapped for replay
    stand-ins (and restored on exit), so the protocol re-executes every
    invoke and arrival without transmitting anything or arming a timer.
    The protocol's ``on_start`` hook runs first, as it did at the
    original boot.  Per-input exceptions are collected in
    the report, not raised: a half-recovered host is still better than a
    fresh one.
    """
    clock = _ReplayClock()
    network = host.network
    saved_host_sim = host.sim
    saved_net_sim = network.sim
    saved_transport = network.transport
    host.sim = clock
    network.sim = clock
    network.transport = _NullTransport()
    report = RecoveryReport()
    try:
        host.protocol.on_start(host.ctx)
        for op, t, _process, payload in resolve_inputs(records, process_id):
            clock.now = t
            report.inputs += 1
            try:
                if op == "invoke":
                    report.invokes += 1
                    host.invoke(payload)
                else:
                    report.arrivals += 1
                    host._on_packet(payload)
            except Exception as exc:  # noqa: BLE001 - collected, not fatal
                report.errors.append(
                    "%s input %d (%s at t=%s): %s"
                    % (type(exc).__name__, report.inputs, op, t, exc)
                )
    finally:
        host.sim = saved_host_sim
        network.sim = saved_net_sim
        network.transport = saved_transport
    return report


def rebuild_protocol(
    protocol_factory: Callable[[int, int], Any],
    process_id: int,
    n_processes: int,
    records: Iterable[WalRecord],
) -> Any:
    """A fresh protocol instance fast-forwarded through the logged inputs.

    The instance sits in a scratch :class:`ProtocolHost` (own trace and
    statistics, a network that transmits nothing) that
    :func:`replay_into_host` drives, so it is fed by the host's own
    discipline -- first copy, duplicate, end of batch -- and not by a
    copy of it.  The caller installs the returned instance and then runs
    ``on_restart`` through the real context, the same hook order as a
    snapshot restore.
    """
    clock: Any = _ReplayClock()  # duck-types Simulator
    host = _ScratchHost(
        clock,
        Network(clock, n_processes, transport=_NullTransport()),
        Trace(n_processes),
        SimulationStats(),
        process_id,
        protocol_factory(process_id, n_processes),
    )
    replay_into_host(host, records, process_id=process_id)
    return host.protocol
