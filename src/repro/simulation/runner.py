"""End-to-end simulation driver."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.runs.system_run import SystemRun
from repro.runs.user_run import UserRun
from repro.simulation.host import ProtocolHost
from repro.simulation.network import LatencyModel, Network, UniformLatency
from repro.simulation.sim import Simulator
from repro.simulation.trace import SimulationStats, Trace
from repro.simulation.workloads import Workload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs depends on us)
    from repro.obs.bus import Bus

# A factory builds one protocol instance per process: (process_id, n) -> Protocol
ProtocolFactory = Callable[[int, int], "Protocol"]


@dataclass
class SimulationResult:
    """Everything a simulation produced."""

    workload: Workload
    protocol_name: str
    trace: Trace
    stats: SimulationStats
    system_run: SystemRun
    user_run: UserRun
    delivered_all: bool
    undelivered: List[str]
    # The per-process protocol instances, in process order (observability
    # consumers ask them why a message is stuck).
    protocols: List[object] = field(default_factory=list)
    # The earliest specification violation, when ``run_simulation`` was
    # given a ``spec`` to monitor (``repro.verification.engine``); ``None``
    # with no spec or a clean run.
    first_violation: Optional[Any] = None
    # What the fault layer (``repro.faults``) did, ``None`` for a
    # reliable network.
    fault_summary: Optional[Any] = None
    # Ids of user messages that lost at least one copy to a fault (drop,
    # partition, or crash blackhole), in first-loss order.  Feed these to
    # :meth:`repro.obs.watchdog.Watchdog.note_drop` to attribute stuck
    # messages to network loss without a live bus.
    dropped_messages: List[str] = field(default_factory=list)
    # Real seconds the simulation took, so simulated throughput is
    # directly comparable with the net runtime's (``repro load``).
    wall_seconds: float = 0.0

    @property
    def user_messages_per_second(self) -> float:
        """Simulated user messages processed per *wall-clock* second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.stats.user_messages / self.wall_seconds

    def summary(self) -> str:
        """A short human-readable result block."""
        lines = [
            "workload:          %s" % self.workload.name,
            "protocol:          %s" % self.protocol_name,
            "user messages:     %d" % self.stats.user_messages,
            "control messages:  %d" % self.stats.control_messages,
            "control bytes:     %d" % self.stats.control_bytes,
            "mean tag bytes:    %.1f" % self.stats.mean_tag_bytes,
            "max tag bytes:     %d" % self.stats.max_tag_bytes,
            "delayed delivers:  %d" % self.stats.delayed_deliveries,
            "mean latency:      %.3f" % self.stats.mean_delivery_latency,
            "p95 latency:       %.3f" % self.stats.delivery_latency_percentile(95),
            "max latency:       %.3f" % self.stats.max_delivery_latency,
            "mean invoke->r:    %.3f" % self.stats.mean_end_to_end_latency,
            "all delivered:     %s" % self.delivered_all,
            "wall seconds:      %.3f" % self.wall_seconds,
            "user msgs/sec:     %.0f" % self.user_messages_per_second,
        ]
        faults = self.fault_summary
        if faults is not None:
            lines += [
                "packets dropped:   %d" % faults.packets_dropped,
                "packets duped:     %d" % faults.packets_duplicated,
                "partition drops:   %d" % faults.partition_drops,
                "crash drops:       %d" % faults.crash_drops,
                "delay spikes:      %d" % faults.spikes,
                "crash/restart:     %d/%d" % (faults.crashes, faults.restarts),
                "retransmissions:   %d" % self.stats.retransmissions,
                "duplicate recvs:   %d" % self.stats.duplicate_receives,
                "goodput:           %.3f" % self.stats.goodput,
            ]
        return "\n".join(lines)


def run_simulation(
    protocol_factory: ProtocolFactory,
    workload: Workload,
    seed: int = 0,
    latency: Optional[LatencyModel] = None,
    fifo_channels: bool = False,
    max_events: int = 1_000_000,
    bus: "Optional[Bus]" = None,
    spec: Optional[Any] = None,
    faults: Optional[Any] = None,
    wal: Optional[Any] = None,
) -> SimulationResult:
    """Run ``workload`` under the protocol and record the execution.

    The network seed controls latencies; the workload's own seed already
    fixed the request script, so (factory, workload, seed) determines the
    run completely.  An optional instrumentation ``bus``
    (:class:`repro.obs.Bus`) receives the hosts' and the fault layer's
    probe events; subscribers only observe, so the schedule -- and every
    statistic -- is identical with or without one.

    With a ``spec`` (a :class:`~repro.predicates.spec.Specification` or
    single predicate), the recorded trace is checked by an incremental
    :class:`~repro.verification.engine.SpecMonitor` -- each event is
    inspected once, in execution order -- and the earliest completing
    event lands in :attr:`SimulationResult.first_violation`.

    With ``faults`` (a :class:`repro.faults.FaultPlan`), a
    :class:`repro.faults.FaultyTransport` wraps the latency transport
    and a :class:`repro.faults.FaultInjector` runs the plan's actions;
    user invokes hitting a crashed process are deferred to its restart.
    The fault RNG is private to the plan's ``seed``, so the same
    ``seed`` argument still produces the same latency stream.

    With a ``wal`` (a :class:`repro.wal.WalSink`), every trace record,
    every host input (in processing order) and the fault/retx/timer
    probe streams are appended to the sink's segment directory.  A
    killed process restarts by *replaying the log*, as a live host
    does; a plan with a ``kill`` and no ``wal`` logs to a temporary
    directory, removed when the run ends.
    """
    import time as _time

    wall_start = _time.perf_counter()
    sim = Simulator()
    latency_model = latency or UniformLatency(low=1.0, high=10.0)
    latency_model.reset()
    from repro.simulation.network import LatencyTransport

    transport: Any = LatencyTransport(
        latency=latency_model, seed=seed, fifo_channels=fifo_channels
    )
    injector = scratch = None
    if faults is not None:
        from repro.faults import FaultInjector, FaultyTransport

        transport = FaultyTransport(faults, transport)
    network = Network(
        sim,
        workload.n_processes,
        bus=bus,
        transport=transport,
    )
    trace = Trace(workload.n_processes)
    stats = SimulationStats()
    hosts = [
        ProtocolHost(
            sim,
            network,
            trace,
            stats,
            process_id,
            protocol_factory(process_id, workload.n_processes),
            bus=bus,
        )
        for process_id in range(workload.n_processes)
    ]
    kills = faults is not None and any(a.kind == "kill" for a in faults.actions)
    if wal is None and kills:
        import tempfile

        from repro.wal import WalSink

        scratch = tempfile.TemporaryDirectory(prefix="repro-sim-wal-")
        wal = WalSink(scratch.name, fsync=False)
    try:
        if wal is not None:
            wal.set_clock(lambda: sim.now)
            wal.attach_trace(trace)
            for host in hosts:
                wal.attach_host(host)
            if bus is not None:
                wal.attach_bus(bus)
        if faults is not None:
            injector = FaultInjector(
                sim,
                transport,
                {host.process_id: host for host in hosts},
                wal,
                protocol_factory,
                bus=bus,
            )
            injector.install(faults)
        for host in hosts:
            host.start()

        messages = workload.messages()
        for request, message in zip(workload.requests, messages):
            host = hosts[message.sender]

            def invoke(h=host, m=message):
                if h.down:
                    # The process is crashed: the application retries the
                    # request once it comes back up (or never, if it stays
                    # down -- the message then counts as undelivered).
                    assert injector is not None
                    injector.defer_invoke(h.process_id, lambda: h.invoke(m))
                    return
                h.invoke(m)

            sim.schedule(request.time, invoke)

        executed = sim.run(max_events=max_events)
        if wal is not None:
            wal.sync()
    finally:
        if scratch is not None:
            wal.close()
            scratch.cleanup()
    if executed >= max_events:
        raise RuntimeError(
            "simulation exceeded %d events; suspected protocol livelock"
            % max_events
        )

    violation = None
    if spec is not None:
        from repro.verification.engine import SpecMonitor

        violation = SpecMonitor(spec).advance(trace)

    fault_summary = None
    dropped_messages: List[str] = []
    if injector is not None:
        fault_summary = injector.summary()
        seen = set()
        for message_id in transport.dropped_user:
            if message_id not in seen:
                seen.add(message_id)
                dropped_messages.append(message_id)

    system_run = trace.to_system_run()
    undelivered = trace.undelivered_messages()
    return SimulationResult(
        workload=workload,
        protocol_name=getattr(
            hosts[0].protocol, "name", type(hosts[0].protocol).__name__
        ),
        trace=trace,
        stats=stats,
        system_run=system_run,
        user_run=system_run.users_view(),
        delivered_all=not undelivered,
        undelivered=undelivered,
        protocols=[host.protocol for host in hosts],
        first_violation=violation,
        fault_summary=fault_summary,
        dropped_messages=dropped_messages,
        wall_seconds=_time.perf_counter() - wall_start,
    )
