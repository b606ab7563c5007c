"""The tcp workloads' fixture and the two load drivers.

All roles share this process and one event loop; hosts talk over real
loopback TCP (``nproc`` is 2 here, so a process per host would measure
the scheduler, not the stack).  A cluster is built fresh for every rep:
per-message cost grows with a host's history, so reps inside one cluster
would not be independent samples.

Drivers (choosing-metrics §5):

sat
    closed loop -- ``WINDOW`` messages outstanding across the cluster,
    the next one issued from the delivery callback, until all ``N`` of
    the script are delivered.  Self-clocking, so it measures capacity;
    open-loop overload on this stack *delivers less* than its knee.
    Every message is also timed from its invoke to its delivery
    callback.  At window 1 (one caller that waits for each delivery)
    those times are the path length with no queueing: the end-to-end
    latency, at a tenth of what an open loop at a quarter of capacity
    costs per sample, because nothing spins between sends.
paced
    open loop at a fixed rate, absolute deadlines ``start + i/rate``,
    latency from the **due** time to the delivery callback, exact
    samples.  The generator spin-yields to each deadline (a timer sleep
    rounds up to the selector's millisecond tick and would put that lag
    into every sample); how late it ran is reported.  Used by the traced
    run (tail latency, plane deltas, generator health).
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import os
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.events import Event, EventKind, Message
from repro.net.cluster import LiveObserver
from repro.net.host import NetHost
from repro.protocols.registry import CatalogueEntry, catalogue_entry
from repro.runs.user_run import UserRun

import bench_inputs

#: Real seconds per virtual unit: the ``repro serve`` default.  (The
#: older tables used 0.001, where the ARQ sublayer's 30-unit RTO is 30 ms
#: and fires spuriously under a 64-deep window -- 65-396 retransmissions
#: per 2000 messages on a clean loopback, which is noise, not load.)
TIME_SCALE = 0.01
WINDOW = 64
WAL_SYNC_EVERY = 64
#: A sat rep is marked in this many equal runs of deliveries, so that
#: cost early and late in one rep can be compared (the history effect).
SEGMENTS = 20
#: Messages of each rep whose user view is checked against the spec.
SPEC_PREFIX = 400
#: A rep that makes no progress for this long is abandoned and counted
#: as failed rather than hanging the run past the driver's limit.
STALL_SECONDS = 30.0

ENVIRONMENT = "loopback, one loop, time_scale %g, window %d" % (TIME_SCALE, WINDOW)


@dataclass(frozen=True)
class Planes:
    """Which optional planes a cluster runs with."""

    arq: bool = True
    wal: bool = True
    flight: bool = True
    monitor: bool = False

    def without(self, plane: str) -> "Planes":
        return dataclasses.replace(self, **{plane: False})


FULL = Planes()
#: What ``run_cluster`` / ``repro serve`` ship: flight on, no ARQ, no WAL.
SHIPPED = Planes(arq=False, wal=False)

FactoryBuilder = Callable[[CatalogueEntry, bool], Callable[[int, int], Any]]


def plain_factory(entry: CatalogueEntry, arq: bool) -> Callable[[int, int], Any]:
    return entry.reliable_factory() if arq else entry.factory


class Cluster:
    """``n`` fresh :class:`NetHost` s of one catalogue protocol."""

    def __init__(
        self,
        protocol: str,
        n_processes: int,
        planes: Planes,
        ports: Sequence[int],
        work_dir: str,
        build_factory: FactoryBuilder = plain_factory,
    ) -> None:
        self.entry = catalogue_entry(protocol)
        self.n_processes = n_processes
        self.planes = planes
        self.ports = list(ports)
        self.run_id = "perf-%d" % self.ports[0]
        self.wal_dir = (
            os.path.join(work_dir, "wal-%d" % self.ports[0]) if planes.wal else None
        )
        self._build_factory = build_factory
        self.hosts: List[NetHost] = []
        self.observer: Optional[LiveObserver] = None
        self.setup_seconds = 0.0
        #: The traced run wraps the drivers' delivery callback in a span
        #: of its own, so the bench's work is not charged to the host.
        self.listener_wrap: Callable[[Callable[[Message], None]], Callable] = (
            lambda listener: listener
        )

    async def start(self) -> None:
        started = time.perf_counter()
        factory = self._build_factory(self.entry, self.planes.arq)
        self.hosts = [
            NetHost(
                factory,
                process_id,
                self.ports,
                run_id=self.run_id,
                time_scale=TIME_SCALE,
                observability=self.planes.flight,
                wal_dir=self.wal_dir,
                wal_meta={"protocol": self.entry.name} if self.wal_dir else None,
                wal_sync_every=WAL_SYNC_EVERY,
            )
            for process_id in range(self.n_processes)
        ]
        for host in self.hosts:
            await host.start()
        await asyncio.gather(*(host.ready() for host in self.hosts))
        if self.planes.monitor:
            self.observer = LiveObserver(self.n_processes, spec=self.entry.spec)
            await self.observer.connect(self.ports, run_id=self.run_id)
        self.setup_seconds = time.perf_counter() - started

    async def stop(self) -> None:
        if self.observer is not None:
            await self.observer.close()
        for host in self.hosts:
            await host.shutdown()
        if self.wal_dir is not None:
            shutil.rmtree(self.wal_dir, ignore_errors=True)

    def set_listener(self, listener: Callable[[Message], None]) -> None:
        listener = self.listener_wrap(listener)
        for host in self.hosts:
            host.host.delivery_listener = listener

    def errors(self) -> List[str]:
        found = [error for host in self.hosts for error in host.errors]
        if self.observer is not None:
            found.extend(self.observer.errors)
            if self.observer.violation is not None:
                found.append("live monitor: %r" % (self.observer.violation,))
        return found

    def counters(self) -> Dict[str, float]:
        """Work counted at the layer boundaries (read before ``stop``)."""
        hosts = self.hosts
        wal_bytes = 0
        if self.wal_dir is not None:  # the segment writer is unbuffered
            for root, _, files in os.walk(self.wal_dir):
                wal_bytes += sum(os.path.getsize(os.path.join(root, f)) for f in files)
        return {
            "frames": sum(h.transport.frames_sent for h in hosts),
            "wire_bytes": sum(h.transport.bytes_sent for h in hosts),
            "retransmits": sum(h.stats.retransmissions for h in hosts),
            "duplicates": sum(h.stats.duplicate_receives for h in hosts),
            "wal_records": sum(
                h.wal.writer.records_written for h in hosts if h.wal is not None
            ),
            "wal_bytes": wal_bytes,
            "flight_records": sum(
                h.flight.recorded for h in hosts if h.flight is not None
            ),
            "backpressure_signals": sum(h.backpressure_transitions for h in hosts),
            "frames_shed": sum(
                h.transport.user_shed + h.transport.control_shed for h in hosts
            ),
        }


@dataclass
class SatSample:
    messages: int
    wall_seconds: float
    cpu_seconds: float
    #: (wall, cpu) at the start and after each segment of the deliveries.
    marks: List["tuple[float, float]"]
    #: Deliveries per segment.
    step: int
    delivered: List[str]
    #: Seconds from invoke to the delivery callback, by message id.
    latencies: Dict[str, float]
    observer_lag: int = 0

    def segments(self, clock: int) -> List[float]:
        """Seconds each segment took, on the wall (0) or CPU (1) clock."""
        return [
            after[clock] - before[clock]
            for before, after in zip(self.marks, self.marks[1:])
        ]

    @property
    def msgs_per_s(self) -> float:
        return self.messages / self.wall_seconds

    @property
    def cpu_us_per_msg(self) -> float:
        return 1e6 * self.cpu_seconds / self.messages

    @property
    def late_early_cost_ratio(self) -> float:
        """CPU per message in the last quarter over the first quarter."""
        cpu = self.segments(1)
        quarter = len(cpu) // 4
        if not quarter:
            return 0.0
        first, last = sum(cpu[:quarter]), sum(cpu[-quarter:])
        return last / first if first > 0 else 0.0


async def run_sat(
    cluster: Cluster, script: Sequence[Message], window: int = WINDOW
) -> SatSample:
    """Closed loop over ``script``; timed first invoke -> last deliver."""
    loop = asyncio.get_running_loop()
    hosts = cluster.hosts
    observer = cluster.observer
    total = len(script)
    step = max(1, total // SEGMENTS)
    delivered: List[str] = []
    latencies: Dict[str, float] = {}
    marks: List["tuple[float, float]"] = []
    finished = loop.create_future()
    clock = time.perf_counter
    issued = 0
    lag = 0

    def issue() -> None:
        nonlocal issued
        if issued >= total:
            return  # several deliveries in one loop tick each asked for one
        message = script[issued]
        issued += 1
        latencies[message.id] = -clock()
        hosts[message.sender].invoke(message)

    def on_deliver(message: Message) -> None:
        nonlocal lag
        latencies[message.id] += clock()
        delivered.append(message.id)
        count = len(delivered)
        if count % step == 0:
            marks.append((time.perf_counter(), time.process_time()))
            if observer is not None:
                # Events the hosts have recorded but the monitor has not
                # merged yet, wherever they wait (its sockets included).
                recorded = sum(host.trace.record_count for host in hosts)
                lag = max(lag, recorded - observer.events_merged)
        if issued < total:
            # Not inline: this runs inside the receiving protocol's
            # deliver call, and an invoke would re-enter protocol code.
            loop.call_soon(issue)
        elif count == total and not finished.done():
            finished.set_result(None)

    cluster.set_listener(on_deliver)
    gc.collect()
    marks.append((time.perf_counter(), time.process_time()))
    for _ in range(min(window, total)):
        issue()
    try:
        await asyncio.wait_for(finished, STALL_SECONDS + total / 50.0)
    except asyncio.TimeoutError:
        pass
    end_wall, end_cpu = time.perf_counter(), time.process_time()
    return SatSample(
        messages=total,
        wall_seconds=end_wall - marks[0][0],
        cpu_seconds=end_cpu - marks[0][1],
        marks=marks,
        step=step,
        delivered=delivered,
        latencies=latencies,
        observer_lag=lag,
    )


@dataclass
class PacedSample:
    rate: float
    latencies: List[float]  # seconds, due -> deliver, one per delivery
    lags: List[float]  # seconds the generator ran behind each deadline
    delivered: List[str] = field(default_factory=list)

    def latency_ms(self, p: float) -> float:
        return 1e3 * percentile(self.latencies, p)

    def lag_ms(self, p: float) -> float:
        return 1e3 * percentile(self.lags, p)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of exact samples (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


async def run_paced(
    cluster: Cluster, script: Sequence[Message], rate: float
) -> PacedSample:
    """Open loop: message ``i`` is due at ``start + i / rate``."""
    loop = asyncio.get_running_loop()
    hosts = cluster.hosts
    total = len(script)
    due_at: Dict[str, float] = {}
    sample = PacedSample(rate=rate, latencies=[], lags=[])
    finished = loop.create_future()

    def on_deliver(message: Message) -> None:
        sample.latencies.append(time.perf_counter() - due_at[message.id])
        sample.delivered.append(message.id)
        if len(sample.delivered) == total and not finished.done():
            finished.set_result(None)

    cluster.set_listener(on_deliver)
    gc.collect()
    clock = time.perf_counter
    start = clock() + 0.005
    for index, message in enumerate(script):
        due = start + index / rate
        while clock() < due:
            await asyncio.sleep(0)
        sample.lags.append(clock() - due)
        due_at[message.id] = due
        hosts[message.sender].invoke(message)
    try:
        await asyncio.wait_for(finished, STALL_SECONDS)
    except asyncio.TimeoutError:
        pass
    return sample


def count_failures(
    cluster: Cluster,
    script: Sequence[Message],
    delivered: Sequence[str],
    check_spec: bool,
) -> "tuple[int, List[str]]":
    """Messages of one rep that count as failed, and why.

    Every scripted message must be delivered exactly once.  A host error
    or a rejected specification check condemns the whole rep (all its
    messages), because no single message can be blamed.  The spec check
    is quadratic in the prefix (0.6-1.5 s at 400 messages), so callers
    ask for it on one rep per run, not on all.
    """
    errors = cluster.errors()
    if errors:
        return len(script), ["host errors: %s" % "; ".join(errors[:3])]
    counts = Counter(delivered)
    wrong = sum(1 for message in script if counts[message.id] != 1)
    if wrong:
        return wrong, ["%d of %d not delivered exactly once" % (wrong, len(script))]
    if check_spec and not spec_admits_prefix(cluster, script):
        return len(script), ["spec %s rejected the run" % cluster.entry.spec.name]
    return 0, []


def spec_admits_prefix(cluster: Cluster, script: Sequence[Message]) -> bool:
    """The catalogue spec over the user view of the first messages.

    Each host's trace holds its own send/deliver events in execution
    order; the per-process sequences plus the message edges *are* the
    user-view run, so no cross-host merge is needed.
    """
    prefix = {message.id: message for message in script[:SPEC_PREFIX]}
    sequences: Dict[int, List[Event]] = {}
    for host in cluster.hosts:
        sequences[host.process_id] = [
            record.event
            for record in host.trace.records()
            if record.event.message_id in prefix
            and record.event.kind in (EventKind.SEND, EventKind.DELIVER)
        ]
    run = UserRun.from_process_sequences(prefix.values(), sequences)
    return bool(cluster.entry.spec.admits(run))


@dataclass
class Rep:
    """One rep on one fresh cluster, judged."""

    sample: Any  # SatSample | PacedSample
    #: The window-1 lap that ran first on the same cluster, if any.
    lone: Optional[SatSample]
    counters: Dict[str, float]
    setup_seconds: float
    messages: int
    failed: int
    reasons: List[str]


async def run_rep(
    cluster: Cluster,
    script: Sequence[Message],
    *,
    paced_rate: float = 0.0,
    window: int = WINDOW,
    check_spec: bool = False,
    lone_script: Sequence[Message] = (),
) -> Rep:
    """Start ``cluster``, drive one sat (or, with a rate, paced) rep --
    after a lap of ``lone_script`` with one message in flight, if given
    -- read its counters, check it, tear it down."""
    await cluster.start()
    try:
        lone = await run_sat(cluster, lone_script, 1) if lone_script else None
        if paced_rate:
            sample: Any = await run_paced(cluster, script, paced_rate)
        else:
            sample = await run_sat(cluster, script, window)
        counters = cluster.counters()
        whole = list(lone_script) + list(script)
        delivered = (lone.delivered if lone else []) + sample.delivered
        failed, reasons = count_failures(cluster, whole, delivered, check_spec)
    finally:
        await cluster.stop()
    return Rep(
        sample, lone, counters, cluster.setup_seconds, len(whole), failed, reasons
    )


class ClusterFactory:
    """Hands out fresh clusters on the seed's port sequence."""

    def __init__(self, seed: int, purpose: str, work_dir: str) -> None:
        self._ports: Iterator[int] = bench_inputs.port_candidates(seed, purpose)
        self.work_dir = work_dir
        os.makedirs(work_dir, exist_ok=True)

    def free_port(self) -> int:
        return bench_inputs.free_ports(self._ports, 1)[0]

    def make(
        self,
        protocol: str,
        n_processes: int,
        planes: Planes,
        build_factory: FactoryBuilder = plain_factory,
    ) -> Cluster:
        ports = bench_inputs.free_ports(self._ports, n_processes)
        return Cluster(
            protocol, n_processes, planes, ports, self.work_dir, build_factory
        )
