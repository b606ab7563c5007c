"""Deploy, observe, and drive a cluster of :class:`NetHost` processes.

Three roles make a networked run:

hosts
    one :class:`~repro.net.host.NetHost` per paper process (spawned
    in-process by :func:`run_cluster` for tests, or as separate OS
    processes via ``repro serve``);

observer
    :class:`LiveObserver` follows every host's trace stream over one
    :class:`~repro.net.client.ControlLink` each (RECORDS chunks of WAL
    ``EVENT`` records, read by ``repro replay``'s resolver, with a
    stream that ends re-dialed like any client's), merges the per-host
    streams into one causally-consistent
    :class:`~repro.simulation.trace.Trace`, and feeds it to the
    incremental :class:`~repro.verification.engine.SpecMonitor` --
    ordering violations are flagged *while the system runs*;

load generator
    :class:`LoadGenerator` drives open-loop traffic at a target rate, one
    INVOKE_BATCH frame per endpoint per pacing tick, to hosts or to a
    shard fleet (:mod:`repro.net.shard`) alike.  :func:`drive_run` is the
    one arc of a run over either (load -> drain -> quiesce -> settle ->
    verdict -> report, reducing the endpoints' STATS replies to a
    :class:`NetRunReport` with throughput and p50/p99 delivery latency)
    that :func:`run_cluster`, :func:`repro.net.shard.run_sharded` and
    ``repro load`` follow.

The stream merge is the subtle part: host ``p``'s stream carries exactly
the events located at ``p`` (sends at the sender, deliveries at the
receiver), already in ``p``'s execution order, but a delivery may arrive
on its stream before the matching send arrives on another.  The merge
keeps one FIFO queue per host and only appends a queue's *head*, holding
receive/deliver events until their send has been appended.  Head-blocking
preserves per-location order (what vector-clock causality needs) and can
never deadlock: a blocking chain would have to run backwards through
real time.  A chunk that does not resolve by itself stops its stream.
"""

from __future__ import annotations

import asyncio
import functools
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from repro.events import Event, EventKind, Message
from repro.events.message import channel_key
from repro.net import codec
from repro.net.client import ClusterClient, ControlLink
from repro.net.host import NetHost
from repro.net.transport import DEFAULT_TIME_SCALE
from repro.obs.metrics import Histogram
from repro.simulation.trace import Trace
from repro.wal import records as wal_records


def free_ports(n: int, host: str = "127.0.0.1") -> List[int]:
    """``n`` currently-free TCP ports (bind-probe; small race window is
    acceptable for tests and local runs)."""
    sockets = []
    try:
        for _ in range(n):
            sock = socket.socket()
            sock.bind((host, 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


# -- the live observer --------------------------------------------------------

class LiveObserver:
    """Merge per-host event streams and monitor the ordering spec live.

    Violations latch in :attr:`violation` the moment the offending
    delivery crosses the merge -- not after the run, which is the point
    of serving the catalogue over a real network at all.  Specifications
    whose families would make the per-event search super-quadratic (the
    logically synchronous crowns) are monitored live only up to
    :data:`~repro.verification.engine.FAMILY_ARITY_CAP`; their exact
    membership oracle runs over the merged trace in :meth:`final_check`
    once traffic drains (the policy is
    :func:`~repro.verification.engine.capped_monitor`'s, not ours).
    """

    def __init__(self, n_processes: int, spec: Optional[Any] = None) -> None:
        self.n_processes = n_processes
        self.trace = Trace(n_processes)
        self.spec = spec
        self.monitor = self._oracle_check = None
        if spec is not None:
            from repro.verification.engine import capped_monitor

            self.monitor, self._oracle_check = capped_monitor(spec)
        self._needs_oracle = self._oracle_check is not None
        self.oracle_outcome: Optional[bool] = None
        self._oracle_rejection: Optional[str] = None
        self.events_seen = 0
        self.events_merged = 0
        #: Per-host FIFOs of not-yet-appended (time, process, event, message).
        self._queues: List[deque] = [deque() for _ in range(n_processes)]
        #: One followed ``observer`` link per host (see :meth:`connect`).
        self._links: List[ControlLink] = []
        self._recorder: Optional[Any] = None

    @property
    def errors(self) -> List[str]:
        """One line per host stream a malformed chunk stopped, or whose
        host did not come back."""
        return [
            "observer stream %d: %s" % (index, link.failure)
            for index, link in enumerate(self._links)
            if link.failure is not None
        ]

    @property
    def reconnects(self) -> int:
        """Re-attaches that reached READY, over every host stream."""
        return sum(link.redials for link in self._links)

    @property
    def violation(self):
        """The latched first violation, if the monitor found one (or the
        end-of-run oracle rejected the merged trace)."""
        if self.monitor is not None and self.monitor.violation is not None:
            return self.monitor.violation
        return self._oracle_rejection

    def final_check(self):
        """Run the exact membership oracle over the merged trace.

        A no-op unless the spec needed the live search truncated; call
        it after traffic has drained and the merge caught up (see
        :meth:`settle`).  Returns the (possibly new) violation.
        """
        if (
            self._needs_oracle
            and self.violation is None
            and self.oracle_outcome is None
            and self.trace.record_count
        ):
            self._oracle_rejection = self._oracle_check(self.trace)
            self.oracle_outcome = self._oracle_rejection is None
        return self.violation

    async def settle(self, timeout: float = 2.0) -> None:
        """Let the events still queued at the merge gate through it.

        A replayed duplicate is never merged and never queued, so it
        does not count (after a reconnect ``events_seen`` outgrows
        ``events_merged`` for good)."""
        deadline = time.monotonic() + timeout
        while self.pending_merge and time.monotonic() < deadline:
            await asyncio.sleep(0.02)

    @property
    def pending_merge(self) -> int:
        """Events received but still held by the merge gate."""
        return sum(len(queue) for queue in self._queues)

    async def connect(
        self,
        ports: Sequence[int],
        host: str = "127.0.0.1",
        run_id: str = "default",
        timeout: float = 20.0,
    ) -> None:
        """Attach to every host and read each history up to READY.  A
        stream that ends is re-attached until :meth:`close`: the host
        replays its trace, and :meth:`_append` drops what was merged."""
        for index, port in enumerate(ports, len(self._links)):
            link = ControlLink(
                host, port, "observer", run_id, functools.partial(self._on_chunk, index)
            )
            self._links.append(link)
            await link.connect(timeout)
            await link.follow(timeout)

    def record(self, directory: str, meta: Dict[str, Any]) -> None:
        """Record the merged view of the run into one WAL, which
        ``repro replay`` and :func:`repro.wal.replay_log` re-execute
        bit-identically; :meth:`close` closes it."""
        from repro.wal import WalSink

        self._recorder = WalSink(directory, meta=meta)
        self._recorder.attach_trace(self.trace)

    async def close(self) -> None:
        for link in self._links:
            await link.close()
        if self._recorder is not None:
            self._recorder.close()

    def _on_chunk(self, index: int, data: bytes) -> None:
        """Queue a RECORDS chunk's events, all or none, and merge once."""
        records, offset = [], 0
        while offset < len(data):
            record, offset = wal_records.decode_record(data, offset)
            if record.kind != wal_records.EVENT:
                raise wal_records.WalCorrupt(
                    "a %s record in an observer chunk" % record.kind_name
                )
            records.append(record)
        events = list(wal_records.resolve_events(records, verify=True))
        self.events_seen += len(events)
        self._queues[index].extend(events)
        self._merge()

    def _merge(self) -> None:
        """Append every currently-appendable queue head (to fixpoint)."""
        progressed = True
        while progressed:
            progressed = False
            for queue in self._queues:
                while queue and self._appendable(queue[0]):
                    self._append(queue.popleft())
                    progressed = True
        if self.monitor is not None:
            self.monitor.advance(self.trace)

    def _appendable(self, item: Tuple[float, int, Event, Message]) -> bool:
        _, _, event, _ = item
        if event.kind in (EventKind.RECEIVE, EventKind.DELIVER):
            return self.trace.has_event(Event.send(event.message_id))
        return True

    def _append(self, item: Tuple[float, int, Event, Message]) -> None:
        event_time, process, event, message = item
        if self.trace.has_event(event):
            return  # replay after a reconnect; already merged
        self.trace.register_message(message)
        self.trace.record(event_time, process, event)
        self.events_merged += 1


# -- the load generator -------------------------------------------------------

#: Most invoke rows one INVOKE_BATCH frame carries: about 1 MB, well
#: under the codec's frame cap, even for a paused host's backlog.
BATCH_ROWS = 20_000


def _write_rows(link: ControlLink, rows: List[list]) -> None:
    for start in range(0, len(rows), BATCH_ROWS):
        link.send(codec.INVOKE_BATCH, {"rows": rows[start : start + BATCH_ROWS]})


class Pacer:
    """Absolute-deadline schedule for open-loop pacing.

    The old scheme slept a fixed tick *relative to now* each iteration,
    so sleep granularity and tick-body time compounded: at high rates a
    few hundred microseconds of slop per tick accumulated into a load
    phase that ran long and offered short.  A :class:`Pacer` instead
    fixes every tick's deadline up front as ``start + k * tick`` --
    each deadline is computed multiplicatively from ``k`` (never by
    summing increments), so lateness on one tick is absorbed by the
    next sleep instead of shifting the whole schedule.

    ``due(k)`` is the cumulative message quota at tick ``k``; the final
    tick's quota is exactly ``round(rate * duration)``, making the
    offered count independent of scheduling slop.
    """

    def __init__(self, rate: float, duration: float, tick: float = 0.005) -> None:
        if rate <= 0 or duration <= 0 or tick <= 0:
            raise ValueError("rate, duration and tick must be positive")
        import math

        self.rate = rate
        self.duration = duration
        self.total = max(1, int(round(rate * duration)))
        self.ticks = max(1, int(math.ceil(duration / tick)))
        self.tick = duration / self.ticks

    def deadline(self, k: int) -> float:
        """Tick ``k``'s deadline as an offset from the phase start."""
        return k * self.tick

    def due(self, k: int) -> int:
        """Messages that must have been offered once tick ``k`` fires."""
        if k >= self.ticks:
            return self.total
        if k <= 0:
            return 0
        return min(self.total, int(round(k * self.tick * self.rate)))

    async def schedule(self):
        """Yield ticks ``1..ticks``; after the consumer's work for tick
        ``k``, sleep to the *absolute* deadline ``start + deadline(k)``,
        so a late tick shortens the next sleep instead of pushing every
        later tick out."""
        loop = asyncio.get_running_loop()
        start = loop.time()
        for tick in range(1, self.ticks + 1):
            yield tick
            # Zero still yields to the loop, so the hosts keep reading.
            await asyncio.sleep(max(0.0, start + self.deadline(tick) - loop.time()))


@dataclass
class NetRunReport:
    """What one run of a cluster, hosts or a shard fleet, measured.

    The ``repro load`` output.  Counters are this run's: a kept
    cluster's earlier runs are left out."""

    protocol: str
    n_processes: int
    offered: int  # messages the generator produced
    invoked: int  # accepted by the endpoints (late ones after DRAIN are dropped)
    delivered: int  # a causal lane delivers each row at every other process
    pending: int  # work the endpoints still held when the run ended
    load_seconds: float  # the open-loop phase
    elapsed: float  # including DRAIN and quiesce
    quiesced: bool
    #: The endpoints' merged delivery histograms: send -> deliver at a
    #: host, invoke -> deliver at a shard lane.
    latencies: Histogram
    #: invoke -> deliver at a host; unlike ``latencies`` this includes
    #: time a protocol *inhibits* the send (e.g. the sync coordinator's
    #: grant wait), so it exposes control-traffic cost.
    e2e_latencies: Histogram
    #: What READY said: shard workers (and the key pool driven), or hosts.
    shards: Optional[int] = None
    keys: Optional[int] = None
    violation: Optional[str] = None
    errors: List[str] = field(default_factory=list)
    host_stats: List[Dict[str, Any]] = field(default_factory=list)
    fault_counters: Dict[str, int] = field(default_factory=dict)
    retransmissions: int = 0
    duplicate_receives: int = 0
    observer_events: int = 0
    #: Structured violation forensics (see :mod:`repro.obs.forensics`),
    #: populated by :func:`drive_run` when the observer finds a violation.
    forensics: Optional[Dict[str, Any]] = None
    #: Resilience-layer counters summed over hosts (plus the generator's
    #: own backpressure signal count).
    redials: int = 0
    frames_shed: int = 0
    backpressure_signals: int = 0
    #: A fleet's cross-key membership verdict
    #: (:func:`repro.net.shard.cross_key_oracle`).
    oracle: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        """Quiesced, no violation and no error line: ``repro load``'s
        exit status."""
        return self.quiesced and self.violation is None and not self.errors

    def render(self) -> str:
        layout = "%d processes" % self.n_processes
        if self.shards:
            layout += ", %d shards, %s keys" % (self.shards, self.keys or "per-channel")
        lines = [
            "net run: %s over %s" % (self.protocol, layout),
            "  messages    %d offered, %d invoked, %d delivered, %d pending"
            % (self.offered, self.invoked, self.delivered, self.pending),
            "  throughput  %.0f delivered msg/s over %.2fs (load phase %.2fs)"
            % (
                self.delivered / self.elapsed if self.elapsed else 0.0,
                self.elapsed,
                self.load_seconds,
            ),
            "  latency     p50 %.2f ms, p99 %.2f ms"
            % (
                self.latencies.percentile(50) * 1000.0,
                self.latencies.percentile(99) * 1000.0,
            ),
        ]
        if self.e2e_latencies.count:
            lines.append(
                "  end to end  p50 %.2f ms, p99 %.2f ms (invoke -> deliver)"
                % (
                    self.e2e_latencies.percentile(50) * 1000.0,
                    self.e2e_latencies.percentile(99) * 1000.0,
                )
            )
        lines.append(
            "  quiesced    %s" % ("yes" if self.quiesced else "NO (timeout)")
        )
        if self.fault_counters:
            lines.append(
                "  faults      "
                + ", ".join(
                    "%s=%d" % (k, v) for k, v in sorted(self.fault_counters.items())
                )
            )
        if self.retransmissions or self.duplicate_receives:
            lines.append(
                "  recovery    %d retransmissions, %d duplicates absorbed"
                % (self.retransmissions, self.duplicate_receives)
            )
        if self.redials or self.frames_shed or self.backpressure_signals:
            lines.append(
                "  resilience  %d re-dials, %d frames shed, %d backpressure signals"
                % (self.redials, self.frames_shed, self.backpressure_signals)
            )
        if self.observer_events:
            lines.append("  observer    %d events merged" % self.observer_events)
        if self.oracle is not None:
            verdicts = sorted(self.oracle["memberships"].items())
            lines.append(
                "  cross-key   %d sampled of %d: %s"
                % (
                    self.oracle["sampled"],
                    self.oracle["total"],
                    ", ".join("%s=%s" % verdict for verdict in verdicts) or "n/a",
                )
            )
        lines.append(
            "  violations  %s" % (self.violation if self.violation else "none")
        )
        for error in self.errors:
            lines.append("  error       %s" % error)
        return "\n".join(lines)


#: Fault-injection counters a host's STATS carries when it has a plan.
_FAULT_COUNTERS = ("packets_dropped", "packets_duplicated", "partition_drops", "spikes")


class LoadGenerator(ClusterClient):
    """Open-loop traffic over one connection per endpoint.

    A :class:`~repro.net.client.ClusterClient` (rendezvous, STATS /
    TRACE / METRICS pulls, DRAIN, quiesce, BYE) plus the paced invoke
    loop.  Message ``m<i>`` is drawn as a compact row (see
    :func:`~repro.net.codec.invoke_rows`) with a seeded ``(sender,
    receiver != sender)`` pair; each pacing tick writes one INVOKE_BATCH
    frame per endpoint, to the sender's host or, when READY said the
    endpoints are shard workers, to the shard of the row's ordering key.
    Ids are run-scoped: :meth:`connect` reads how many invokes the
    endpoints have already taken and numbering continues after them, so
    a second run against a cluster kept serving never re-offers an id it
    has seen.
    """

    def __init__(
        self,
        ports: Sequence[int],
        host: str = "127.0.0.1",
        run_id: str = "default",
        seed: int = 0,
        color_rate: float = 0.0,
        keys: Optional[int] = None,
    ) -> None:
        import random

        super().__init__(ports, host, run_id)
        self.seed = seed
        self.rng = random.Random(seed)
        self.color_rate = color_rate
        #: Draw each message's explicit ordering key from ``k0..k<keys-1>``
        #: (``None`` leaves keys implicit, i.e. per-channel).
        self.keys = keys
        self.requested = 0
        #: Invokes the endpoints had taken from earlier runs when this one
        #: connected: where its ids start.
        self._prior = 0
        self._taken = 0
        #: Optional :class:`repro.wal.WalSink` for resumable soak runs:
        #: one CHECKPOINT per pacing tick, so an interrupted soak resumes
        #: from its last progress marker (:meth:`fast_forward`).
        self.wal: Optional[Any] = None
        #: Row -> the index of the endpoint it is written to.
        self._route: Callable[[list], int] = lambda row: row[1]

    async def connect(self, timeout: float = 20.0) -> None:
        """Rendezvous, then number this run's messages after the invokes
        the endpoints already report."""
        await super().connect(timeout)
        if self.shards:
            # Imported here: the shard package drives load through this one.
            from repro.net.shard.router import ShardRouter

            shard_of = ShardRouter(self.shards).shard_of
            self._route = lambda row: shard_of(
                channel_key(row[1], row[2]) if row[3] is None else row[3]
            )
        self._taken = sum(int(s.get("invoked", 0)) for s in await self.stats())
        self._prior = max(0, self._taken - self.requested)

    def fast_forward(self, requested: int) -> None:
        """Re-draw the first ``requested`` messages (after :meth:`connect`)
        so the seeded RNG stream continues exactly where an interrupted
        run left off; what they were is this run's own earlier offer."""
        while self.requested < requested:
            self._next_row(0.0)
        self._prior = max(0, self._taken - self.requested)

    def last_checkpoint(self) -> Optional[Dict[str, Any]]:
        """The newest CHECKPOINT in the attached WAL, if any."""
        newest = None
        for record in self.wal.reload().records:
            if record.kind == wal_records.CHECKPOINT:
                newest = dict(record.body)
        return newest

    def _next_row(self, offered: float) -> list:
        """The next message as ``[id, sender, receiver, key, offered,
        color]``.  One uniform variate picks the ordered pair and the key
        together (``randrange`` costs about ten ``random`` calls)."""
        self.requested += 1
        n = self.n_processes
        pairs = n * (n - 1) or 1
        choice = int(self.rng.random() * pairs * (self.keys or 1))
        sender, receiver = divmod(choice % pairs, n - 1 or 1)
        if n > 1 and receiver >= sender:
            receiver += 1
        color = (
            "red"
            if self.color_rate and self.rng.random() < self.color_rate
            else None
        )
        key = "k%d" % (choice // pairs) if self.keys else None
        message_id = "m%d" % (self._prior + self.requested)
        return [message_id, sender, receiver, key, offered, color]

    async def run(
        self, rate: float, duration: float, closed_loop: bool = False
    ) -> None:
        """Offer ``rate`` msgs/sec for ``duration`` seconds.

        With ``closed_loop=True`` the generator honours the hosts'
        BACKPRESSURE signals: traffic for a host that reported ``high``
        is *held* (batched locally, order preserved) until it reports
        ``low`` again, so the offered load closes the loop on cluster
        capacity instead of burying a degraded host.

        An endpoint whose stream ended (a host that died) is re-dialed in
        the background; its rows are held until it is back, then written.
        """
        if rate <= 0 or duration <= 0:
            raise ValueError("rate and duration must be positive")
        loop = asyncio.get_running_loop()
        pacer = Pacer(rate, duration)
        start = loop.time()
        route = self._route
        sent = 0
        #: Rows drawn and not yet written, per endpoint: one tick's, or
        #: more while a paused or dead endpoint's wait.
        unsent: List[List[list]] = [[] for _ in self.links]
        #: Background re-dials, the newest per endpoint; every one is
        #: awaited before the run ends.
        redials: Dict[int, asyncio.Task] = {}
        dialed: List[asyncio.Task] = []
        async for tick in pacer.schedule():
            due = pacer.due(tick)
            offered = time.time()
            while sent < due:
                row = self._next_row(offered)
                unsent[route(row)].append(row)
                sent += 1
            for index, link in enumerate(self.links):
                if index in redials and not redials[index].done():
                    continue
                if not link.up:
                    redials[index] = loop.create_task(link.redial())
                    dialed.append(redials[index])
                elif unsent[index] and not (closed_loop and link.paused):
                    _write_rows(link, unsent[index])
                    unsent[index] = []
            if self.wal is not None:
                self.wal.checkpoint(
                    requested=self.requested,
                    elapsed=loop.time() - start,
                    seed=self.seed,
                )
        # Release anything still held once the re-dials are through: the
        # run is over, the hosts drain at their own pace (withholding
        # forever would lose messages).
        await asyncio.gather(*dialed, return_exceptions=True)
        for index, link in enumerate(self.links):
            if link.up:
                if unsent[index]:
                    _write_rows(link, unsent[index])
                await link.stream.drain()
        if self.wal is not None:
            self.wal.checkpoint(
                requested=self.requested,
                elapsed=loop.time() - start,
                seed=self.seed,
                done=True,
            )

    # -- reduction -----------------------------------------------------------

    def report(
        self,
        protocol: str,
        offered: int,
        baseline: List[Dict[str, Any]],
        stats: List[Dict[str, Any]],
        load_seconds: float,
        elapsed: float,
        quiesced: bool,
        observer: Optional[LiveObserver] = None,
    ) -> NetRunReport:
        """Reduce the endpoints' STATS bodies against the ones read when
        the run started (+ observer state) to a report of this run."""
        pairs = list(zip(baseline, stats))

        def grown(key: str) -> int:
            return sum(int(s.get(key, 0)) - int(b.get(key, 0)) for b, s in pairs)

        latency = Histogram("latency.delivery")
        e2e = Histogram("latency.end_to_end")
        errors = list(self.errors)
        violation = None
        for before, s in pairs:
            if isinstance(s.get("latencies"), dict):
                latency.merge(Histogram.from_wire(s["latencies"]))
            if isinstance(s.get("e2e_latencies"), dict):
                e2e.merge(Histogram.from_wire(s["e2e_latencies"]))
            # Error lines are append-only for an endpoint's life.
            errors.extend(s.get("errors", [])[len(before.get("errors", [])) :])
            violation = violation or s.get("violation")  # a lane checker's
        observer_events = 0
        if observer is not None:
            errors.extend(observer.errors)
            observer_events = observer.events_merged
            found = observer.violation
            if found is not None:
                violation = found if isinstance(found, str) else repr(found)
        return NetRunReport(
            protocol=protocol,
            n_processes=self.n_processes,
            offered=offered,
            invoked=grown("invoked"),
            delivered=grown("deliveries"),
            pending=sum(int(s.get("pending", 0)) for s in stats),
            load_seconds=load_seconds,
            elapsed=elapsed,
            quiesced=quiesced,
            latencies=latency,
            e2e_latencies=e2e,
            shards=self.shards,
            keys=self.keys,
            violation=violation,
            errors=errors,
            host_stats=stats,
            fault_counters={
                key: grown(key)
                for key in _FAULT_COUNTERS
                if any(key in s for s in stats)
            },
            retransmissions=grown("retransmissions"),
            duplicate_receives=grown("duplicate_receives"),
            observer_events=observer_events,
            redials=grown("redials"),
            frames_shed=grown("frames_shed"),
            backpressure_signals=self.backpressure_signals,
        )


# -- whole-cluster drivers ----------------------------------------------------


async def drive_run(
    load: LoadGenerator,
    observer: Optional[LiveObserver],
    protocol_name: str,
    rate: float,
    duration: float,
    quiesce_timeout: float = 30.0,
    *,
    oracle: bool = True,
    closed_loop: bool = False,
    beside: Optional[Awaitable[Any]] = None,
) -> NetRunReport:
    """The arc of one run over connected roles, hosts or a shard fleet.

    Offer load, DRAIN, quiesce, let the observer settle, close its
    verdict, reduce to a report -- then pull forensics if the observer
    found a violation, or, over shard workers and with ``oracle``, page
    back the delivered rows and judge them with the cross-key oracle.

    ``beside`` (a chaos plan) runs beside the load phase, and DRAIN
    waits for it: the load phase lasts until both are done.
    ``closed_loop`` is :meth:`LoadGenerator.run`'s.  ``duration <= 0``
    skips the load (a resumed soak that had already offered
    everything)."""
    # A kept cluster's counters -- and its error lines -- span its
    # earlier runs; the report is of this one.
    baseline = await load.stats()
    requested = load.requested
    started = time.monotonic()
    phase = [load.run(rate, duration, closed_loop)] if duration > 0 else []
    if beside is not None:
        phase.append(beside)
    await asyncio.gather(*phase)
    load_seconds = time.monotonic() - started
    await load.drain()
    quiesced, stats = await load.quiesce(timeout=quiesce_timeout, poll=0.05)
    elapsed = time.monotonic() - started  # not the verdict's own time
    if observer is not None:
        await observer.settle()
        observer.final_check()
    report = load.report(
        protocol_name,
        load.requested - requested,
        baseline,
        stats,
        load_seconds,
        elapsed,
        quiesced,
        observer=observer,
    )
    if load.shards and oracle:
        # Imported here: the shard package drives load through this module.
        from repro.net.shard.coordinator import collect, cross_key_oracle

        report.oracle = cross_key_oracle(await collect(load), load.n_processes)
    if observer is not None and observer.violation is not None:
        from repro.obs.forensics import build_forensics

        try:
            dumps = await load.traces()
        except (ConnectionError, codec.CodecError):
            dumps = []  # forensics degrade to the merged trace alone
        report.forensics = build_forensics(observer, dumps)
    return report


async def run_cluster(
    protocol_factory: Callable[[int, int], object],
    n_processes: int,
    *,
    protocol_name: str = "protocol",
    rate: float = 500.0,
    duration: float = 1.0,
    seed: int = 0,
    spec: Optional[Any] = None,
    faults: Optional[Any] = None,
    time_scale: float = DEFAULT_TIME_SCALE,
    color_rate: float = 0.0,
    quiesce_timeout: float = 30.0,
    run_id: Optional[str] = None,
    observability: bool = True,
    wal_dir: Optional[str] = None,
    record_dir: Optional[str] = None,
    spec_name: Optional[str] = None,
    keys: Optional[int] = None,
) -> NetRunReport:
    """One complete networked run with every role in this process.

    The hosts still talk to each other over real loopback TCP sockets --
    only the OS-process boundary is collapsed, which is what tests and
    benchmarks want (no interpreter startup noise, full determinism of
    the seeded workload).  ``repro serve`` / ``repro load`` provide the
    process-per-host deployment of the same pieces.

    ``wal_dir`` gives every host a per-process WAL segment directory
    (``<wal_dir>/p<i>``) -- durable crash recovery.  ``record_dir``
    records the *observer's* merged view of the run
    (:meth:`LiveObserver.record`).
    """
    run_id = run_id or "inline-%d" % seed
    ports = free_ports(n_processes)
    wal_meta = {"protocol": protocol_name}
    if spec_name:
        wal_meta["spec"] = spec_name
    hosts = [
        NetHost(
            protocol_factory,
            process_id,
            ports,
            run_id=run_id,
            faults=faults,
            time_scale=time_scale,
            observability=observability,
            wal_dir=wal_dir,
            wal_meta=wal_meta if wal_dir is not None else None,
        )
        for process_id in range(n_processes)
    ]
    observer = (
        LiveObserver(n_processes, spec=spec)
        if spec is not None or record_dir is not None
        else None
    )
    if record_dir is not None:
        observer.record(
            record_dir,
            {"run": run_id, "processes": n_processes, "seed": seed, **wal_meta},
        )
    load = LoadGenerator(
        ports, run_id=run_id, seed=seed, color_rate=color_rate, keys=keys
    )
    try:
        for host in hosts:
            await host.start()
        await asyncio.gather(*(host.ready() for host in hosts))
        if observer is not None:
            await observer.connect(ports, run_id=run_id)
        await load.connect()
        report = await drive_run(
            load, observer, protocol_name, rate, duration, quiesce_timeout
        )
        for host in hosts:
            report.errors.extend(host.errors)
        return report
    finally:
        await load.close()
        if observer is not None:
            await observer.close()
        for host in hosts:
            await host.shutdown()


def run_cluster_sync(*args: Any, **kwargs: Any) -> NetRunReport:
    """:func:`run_cluster` from synchronous code (tests, benchmarks)."""
    return asyncio.run(run_cluster(*args, **kwargs))
