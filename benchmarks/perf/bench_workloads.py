"""The six workloads and their end-to-end (untraced) runs.

Each workload stresses a different set of layers, so an optimisation has
one row that exercises its mechanism and one that bypasses it
(choosing-metrics §5).  ``N`` is part of every definition: per-message
cost on this stack grows with a host's history, so throughput at another
``N`` is another number.

A run is time-boxed by ``--seconds``: a workload repeats its fixed-size
rep on fresh state until the time is spent and reports the median rep,
every time first converted to reference seconds (:class:`ReferenceClock`).
"""

from __future__ import annotations

import asyncio
import gc
import heapq
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.events import Message
from repro.mc.mutations import mutation_factories
from repro.net.shard import run_sharded
from repro.predicates.catalog import FIFO_ORDERING
from repro.protocols.registry import catalogue_entry
from repro.simulation.runner import run_simulation
from repro.wal import WalSink, replay_log

import bench_inputs
import bench_tcp
from bench_tcp import FULL, SHIPPED, ClusterFactory, Planes

Metric = Tuple[float, str]

#: Seconds a paced rep offers load for.
PACED_SECONDS = 0.75
MIN_REPS = 3
#: Seconds of ``--seconds`` kept back for teardown and the report.
RESERVE_SECONDS = 0.5
#: Times verify-replay's set-up (simulate + record) is repeated.
SETUP_REPS = 5
#: Seconds :func:`calibration_block` takes at this box's usual pace; a
#: constant, so that reference seconds read like seconds here.
REFERENCE_SECONDS = 0.003
#: Blocks per sample of the pace.
CALIBRATION_BLOCKS = 3


@dataclass(frozen=True)
class RunContext:
    """The arguments of one invocation."""

    seed: int
    seconds: float
    work_dir: str
    #: Seconds the imports took before ``main`` ran (part of ``setup_s``).
    import_seconds: float = 0.0
    #: Shrinks every workload's size (the self-test runs at 1/20).
    scale: float = 1.0
    #: ``time.perf_counter()`` when the command started: ``--seconds``
    #: covers the whole invocation, set-up and checks included.
    started: float = field(default_factory=time.perf_counter)

    def sized(self, count: int, floor: int = 20) -> int:
        return max(floor, int(count * self.scale))

    def wants_more_reps(self, done: int, rep_seconds: float) -> bool:
        """Whether another rep as long as the last one still fits."""
        deadline = self.started + self.seconds - RESERVE_SECONDS
        return done < MIN_REPS or time.perf_counter() + rep_seconds < deadline


@dataclass
class RunResult:
    """What one benchmark invocation measured."""

    metrics: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Every rep's raw value per series, for the results file.
    raw: Dict[str, List[float]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.failures

    def count(self, attempted: int, failed: int, reasons: Sequence[str] = ()) -> None:
        self.attempted += attempted
        self.failed += failed
        self.failures.extend(reasons)


def total_cpu_seconds() -> float:
    """CPU time of this process plus its reaped children."""
    mine = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return mine.ru_utime + mine.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of the bench process plus its largest child."""
    mine = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (mine + kids) / 1024.0


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


class _Event:
    __slots__ = ("at", "src", "dst", "tag")

    def __init__(self, at: int, src: int, dst: int, tag: Tuple[int, ...]) -> None:
        self.at, self.src, self.dst, self.tag = at, src, dst, tag

    def __lt__(self, other: "_Event") -> bool:
        return self.at < other.at


def calibration_block() -> float:
    """Seconds a fixed piece of interpreter work takes right now: a heap
    of small objects, dict and tuple churn, a JSON round trip.  It uses
    nothing of the program under test."""
    started = time.perf_counter()
    heap: List[_Event] = []
    seen: Dict[str, Any] = {}
    for index in range(1500):
        heapq.heappush(
            heap,
            _Event(index * 7919 % 1000, index % 3, (index + 1) % 3, (index, index + 1)),
        )
        if index % 3 == 2:
            event = heapq.heappop(heap)
            seen["m%d" % index] = (event.src, event.dst, event.tag, len(seen))
    for index in range(150):
        body = {"id": "m%d" % index, "src": index % 3, "tag": [index, index + 1], "sent": index * 0.5}
        seen["j%d" % index] = json.loads(json.dumps(body))
    return time.perf_counter() - started


class ReferenceClock:
    """Converts measured seconds to **reference seconds**: what the work
    would have taken had the box run at its reference pace throughout.

    This box is a shared VM whose speed wanders by a factor of two from
    one moment to the next and by 30% from one ten minutes to the next,
    the same for all interpreter work: ten runs of one commit spread up
    to 29% (interquartile range over median) in measured seconds whether
    reduced by the median rep, the best rep or per-segment minima over
    30-100 reps.  Timing a fixed block of unrelated interpreter work
    (:func:`calibration_block`) next to each rep and dividing by it
    brought that to 2-12%.  Every end-to-end time is therefore a
    ratio of two measurements -- the rep over the blocks around it --
    times the constant ``REFERENCE_SECONDS`` that keeps the unit.
    """

    def __init__(self) -> None:
        self.paces = [self._pace()]

    @staticmethod
    def _pace() -> float:
        blocks = [calibration_block() for _ in range(CALIBRATION_BLOCKS)]
        return sum(blocks) / len(blocks)

    def scale(self) -> float:
        """Factor for everything measured since the previous call (or
        construction): the reference pace over the mean of the pace
        sampled before and the pace sampled now."""
        self.paces.append(self._pace())
        return REFERENCE_SECONDS / ((self.paces[-2] + self.paces[-1]) / 2)

    def report(self, result: "RunResult") -> None:
        """State the conversion in the run's notes; keep every sample."""
        result.raw["pace_s"] = self.paces
        result.notes.append(
            "times are in reference seconds: the calibration block took %.2f ms "
            "(median of %d samples around the reps) against %.2f ms reference, so "
            "measured times were scaled by about %.2f"
            % (
                1e3 * median(self.paces),
                len(self.paces),
                1e3 * REFERENCE_SECONDS,
                REFERENCE_SECONDS / median(self.paces),
            )
        )


def end_to_end(
    result: RunResult,
    *,
    msgs_per_s: float,
    cpu_us_per_msg: float,
    latency_p50_ms: float,
    setup_s: Sequence[float],
    import_seconds: float,
) -> None:
    """The five end-to-end metrics; set-up is the median of its reps."""
    result.raw["setup_s"] = [import_seconds + value for value in setup_s]
    result.metrics.update(
        msgs_per_s=(msgs_per_s, "msgs/s"),
        cpu_us_per_msg=(cpu_us_per_msg, "us"),
        latency_p50_ms=(latency_p50_ms, "ms"),
        peak_rss_mb=(peak_rss_mb(), "MB"),
        setup_s=(import_seconds + median(setup_s), "s"),
    )


# -- tcp ----------------------------------------------------------------------


@dataclass(frozen=True)
class TcpWorkload:
    name: str
    why: str
    protocol: str
    n_processes: int
    planes: Planes
    sat_messages: int
    #: Messages of the lap with one in flight: a whole number of rounds
    #: over the sender-receiver pairs.
    lone_messages: int
    #: Offered rate of the traced run's open-loop rep.
    paced_rate: float

    def scripts(
        self, context: RunContext
    ) -> Tuple[List[Message], List[Message], List[Message]]:
        """The seed's (sat, lone, paced) scripts; ids never collide."""
        sat, lone, paced = (
            bench_inputs.message_script(
                context.seed,
                "%s:%s" % (self.name, purpose),
                self.n_processes,
                context.sized(count),
                prefix=purpose[0],
            )
            for purpose, count in (
                ("sat", self.sat_messages),
                ("lone", self.lone_messages),
                ("paced", int(self.paced_rate * PACED_SECONDS)),
            )
        )
        return sat, lone, paced

    def describe_inputs(self, seed: int) -> List[str]:
        sat, lone, paced = self.scripts(RunContext(seed, 0.0, ""))
        ports = bench_inputs.port_candidates(seed, self.name)
        return (
            [repr(message) for message in sat + lone + paced]
            + ["port %d" % next(ports) for _ in range(4)]
        )

    def run(self, context: RunContext) -> RunResult:
        return asyncio.run(self._run(context))

    async def _run(self, context: RunContext) -> RunResult:
        result = RunResult(notes=[bench_tcp.ENVIRONMENT])
        sat_script, lone_script, _ = self.scripts(context)
        clusters = ClusterFactory(context.seed, self.name, context.work_dir)
        # Per rep, in reference seconds (measured = reference / scale).
        scales: List[float] = []
        setups: List[float] = []
        walls: List[float] = []
        cpus: List[float] = []
        p50s: List[float] = []
        clock = ReferenceClock()
        # A rep is one fresh cluster: a lap with one message in flight
        # (latency), then the closed loop at the full window (capacity).
        rep_seconds = 0.0
        while context.wants_more_reps(len(walls), rep_seconds):
            started = time.perf_counter()
            cluster = clusters.make(self.protocol, self.n_processes, self.planes)
            ports_seconds = time.perf_counter() - started
            rep = await bench_tcp.run_rep(
                cluster,
                sat_script,
                lone_script=lone_script,
                # Quadratic in the prefix, so once per run, not per rep.
                check_spec=not walls,
            )
            result.count(rep.messages, rep.failed, rep.reasons)
            scale = clock.scale()
            scales.append(scale)
            setups.append(scale * (ports_seconds + rep.setup_seconds))
            walls.append(scale * rep.sample.wall_seconds)
            cpus.append(scale * rep.sample.cpu_seconds)
            p50s.append(
                scale * bench_tcp.percentile(list(rep.lone.latencies.values()), 50)
            )
            rep_seconds = time.perf_counter() - started

        messages = len(sat_script)
        end_to_end(
            result,
            msgs_per_s=messages / median(walls),
            cpu_us_per_msg=1e6 * median(cpus) / messages,
            latency_p50_ms=1e3 * median(p50s),
            setup_s=setups,
            import_seconds=context.import_seconds,
        )
        result.raw.update(
            scale=scales,
            msgs_per_s=[messages / wall for wall in walls],
            cpu_us_per_msg=[1e6 * cpu / messages for cpu in cpus],
            latency_p50_ms=[1e3 * p50 for p50 in p50s],
        )
        clock.report(result)
        result.notes.append(
            "%d reps, each a fresh cluster: %d messages one at a time, then N=%d "
            "closed loop at the window; medians over reps"
            % (len(walls), len(lone_script), messages)
        )
        return result


# -- shard ----------------------------------------------------------------------


def interpolated_percentile(wire: Dict[str, Any], p: float) -> float:
    """Percentile from a :meth:`Histogram.to_wire` body, log-interpolated
    inside the bucket that holds the rank.

    ``Histogram.percentile`` answers with the bucket midpoint, which
    moves in 9% steps (8 buckets per octave): two runs either read
    identically or a whole step apart.  Interpolating by rank position
    within the bucket gives a continuous estimate from the same data.
    """
    from repro.obs.metrics import BUCKETS_PER_OCTAVE

    if "samples" in wire:
        return bench_tcp.percentile(wire["samples"], p)
    count = int(wire.get("count", 0))
    if not count:
        return 0.0
    rank = max(1.0, p / 100.0 * count)
    seen = float(wire.get("zero", 0))
    if rank <= seen:
        return float(wire.get("min", 0.0))
    for index, bucket_count in wire.get("buckets", []):
        if rank <= seen + bucket_count:
            position = (rank - seen) / bucket_count
            value = 2.0 ** ((index + position) / BUCKETS_PER_OCTAVE)
            return min(max(value, float(wire["min"])), float(wire["max"]))
        seen += bucket_count
    return float(wire.get("max", 0.0))


@dataclass
class ShardArc:
    report: Any  # repro.net.shard.ShardRunReport
    #: Wall seconds outside the driven window: spawn, rendezvous, teardown.
    outside_seconds: float
    #: CPU of the coordinator (this process) plus the reaped worker.
    cpu_seconds: float
    coordinator_share: float


@dataclass(frozen=True)
class ShardWorkload:
    name: str
    why: str
    n_processes: int
    keys: int
    sat_rate: float
    sat_duration: float
    paced_rate: float

    def describe_inputs(self, seed: int) -> List[str]:
        ports = bench_inputs.port_candidates(seed, self.name)
        return ["coordinator seed %d" % bench_inputs.sub_seed(seed, self.name)] + [
            "port %d" % next(ports) for _ in range(4)
        ]

    def run(self, context: RunContext) -> RunResult:
        return asyncio.run(self._run(context))

    async def one_arc(
        self, result: RunResult, ports: Any, seed: int, rate: float, duration: float
    ) -> "ShardArc":
        """One spawn -> load -> drain -> teardown, judged into ``result``."""
        (port,) = bench_inputs.free_ports(ports, 1)
        gc.collect()
        mine_before = time.process_time()
        cpu_before = total_cpu_seconds()
        started = time.perf_counter()
        report = await run_sharded(
            1,
            rate,
            duration,
            n_processes=self.n_processes,
            keys=self.keys,
            oracle=False,
            seed=seed,
            port_base=port,
        )
        wall = time.perf_counter() - started
        cpu = total_cpu_seconds() - cpu_before
        mine = time.process_time() - mine_before
        if report.ok and report.invoked == report.offered:
            result.count(report.offered, report.offered - report.delivered)
        else:
            result.count(
                report.offered,
                report.offered,
                [
                    "shard run not clean: violation=%r errors=%r pending=%d invoked=%d/%d"
                    % (
                        report.violation,
                        report.errors[:2],
                        report.pending,
                        report.invoked,
                        report.offered,
                    )
                ],
            )
        return ShardArc(report, wall - report.elapsed, cpu, mine / cpu if cpu else 0.0)

    async def _run(self, context: RunContext) -> RunResult:
        seed = context.seed
        sat_duration = self.sat_duration * context.scale
        result = RunResult(
            notes=[
                "1 shard: coordinator + 1 worker process; the worker's %d lanes are "
                "co-located and hand batches over inline -- only coordinator -> "
                "worker crosses a socket" % self.n_processes
            ],
        )
        ports = bench_inputs.port_candidates(seed, self.name)
        load_seed = bench_inputs.sub_seed(seed, self.name)
        walls: List[float] = []
        cpus: List[float] = []
        setups: List[float] = []
        p50s: List[float] = []
        clock = ReferenceClock()
        pair_seconds = 0.0
        while context.wants_more_reps(len(walls), pair_seconds):
            started = time.perf_counter()
            arc = await self.one_arc(
                result, ports, load_seed, self.sat_rate, sat_duration
            )
            scale = clock.scale()
            delivered = max(1, arc.report.delivered)
            walls.append(scale * arc.report.elapsed / delivered)
            cpus.append(scale * arc.cpu_seconds / delivered)
            setups.append(scale * arc.outside_seconds)
            arc = await self.one_arc(
                result, ports, load_seed, self.paced_rate, PACED_SECONDS * context.scale
            )
            scale = clock.scale()
            p50s.append(
                scale * interpolated_percentile(arc.report.latencies.to_wire(), 50)
            )
            setups.append(scale * arc.outside_seconds)
            pair_seconds = time.perf_counter() - started
        end_to_end(
            result,
            msgs_per_s=1.0 / median(walls),
            cpu_us_per_msg=1e6 * median(cpus),
            latency_p50_ms=1e3 * median(p50s),
            setup_s=setups,
            import_seconds=context.import_seconds,
        )
        result.raw.update(
            msgs_per_s=[1.0 / wall for wall in walls],
            cpu_us_per_msg=[1e6 * cpu for cpu in cpus],
            latency_p50_ms=[1e3 * p50 for p50 in p50s],
        )
        clock.report(result)
        result.notes.append(
            "sat: %d arcs offered at %g/s for %.2fs (faster than they can be taken); "
            "paced: %d arcs at %g/s, latency from the run report's histogram "
            "(row generation -> deliver, 1 in 4 sampled)"
            % (len(walls), self.sat_rate, sat_duration, len(p50s), self.paced_rate)
        )
        return result


# -- replay ----------------------------------------------------------------------


@dataclass(frozen=True)
class ReplayLog:
    protocol: str
    n_processes: int
    messages: int


@dataclass(frozen=True)
class ReplayWorkload:
    name: str
    why: str
    logs: Tuple[ReplayLog, ...]
    broken_messages: int

    def describe_inputs(self, seed: int) -> List[str]:
        shapes = [(log.protocol, log.n_processes, log.messages) for log in self.logs]
        lines = []
        for purpose, n_processes, messages in shapes + [("broken", 3, self.broken_messages)]:
            workload = bench_inputs.sim_workload(
                seed, self.name + ":" + purpose, n_processes, messages
            )
            lines.extend(repr(request) for request in workload.requests)
        return lines

    def record(
        self, context: RunContext, directory: str
    ) -> Tuple[List[Tuple[str, Any, int]], str]:
        """Simulate and record the clean logs and the seeded broken-fifo
        log under ``directory``; returns ([(dir, spec, messages)], broken)."""
        seed = context.seed
        recorded = []
        for log in self.logs:
            entry = catalogue_entry(log.protocol)
            count = context.sized(log.messages)
            target = os.path.join(directory, log.protocol)
            record_simulation(
                entry.factory,
                log.protocol,
                entry.spec,
                bench_inputs.sim_workload(
                    seed, self.name + ":" + log.protocol, log.n_processes, count
                ),
                bench_inputs.sub_seed(seed, self.name + ":" + log.protocol),
                target,
            )
            recorded.append((target, entry.spec, count))
        broken = os.path.join(directory, "broken-fifo")
        workload = bench_inputs.sim_workload(
            seed, self.name + ":broken", 3, self.broken_messages
        )
        # The mutation only misorders when the network reorders one
        # channel; walk network seeds until the batch checker (the
        # reference, not the monitor under test) rejects the run.
        for attempt in range(50):
            shutil.rmtree(broken, ignore_errors=True)
            run = record_simulation(
                mutation_factories()["broken-fifo"],
                "broken-fifo",
                FIFO_ORDERING,
                workload,
                bench_inputs.sub_seed(seed, "%s:broken:%d" % (self.name, attempt)),
                broken,
            )
            if not FIFO_ORDERING.admits(run.user_run):
                return recorded, broken
        raise RuntimeError("no seeded broken-fifo run violated fifo")

    def run(self, context: RunContext) -> RunResult:
        result = RunResult(
            notes=[
                "no sockets, no asyncio: replay_log(dir, spec) on "
                + " + ".join(
                    "%s/%d procs/%d msgs" % (log.protocol, log.n_processes, log.messages)
                    for log in self.logs
                )
            ],
        )
        base = os.path.join(context.work_dir, "replay")
        setups: List[float] = []
        clock = ReferenceClock()
        try:
            for rep in range(SETUP_REPS):
                started = time.perf_counter()
                recorded, broken = self.record(context, os.path.join(base, str(rep)))
                spent = time.perf_counter() - started
                setups.append(clock.scale() * spent)
            messages = sum(count for _, _, count in recorded)
            # Per job, in reference seconds; the pace is sampled around
            # every replay, so each is scaled by its own neighbourhood.
            walls: List[float] = []
            cpus: List[float] = []
            firsts: List[float] = []
            job_seconds = 0.0
            while context.wants_more_reps(len(walls), job_seconds):
                job_started = time.perf_counter()
                gc.collect()
                clock.scale()
                cpu = 0.0
                verdicts: List[float] = []
                for directory, spec, count in recorded:
                    cpu_before = time.process_time()
                    started = time.perf_counter()
                    replay = replay_log(directory, spec)
                    spent = time.perf_counter() - started
                    burnt = time.process_time() - cpu_before
                    scale = clock.scale()
                    verdicts.append(scale * spent)
                    cpu += scale * burnt
                    if replay.violation is None and replay.trace.record_count == 4 * count:
                        result.count(count, 0)
                    else:
                        result.count(
                            count,
                            count,
                            [
                                "replay of the clean %s log: violation=%r, %d events"
                                % (spec.name, replay.violation, replay.trace.record_count)
                            ],
                        )
                flagged = replay_log(broken, FIFO_ORDERING).violation is not None
                walls.append(sum(verdicts))
                cpus.append(cpu)
                firsts.append(verdicts[0])
                result.count(
                    self.broken_messages,
                    0 if flagged else self.broken_messages,
                    () if flagged else ["the seeded broken-fifo log was not flagged"],
                )
                job_seconds = time.perf_counter() - job_started
        finally:
            shutil.rmtree(base, ignore_errors=True)
        # A job judges every log once.  The latency is the time to a
        # verdict on the first log; the time to flag the broken one is not
        # a metric because it depends on where the seed put the violation
        # (16-34 ms across ten seeds).
        end_to_end(
            result,
            msgs_per_s=messages / median(walls),
            cpu_us_per_msg=1e6 * median(cpus) / messages,
            latency_p50_ms=1e3 * median(firsts),
            setup_s=setups,
            import_seconds=context.import_seconds,
        )
        result.raw.update(
            msgs_per_s=[messages / wall for wall in walls],
            cpu_us_per_msg=[1e6 * cpu / messages for cpu in cpus],
            latency_p50_ms=[1e3 * first for first in firsts],
        )
        clock.report(result)
        result.notes.append(
            "%d verification jobs of %d messages, each also flagging the seeded "
            "broken-fifo log (%d messages); latency = time to a verdict on the %s "
            "log; set-up = simulate + record, %d times; medians"
            % (
                len(walls),
                messages,
                self.broken_messages,
                self.logs[0].protocol,
                SETUP_REPS,
            )
        )
        return result


def record_simulation(
    factory: Any, protocol: str, spec: Any, workload: Any, seed: int, directory: str
) -> Any:
    """``run_simulation`` recorded into a WAL at ``directory``."""
    sink = WalSink(
        directory,
        meta={
            "protocol": protocol,
            "processes": workload.n_processes,
            "spec": spec.name,
        },
    )
    try:
        return run_simulation(factory, workload, seed=seed, wal=sink)
    finally:
        sink.close()


# -- the table ---------------------------------------------------------------------

WORKLOADS: Dict[str, Any] = {
    workload.name: workload
    for workload in (
        TcpWorkload(
            name="tcp-fifo-3",
            why="cheapest protocol with every plane on, so host, codec, transport, "
            "obs, wal and ARQ do nearly all the work: the data-plane baseline",
            protocol="fifo",
            n_processes=3,
            planes=FULL,
            sat_messages=1000,
            lone_messages=120,
            paced_rate=400.0,
        ),
        TcpWorkload(
            name="tcp-causal-8",
            why="8x8 matrix tag per message and a hold-back queue: protocol and "
            "codec (tag bytes) dominate, which they do not on tcp-fifo-3",
            protocol="causal-rst",
            n_processes=8,
            planes=FULL,
            sat_messages=500,
            lone_messages=112,
            paced_rate=200.0,
        ),
        TcpWorkload(
            name="tcp-sync-3",
            why="general class: ~3 control frames per message and latency made of "
            "round trips, so batching that helps the tagged rows shows its cost here",
            protocol="sync-coord",
            n_processes=3,
            planes=FULL,
            sat_messages=300,
            lone_messages=120,
            paced_rate=150.0,
        ),
        TcpWorkload(
            name="tcp-fifo-3-soak",
            why="fifo as run_cluster ships it (no ARQ, no WAL) at 4x the history: "
            "isolates cost that grows with the run; ARQ/WAL changes must not move it",
            protocol="fifo",
            n_processes=3,
            planes=SHIPPED,
            sat_messages=8000,
            lone_messages=120,
            paced_rate=400.0,
        ),
        ShardWorkload(
            name="shard-fifo-1",
            why="the separate lane stack (inline lanes, batched frames, O(1) "
            "checkers): single-host changes must not move it until the planes merge",
            n_processes=4,
            keys=64,
            sat_rate=1e6,
            sat_duration=0.3,
            paced_rate=30000.0,
        ),
        ReplayWorkload(
            name="verify-replay",
            why="replay_log on recorded fifo and causal logs: verification.engine "
            "does >85% of the work, WAL is read here and written on the tcp rows",
            logs=(ReplayLog("fifo", 3, 200), ReplayLog("causal-rst", 8, 100)),
            broken_messages=120,
        ),
    )
}
