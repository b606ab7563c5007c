"""The traced run: every per-layer metric BENCHMARK.json lists.

Four groups, all measured from this directory's files:

traced rep
    one sat rep of the workload's tcp shape with the span wrappers of
    :mod:`bench_spans` installed: self time per layer, the residual
    (event loop + syscalls + the driver), counts at the same boundaries,
    and the tracing overhead against untraced reps of the same shape.
    ``shard-fifo-1`` and ``verify-replay`` have no tcp shape of their
    own; their traced run uses the reference shape ``tcp-fifo-3``.
plane toggles
    the ``tcp-fifo-3`` shape with one plane off per run against all-on.
isolated calls
    single layer entry points on fixed inputs.
driver health
    how late the paced generator ran, unloaded latency, rep spread, and
    the box's pace against the reference.

Per-layer numbers are attribution, not verdicts: they carry no bound,
and on a shared 2-core box a single rep wobbles +-15%.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import gc
import os
import shutil
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.events import Message
from repro.net import codec
from repro.net.shard.lanes import lane_checker
from repro.net.shard.router import ShardRouter
from repro.obs.bus import Bus
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import Histogram, MetricsRecorder
from repro.obs.watchdog import Watchdog
from repro.predicates.catalog import (
    CAUSAL_ORDERING,
    FIFO_ORDERING,
    LOGICALLY_SYNCHRONOUS,
    k_weaker_causal_spec,
)
from repro.protocols.registry import catalogue_entry
from repro.simulation.runner import run_simulation
from repro.simulation.trace import Trace
from repro.verification.engine import SpecMonitor
from repro.wal import SegmentWriter, read_log, replay_log, trace_from_records
from repro.wal.records import event_record

import bench_inputs
import bench_spans
import bench_tcp
import bench_workloads
from bench_tcp import FULL, ClusterFactory, Planes
from bench_workloads import (
    PACED_SECONDS,
    REFERENCE_SECONDS,
    WORKLOADS,
    ReferenceClock,
    RunContext,
    RunResult,
    TcpWorkload,
    median,
)

RESULTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: The plane toggles and the monitor run are sized below the workload's
#: own N so the whole traced run fits one invocation.
TOGGLE_MESSAGES = 800
TOGGLE_ROUNDS = 2
MONITOR_MESSAGES = 250
UNLOADED_MESSAGES = 300
UNTRACED_REPS = 2

#: Events fed to the incremental monitor for the append micro: cost per
#: append around event HIGH, and its growth against event LOW.  The
#: k-weaker(2) search is O(n^3) per event (355 ms per append by event
#: 400 of a 100-message run), so its points sit lower.
ENGINE_POINTS = {
    "fifo": ("fifo", FIFO_ORDERING, 800, 200),
    "causal": ("causal-rst", CAUSAL_ORDERING, 800, 200),
    "k-weaker2": ("k-weaker(2)", k_weaker_causal_spec(2), 120, 30),
    "sync": ("sync-coord", LOGICALLY_SYNCHRONOUS, 800, 200),
}


def run(workload: Any, context: RunContext) -> RunResult:
    shape = workload if isinstance(workload, TcpWorkload) else WORKLOADS["tcp-fifo-3"]
    result = RunResult(
        notes=[
            bench_tcp.ENVIRONMENT,
            "traced shape: %s (N=%d)"
            % (shape.name, context.sized(shape.sat_messages)),
        ],
    )
    # Per-layer times stay in measured seconds; this is the factor the
    # end-to-end run would have applied while this one ran.
    clock = ReferenceClock()
    asyncio.run(_cluster_groups(shape, context, result))
    clock.scale()
    asyncio.run(_shard_counts(context, result))
    clock.scale()
    _isolated_calls(context, result)
    clock.scale()
    put(result, "driver.machine_pace", REFERENCE_SECONDS / median(clock.paces), "ratio")
    attempted = max(1, result.attempted)
    result.metrics["driver.failed_share"] = (result.failed / attempted, "ratio")
    return result


def put(result: RunResult, name: str, value: float, unit: str) -> None:
    result.metrics[name] = (float(value), unit)


# -- groups that need clusters ---------------------------------------------------


async def _one_rep(
    clusters: ClusterFactory,
    result: RunResult,
    protocol: str,
    n_processes: int,
    planes: Planes,
    script: Sequence[Message],
    *,
    tracer: "bench_spans.Tracer | None" = None,
    **drive: Any,
) -> Tuple[Any, Dict[str, float]]:
    """One judged rep on a fresh cluster; with a tracer, under spans."""
    if tracer is None:
        cluster = clusters.make(protocol, n_processes, planes)
        rep = await bench_tcp.run_rep(cluster, script, **drive)
    else:
        tracer.install()
        try:
            cluster = clusters.make(protocol, n_processes, planes, tracer.build_factory)
            cluster.listener_wrap = lambda listener: tracer.wrap(
                listener, bench_spans.DRIVER, "on_deliver"
            )
            rep = await bench_tcp.run_rep(cluster, script, **drive)
        finally:
            tracer.remove()
    result.count(rep.messages, rep.failed, rep.reasons)
    return rep.sample, rep.counters


async def _cluster_groups(shape: TcpWorkload, context: RunContext, result: RunResult) -> None:
    clusters = ClusterFactory(context.seed, "layers:" + shape.name, context.work_dir)
    sat_script, _, paced_script = shape.scripts(context)
    messages = len(sat_script)
    rep = functools.partial(_one_rep, clusters, result)
    workload_rep = functools.partial(
        rep, shape.protocol, shape.n_processes, shape.planes
    )

    # Traced rep between untraced ones, so drift hits both alike.
    untraced = [(await workload_rep(sat_script))[0]]
    tracer = bench_spans.Tracer()
    traced, counters = await workload_rep(sat_script, tracer=tracer)
    untraced += [
        (await workload_rep(sat_script))[0] for _ in range(UNTRACED_REPS - 1)
    ]
    os.makedirs(RESULTS, exist_ok=True)
    tracer.write(os.path.join(RESULTS, "spans-%s.tsv" % shape.name))
    if tracer.missing:
        result.notes.append("untraced (not found): " + ", ".join(tracer.missing))

    layer_metric = {
        bench_spans.PROTOCOLS: "protocols.self_us_per_msg",
        bench_spans.RELIABLE: "protocols.reliable.self_us_per_msg",
        bench_spans.ENCODE: "net.codec.encode_self_us_per_msg",
        bench_spans.DECODE: "net.codec.decode_self_us_per_msg",
        bench_spans.TRANSPORT: "net.transport.self_us_per_msg",
        bench_spans.HOST: "net.host.self_us_per_msg",
        bench_spans.OBS: "obs.self_us_per_msg",
        bench_spans.WAL: "wal.self_us_per_msg",
    }
    accounted = 0.0
    for layer, name in layer_metric.items():
        per_message = tracer.self_us(layer) / messages
        accounted += per_message
        put(result, name, per_message, "us")
    # Spans are wall-clock (a CPU clock is a syscall per read, four reads
    # per span) and an fsync wait is wall, not CPU, so the budget closes
    # on wall time per message; the CPU figure is reported beside it.
    span_overhead = tracer.overhead_ns / 1e3 / messages
    wall_us_per_msg = 1e6 * traced.wall_seconds / messages
    put(result, "trace.wall_us_per_msg", wall_us_per_msg, "us")
    put(result, "trace.cpu_us_per_msg", traced.cpu_us_per_msg, "us")
    put(result, "trace.span_overhead_us_per_msg", span_overhead, "us")
    put(
        result,
        "trace.residual_us_per_msg",
        wall_us_per_msg - accounted - span_overhead,
        "us",
    )
    put(result, "trace.spans_per_msg", len(tracer.spans) / messages, "count")
    untraced_rate = median([sample.msgs_per_s for sample in untraced])
    put(result, "trace.overhead_ratio", traced.msgs_per_s / untraced_rate, "ratio")
    rates = [sample.msgs_per_s for sample in untraced]
    put(result, "driver.rep_spread", (max(rates) - min(rates)) / untraced_rate, "ratio")

    per_message = {
        "net.codec.frames_per_msg": ("frames", "count"),
        "net.codec.wire_bytes_per_msg": ("wire_bytes", "B"),
        "protocols.reliable.retransmits_per_msg": ("retransmits", "count"),
        "protocols.reliable.duplicates_per_msg": ("duplicates", "count"),
        "wal.records_per_msg": ("wal_records", "count"),
        "wal.bytes_per_msg": ("wal_bytes", "B"),
        "obs.flight_records_per_msg": ("flight_records", "count"),
    }
    for name, (counter, unit) in per_message.items():
        put(result, name, counters[counter] / messages, unit)
    put(result, "net.host.backpressure_signals", counters["backpressure_signals"], "count")
    put(result, "net.host.frames_shed", counters["frames_shed"], "count")
    inner = tracer.counts
    put(result, "protocols.control_msgs_per_msg", inner["inner_control"] / messages, "count")
    put(
        result,
        "protocols.holdback_share",
        inner["inner_held_back"] / max(1, inner["inner_deliveries"]),
        "ratio",
    )
    put(
        result,
        "net.host.late_early_cost_ratio",
        median([sample.late_early_cost_ratio for sample in untraced]),
        "ratio",
    )

    # Driver health, on the workload's own shape.
    paced, _ = await workload_rep(paced_script, paced_rate=shape.paced_rate)
    put(result, "driver.sched_lag_p50_ms", paced.lag_ms(50), "ms")
    put(result, "driver.sched_lag_p99_ms", paced.lag_ms(99), "ms")
    put(result, "driver.paced_latency_p50_ms", paced.latency_ms(50), "ms")
    put(result, "driver.paced_latency_p90_ms", paced.latency_ms(90), "ms")
    put(result, "driver.paced_latency_p99_ms", paced.latency_ms(99), "ms")
    unloaded_script = sat_script[: context.sized(UNLOADED_MESSAGES)]
    unloaded, _ = await workload_rep(unloaded_script, window=1)
    put(
        result,
        "driver.unloaded_latency_us",
        1e6 * unloaded.wall_seconds / len(unloaded_script),
        "us",
    )

    await _plane_toggles(context, result, rep)
    put(
        result,
        "net.transport.loopback_floor_us_per_frame",
        await _loopback_floor(clusters, context.sized(4000)),
        "us",
    )


async def _plane_toggles(context: RunContext, result: RunResult, rep: Callable[..., Any]) -> None:
    """``tcp-fifo-3`` with one plane changed per run against all-on."""
    reference = WORKLOADS["tcp-fifo-3"]
    script = bench_inputs.message_script(
        context.seed, "toggles", reference.n_processes, context.sized(TOGGLE_MESSAGES)
    )
    variants = {
        "all": FULL,
        "arq": FULL.without("arq"),
        "wal": FULL.without("wal"),
        "flight": FULL.without("flight"),
    }
    cpu: Dict[str, List[float]] = {name: [] for name in variants}
    for _ in range(TOGGLE_ROUNDS):  # interleaved, so drift hits all variants
        for name, planes in variants.items():
            sample, _ = await rep(reference.protocol, reference.n_processes, planes, script)
            cpu[name].append(sample.cpu_us_per_msg)
    for name in ("arq", "wal", "flight"):
        put(
            result,
            "plane.%s.cpu_us_per_msg" % name,
            median(cpu["all"]) - median(cpu[name]),
            "us",
        )

    monitor_script = script[: context.sized(MONITOR_MESSAGES)]
    plain, _ = await rep(reference.protocol, reference.n_processes, FULL, monitor_script)
    monitored, _ = await rep(
        reference.protocol,
        reference.n_processes,
        Planes(monitor=True),
        monitor_script,
    )
    put(
        result,
        "plane.monitor.cpu_us_per_msg",
        monitored.cpu_us_per_msg - plain.cpu_us_per_msg,
        "us",
    )
    put(result, "net.cluster.observer_lag_events", monitored.observer_lag, "count")

    paced_script = bench_inputs.message_script(
        context.seed,
        "toggles:paced",
        reference.n_processes,
        context.sized(int(reference.paced_rate * PACED_SECONDS)),
    )
    latency: Dict[str, Any] = {}
    for name in ("all", "flight", "wal"):
        latency[name], _ = await rep(
            reference.protocol,
            reference.n_processes,
            variants[name],
            paced_script,
            paced_rate=reference.paced_rate,
        )
    for metric, plane, p in (
        ("plane.flight.p50_delta_ms", "flight", 50),
        ("plane.flight.p99_delta_ms", "flight", 99),
        ("plane.wal.p99_delta_ms", "wal", 99),
    ):
        put(
            result,
            metric,
            latency["all"].latency_ms(p) - latency[plane].latency_ms(p),
            "ms",
        )


async def _loopback_floor(clusters: ClusterFactory, frames: int) -> float:
    """CPU per frame of a bare asyncio stream echo: no repro code, the
    floor under ``net.transport`` (same window as the sat driver)."""
    payload = b"x" * 160
    header = len(payload).to_bytes(4, "big")

    async def echo(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                size = int.from_bytes(await reader.readexactly(4), "big")
                body = await reader.readexactly(size)
                writer.write(size.to_bytes(4, "big") + body)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    port = clusters.free_port()
    server = await asyncio.start_server(echo, "127.0.0.1", port)
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        gc.collect()
        started = time.process_time()
        for _ in range(min(bench_tcp.WINDOW, frames)):
            writer.write(header + payload)
        for sent in range(frames):
            size = int.from_bytes(await reader.readexactly(4), "big")
            await reader.readexactly(size)
            if sent + bench_tcp.WINDOW < frames:
                writer.write(header + payload)
        spent = time.process_time() - started
    finally:
        # Client first: the echo task then ends on EOF, not cancellation.
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()
    # Each echoed frame crosses the loopback twice.
    return 1e6 * spent / (2 * frames)


# -- the shard probe ---------------------------------------------------------------


async def _shard_counts(context: RunContext, result: RunResult) -> None:
    """One short saturating arc of ``shard-fifo-1``: rows per frame on
    the only socket (coordinator -> worker) and who burns the CPU."""
    workload = WORKLOADS["shard-fifo-1"]
    frames = 0
    original = codec.encode_frame

    def counting(kind: int, body: Any = None) -> bytes:
        nonlocal frames
        if kind == codec.INVOKE_BATCH:
            frames += 1
        return original(kind, body)

    codec.encode_frame = counting
    try:
        arc = await workload.one_arc(
            result,
            bench_inputs.port_candidates(context.seed, "layers:shard"),
            bench_inputs.sub_seed(context.seed, "layers:shard"),
            workload.sat_rate,
            0.5 * workload.sat_duration * context.scale,
        )
    finally:
        codec.encode_frame = original
    put(result, "net.shard.rows_per_frame", arc.report.offered / max(1, frames), "count")
    put(result, "net.shard.coordinator_cpu_share", arc.coordinator_share, "ratio")


# -- isolated calls -----------------------------------------------------------------


def per_call_us(function: Callable[[], Any], seconds: float = 0.06) -> float:
    """Median over batches of the time one call takes."""
    function()
    batch = 1
    while True:
        started = time.perf_counter()
        for _ in range(batch):
            function()
        spent = time.perf_counter() - started
        if spent >= 0.002:
            break
        batch *= 4
    samples = [spent / batch]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(samples) < 5:
        started = time.perf_counter()
        for _ in range(batch):
            function()
        samples.append((time.perf_counter() - started) / batch)
    return 1e6 * median(samples)


class _CapturingContext:
    """Just enough host context to make a protocol produce a real tag."""

    def __init__(self, process_id: int, n_processes: int) -> None:
        self.process_id = process_id
        self.n_processes = n_processes
        self.now = 0.0
        self.tag: Any = None

    def release(self, message: Message, tag: Any = None) -> None:
        self.tag = tag

    def deliver(self, message: Message) -> None:
        pass

    def send_control(self, dst: int, payload: Any) -> None:
        pass

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        pass

    def emit(self, probe: str, **data: Any) -> None:
        pass


def _real_tag(protocol: str, n_processes: int, invokes: int) -> Any:
    """The tag a catalogue protocol under ARQ puts on its n-th send."""
    context = _CapturingContext(0, n_processes)
    instance = catalogue_entry(protocol).reliable_factory()(0, n_processes)
    instance.on_start(context)
    for index in range(invokes):
        instance.on_invoke(
            context,
            Message(id="t%d" % index, sender=0, receiver=1 + index % (n_processes - 1)),
        )
    return context.tag


def _isolated_calls(context: RunContext, result: RunResult) -> None:
    _codec_calls(result)
    _engine_calls(context, result)
    _replay_call(context, result)
    _wal_calls(context, result)
    _obs_calls(result)
    for protocol, n_processes in (("fifo", 3), ("causal-rst", 8), ("sync-coord", 3)):
        count = context.sized(300)
        workload = bench_inputs.sim_workload(
            context.seed, "micro:" + protocol, n_processes, count
        )
        started = time.perf_counter()
        run_simulation(catalogue_entry(protocol).factory, workload, seed=context.seed)
        put(
            result,
            "simulation.us_per_msg." + protocol,
            1e6 * (time.perf_counter() - started) / count,
            "us",
        )
    for kind in ("fifo", "causal"):
        checker = lane_checker(kind, 4, 1)
        state = {"seq": 0}
        clock = [0, 0, 0, 0]

        def accept() -> None:
            # Sender 0's next in-order row on one key: the accepting path.
            clock[0] = state["seq"] + 1
            checker.on_deliver("m", 0, "k0", state["seq"], list(clock))
            state["seq"] += 1

        put(result, "net.shard.lane_accept_us." + kind, per_call_us(accept), "us")
    router = ShardRouter(8)
    put(result, "net.shard.route_us", per_call_us(lambda: router.shard_of("k17")), "us")


def _codec_calls(result: RunResult) -> None:
    message = Message(id="m1234", sender=0, receiver=1)
    shapes = {
        "user_fifo": ("user", _real_tag("fifo", 3, 18)),
        "user_rst8": ("user", _real_tag("causal-rst", 8, 18)),
        "control": ("control", ("rack", 17)),
    }
    for name, (kind, value) in shapes.items():
        if kind == "user":

            def encode(value: Any = value) -> bytes:
                body = codec.message_to_wire(message)
                body.update(
                    src=0, dst=1, tag=codec.encode_value(value), sent=1.5, invoked=1.25
                )
                return codec.encode_frame(codec.USER, body)

            def decode(data: bytes = encode()) -> Any:
                frame, _ = codec.decode_frame(data)
                return (
                    codec.message_from_wire(frame.body),
                    codec.decode_value(frame.body["tag"]),
                )

        else:

            def encode(value: Any = value) -> bytes:
                return codec.encode_frame(
                    codec.CONTROL,
                    {"src": 0, "dst": 1, "payload": codec.encode_value(value), "sent": 1.5},
                )

            def decode(data: bytes = encode()) -> Any:
                frame, _ = codec.decode_frame(data)
                return codec.decode_value(frame.body["payload"])

        put(result, "net.codec.encode_us." + name, per_call_us(encode), "us")
        put(result, "net.codec.decode_us." + name, per_call_us(decode), "us")
    rows = [["m%d" % index, "k%d" % (index % 8), index, 1.25, 1.5] for index in range(64)]
    batch = per_call_us(
        lambda: codec.encode_frame(codec.USER_BATCH, {"src": 0, "dst": 1, "rows": rows})
    )
    put(result, "net.codec.batch_encode_us_per_row", batch / len(rows), "us")


def _engine_calls(context: RunContext, result: RunResult) -> None:
    """Cost of one ``SpecMonitor`` append late in a trace, and how it
    grew since early in the trace (catches the next cubic search)."""
    for name, (protocol, spec, high, low) in ENGINE_POINTS.items():
        high, low = context.sized(high, 16), context.sized(low, 4)
        if name == "sync":
            # What the live observer and the replay monitor run: the
            # crown family capped at arity 2 (the oracle closes the gap).
            spec = dataclasses.replace(spec, family_arity_cap=2)
        source = run_simulation(
            catalogue_entry(protocol).factory,
            # 4x the events fed: the prefix then holds as many messages in
            # flight as a long run does, which is what the searches scale with.
            bench_inputs.sim_workload(context.seed, "engine:" + name, 3, high),
            seed=context.seed,
        ).trace
        monitor = SpecMonitor(spec)
        trace = Trace(source.n_processes)
        costs: List[float] = []
        for record in source.records()[:high]:
            trace.register_message(source.message(record.event.message_id))
            trace.record(record.time, record.process, record.event)
            started = time.perf_counter()
            monitor.advance(trace)
            costs.append(time.perf_counter() - started)
        window = max(2, low // 4)
        late = 1e6 * sum(costs[high - window : high]) / window
        early = 1e6 * sum(costs[low - window : low]) / window
        put(result, "verification.engine.append_us." + name, late, "us")
        put(
            result,
            "verification.engine.append_growth." + name,
            late / early if early > 0 else 0.0,
            "ratio",
        )
        if monitor.violation is not None:
            result.failures.append("engine micro: %s flagged a clean run" % name)


def _wal_calls(context: RunContext, result: RunResult) -> None:
    base = os.path.join(context.work_dir, "micro-wal")
    count = context.sized(1500)
    source = run_simulation(
        catalogue_entry("fifo").factory,
        bench_inputs.sim_workload(context.seed, "micro:wal", 3, count // 4 + 1),
        seed=context.seed,
    ).trace
    records = [
        event_record(record, source.message(record.event.message_id))
        for record in source.records()[:count]
    ]
    try:
        for name, fsync in (("wal.append_us", True), ("wal.append_nofsync_us", False)):
            directory = os.path.join(base, name)
            writer = SegmentWriter(directory, fsync=fsync, sync_every=bench_tcp.WAL_SYNC_EVERY)
            started = time.perf_counter()
            for record in records:
                writer.append(record)
            writer.close()
            put(result, name, 1e6 * (time.perf_counter() - started) / len(records), "us")
        started = time.perf_counter()
        log = read_log(directory)
        put(
            result,
            "wal.read_us_per_record",
            1e6 * (time.perf_counter() - started) / max(1, len(log.records)),
            "us",
        )
        started = time.perf_counter()
        rebuilt = trace_from_records(log.records, source.n_processes)
        put(
            result,
            "wal.trace_rebuild_us_per_event",
            1e6 * (time.perf_counter() - started) / max(1, rebuilt.record_count),
            "us",
        )
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _replay_call(context: RunContext, result: RunResult) -> None:
    """``replay_log`` on a log half the size of verify-replay's fifo one."""
    log = WORKLOADS["verify-replay"].logs[0]
    entry = catalogue_entry(log.protocol)
    directory = os.path.join(context.work_dir, "micro-replay")
    messages = context.sized(log.messages // 2)
    try:
        bench_workloads.record_simulation(
            entry.factory,
            log.protocol,
            entry.spec,
            bench_inputs.sim_workload(
                context.seed, "micro:replay", log.n_processes, messages
            ),
            context.seed,
            directory,
        )
        started = time.perf_counter()
        replayed = replay_log(directory, entry.spec)
        put(
            result,
            "verification.engine.replay_events_per_s",
            replayed.trace.record_count / (time.perf_counter() - started),
            "1/s",
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    if replayed.violation is None:
        result.count(messages, 0)
    else:
        result.count(messages, messages, ["replay micro flagged a clean log"])


def _obs_calls(result: RunResult) -> None:
    def lifecycle_cost(attach: Callable[[Bus], None]) -> float:
        bus = Bus()
        attach(bus)
        state = {"n": 0}

        def one_message() -> None:
            state["n"] += 1
            mid, now = "m%d" % state["n"], float(state["n"])
            bus.emit("host.invoke", now, message_id=mid, process=0, receiver=1)
            bus.emit(
                "host.release", now, message_id=mid, process=0, receiver=1, tag_bytes=12
            )
            bus.emit("host.receive", now + 1, message_id=mid, process=1, sender=0)
            bus.emit(
                "host.deliver", now + 1, message_id=mid, process=1, sender=0, delayed=False
            )

        return per_call_us(one_message) / 4.0

    def full_plane(bus: Bus) -> None:
        FlightRecorder(0).attach(bus)
        MetricsRecorder(bus)
        Watchdog(bus)

    put(result, "obs.bus_emit_us", lifecycle_cost(full_plane), "us")
    put(
        result,
        "obs.flight_append_us",
        lifecycle_cost(lambda bus: FlightRecorder(0).attach(bus)),
        "us",
    )
    histogram = Histogram("micro")
    put(
        result,
        "obs.histogram_observe_us",
        per_call_us(lambda: histogram.observe(0.00123)),
        "us",
    )
