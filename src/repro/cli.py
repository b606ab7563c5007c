"""Command-line interface.

::

    python -m repro classify "x.s < y.s & y.r < x.r"
    python -m repro classify "color(y) = red :: x.s < y.s & y.r < x.r"
    python -m repro catalog
    python -m repro simulate "x.s < y.s & y.r < x.r" --messages 30 --seed 7
    python -m repro simulate fifo --diagram
    python -m repro simulate fifo --drop-rate 0.2 --dup-rate 0.1
    python -m repro check fifo --workload pair --exhaustive
    python -m repro check reliable-fifo --workload triple --fault-budget 2 --exhaustive
    python -m repro check broken-fifo --report-out report.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.api import protocol_for, simulate as run_simulate, verify
from repro.core.classifier import classify, classify_specification
from repro.predicates.catalog import CATALOG, resolve_spec
from repro.runs.diagram import render_user_run
from repro.simulation import UniformLatency, random_traffic


def _cmd_classify(args: argparse.Namespace) -> int:
    specification = resolve_spec(args.predicate, args.distinct)
    if args.broadcast:
        from repro.broadcast import classify_broadcast

        for predicate in specification.all_predicates(max_arity=6):
            verdict = classify_broadcast(predicate)
            print("predicate:  %r" % (predicate,))
            print("class:      %s (grouped analysis)" % verdict.protocol_class.value)
            for cycle in verdict.cycles:
                print("  cycle order %d:" % cycle.order)
                for item in cycle.breaks:
                    print("    %s" % item)
            for note in verdict.notes:
                print("  note: %s" % note)
        return 0
    if len(specification.predicates) == 1 and not specification.families:
        verdict = classify(specification.predicates[0])
        print(verdict.summary())
        if verdict.reduction is not None and verdict.reduction.steps:
            print("lemma-4 contraction:")
            for step in verdict.reduction.steps:
                print("  %r" % (step,))
    else:
        verdict = classify_specification(specification)
        print("specification: %s" % specification.name)
        print("class:         %s" % verdict.protocol_class.value)
        for member in verdict.members:
            print(
                "  member %-12s -> %s"
                % (member.predicate.name, member.protocol_class.value)
            )
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.core.report import explain

    specification = resolve_spec(args.predicate, args.distinct)
    for predicate in specification.all_predicates(max_arity=4):
        print(explain(predicate))
        print()
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    print("%-25s %-18s %s" % ("specification", "class", "paper ref"))
    print("-" * 60)
    for entry in CATALOG:
        verdict = classify_specification(entry.specification)
        print(
            "%-25s %-18s %s"
            % (entry.name, verdict.protocol_class.value, entry.paper_ref)
        )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    specification = resolve_spec(args.predicate, args.distinct)
    color_every = args.color_every
    needs_colors = any(
        guard for p in specification.predicates for guard in p.guards
    )
    if color_every is None and needs_colors:
        color_every = 5
    workload = random_traffic(
        args.processes,
        args.messages,
        seed=args.seed,
        color_every=color_every,
        color=args.color,
    )
    faults = None
    if args.drop_rate or args.dup_rate or args.spike_rate:
        from repro.faults import FaultPlan

        faults = FaultPlan(
            drop_rate=args.drop_rate,
            dup_rate=args.dup_rate,
            spike_rate=args.spike_rate,
            seed=args.fault_seed,
        )
    factory = None
    if faults is not None and not args.no_reliable:
        # An unreliable network breaks every catalogue protocol's channel
        # assumption; stack the ARQ sublayer under the synthesized
        # protocol unless the user explicitly wants to watch it fail.
        from repro.protocols.reliable import make_reliable

        factory = make_reliable(protocol_for(specification))
    from repro.obs import Watchdog

    bus = recorder = None
    # Fault runs always get a bus: the watchdog needs the fault.drop /
    # retx.send stream to attribute stuck messages to network loss.
    if args.metrics_out or faults is not None:
        from repro.obs import Bus, MetricsRecorder

        bus = Bus()
        if args.metrics_out:
            recorder = MetricsRecorder(bus)
    watchdog = Watchdog(bus)
    wal_sink = None
    if args.record:
        from repro.wal import WalSink

        # Record the spec under the name `repro replay` can resolve: the
        # catalogue key the user typed, or the DSL text itself.
        wal_sink = WalSink(
            args.record,
            meta={
                "spec": args.predicate,
                "processes": workload.n_processes,
                "seed": args.seed,
                "workload": workload.name,
            },
        )
    try:
        result = run_simulate(
            specification,
            workload,
            seed=args.seed,
            protocol_factory=factory,
            latency=UniformLatency(low=1.0, high=args.max_latency),
            bus=bus,
            faults=faults,
            wal=wal_sink,
        )
    finally:
        if wal_sink is not None:
            wal_sink.close()
    if wal_sink is not None:
        print("recorded:          %s (replay with `repro replay`)"
              % args.record)
    print(result.summary())
    outcome = verify(result, specification)
    print("verification:      %s" % outcome.summary())
    if args.trace_out:
        from repro.obs import SpanTracer, write_chrome_trace

        write_chrome_trace(
            args.trace_out,
            SpanTracer(result.trace),
            n_processes=workload.n_processes,
        )
        print("trace:             %s (open in https://ui.perfetto.dev)"
              % args.trace_out)
    if recorder is not None:
        import json

        # The hosts' registry and the recorder's share no name.
        metrics = result.stats.registry.snapshot()
        metrics.update(recorder.registry.snapshot())
        with open(args.metrics_out, "w") as handle:
            handle.write(json.dumps(metrics, indent=2, sort_keys=True))
        print("metrics:           %s" % args.metrics_out)
    if not result.delivered_all:
        print(watchdog.render(result.trace, protocols=result.protocols))
    if args.diagram:
        print()
        print(render_user_run(result.user_run))
    return 0 if outcome.ok else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import DEFAULT_PROFILE_PROTOCOLS, profile_protocols, render_profiles
    from repro.protocols.registry import cached_catalogue

    available = {name: entry.factory for name, entry in cached_catalogue().items()}
    names = args.protocols or list(DEFAULT_PROFILE_PROTOCOLS)
    unknown = [name for name in names if name not in available]
    if unknown:
        raise SystemExit(
            "unknown protocol(s) %s; available: %s"
            % (", ".join(unknown), ", ".join(sorted(available)))
        )
    workload = random_traffic(
        args.processes, args.messages, seed=args.seed, color_every=6
    )
    profiles = profile_protocols(
        [(name, available[name]) for name in names],
        workload,
        seed=args.seed,
        latency=UniformLatency(low=1.0, high=args.max_latency),
    )
    print("workload: %s   seed: %d" % (workload.name, args.seed))
    print("phase costs are mean virtual-time per message")
    print()
    print(render_profiles(profiles))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    import json

    from repro.mc import (
        DEFAULT_MAX_DEPTH,
        DEFAULT_MAX_SCHEDULES,
        check_protocol,
        named_workloads,
    )
    from repro.protocols.registry import resolvable_names
    from repro.simulation.persistence import save_schedule

    names = resolvable_names()
    if args.protocol not in names:
        raise SystemExit(
            "unknown protocol %r; available: %s"
            % (args.protocol, ", ".join(names))
        )
    if args.workload == "random":
        workload = random_traffic(
            args.processes,
            args.messages,
            seed=args.seed,
            color_every=args.color_every,
        )
    else:
        workload = named_workloads()[args.workload]()
    spec = resolve_spec(args.spec, distinct=True) if args.spec else None
    report = check_protocol(
        args.protocol,
        workload,
        spec=spec,
        invoke_order=args.invoke_order,
        fault_budget=args.fault_budget,
        max_schedules=(
            None
            if args.exhaustive
            else (
                args.max_schedules
                if args.max_schedules is not None
                else DEFAULT_MAX_SCHEDULES
            )
        ),
        max_depth=(
            args.max_depth if args.max_depth is not None else DEFAULT_MAX_DEPTH
        ),
        max_violations=args.max_violations,
        minimize=not args.no_minimize,
    )
    print(report.summary())
    for violation in report.violations:
        for line in violation.stuck:
            print("stuck:             %s" % line)
    if args.report_out:
        with open(args.report_out, "w") as handle:
            json.dump(report.to_dict(), handle, indent=1)
        print("report:            %s" % args.report_out)
    if args.counterexample_out:
        if not report.violations:
            print("counterexample:    none to save")
        else:
            best = report.violations[0]
            save_schedule(
                best.minimized or best.schedule, args.counterexample_out
            )
            print("counterexample:    %s" % args.counterexample_out)
    return 1 if report.violations else 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from repro.core.selftest import run_paper_selftest

    report = run_paper_selftest()
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.protocols.registry import cached_catalogue
    from repro.verification.compare import ProtocolRow, compare_protocols

    entries = [
        (entry.name, entry.factory, entry.spec)
        for entry in cached_catalogue().values()
    ]
    workloads = [
        random_traffic(args.processes, args.messages, seed=s, color_every=6)
        for s in range(args.seeds)
    ]
    rows = compare_protocols(entries, workloads, seed=args.seed)
    widths = [max(len(str(c)) for c in col) for col in
              zip(ProtocolRow.HEADERS, *[row.as_tuple() for row in rows])]

    def show(cells):
        print("  ".join(str(c).ljust(w) for c, w in zip(cells, widths)).rstrip())

    show(ProtocolRow.HEADERS)
    show(["-" * w for w in widths])
    for row in rows:
        show(row.as_tuple())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """`repro serve <protocol>`: host one protocol process, or with
    --shards N a fleet of N lane-worker OS processes (shard k's ingress
    on port-base + k), which exits on the BYE `repro load` sends unless
    it passed --keep-serving."""
    import asyncio

    from repro.net import NetHost
    from repro.protocols.registry import resolve

    # Lanes are not protocol stacks: only an entry whose specification
    # has a per-key lane checker maps onto the sharded runtime.
    refusal = None
    try:
        entry = resolve(args.protocol)
    except KeyError as exc:
        refusal = exc.args[0]
    else:
        if args.shards and args.wal:
            refusal = "--wal is for hosts; a shard worker keeps no log"
        elif args.shards and entry.shard_lane is None:
            refusal = (
                "protocol %r (%s class, specification %s) does not map onto "
                "an ordering-key lane"
                % (entry.name, entry.protocol_class, entry.spec.name)
            )
        elif not args.shards and args.process_id is None:
            refusal = "--process-id is required (unless --shards)"
    if refusal is not None:
        print("repro serve: %s" % refusal, file=sys.stderr)
        return 2
    if args.shards:
        from repro.net.shard import ShardCoordinator

        fleet = ShardCoordinator(
            args.shards,
            args.processes,
            host=args.host,
            port_base=args.port_base,
            run_id=args.run_id,
            lane_kind=entry.shard_lane,
        )
        fleet.spawn()
        # A causal lane ignores a row's receiver: it broadcasts the row
        # to every other lane process of its key.
        lanes = entry.shard_lane
        if lanes == "causal":
            lanes = "causal broadcast"
        who = "%d shard(s) of per-key %s lanes x %d processes" % (
            args.shards,
            lanes,
            args.processes,
        )
        where = "%d-%d" % (args.port_base, args.port_base + args.shards - 1)
        notes = ""
    else:
        faults = None
        if args.drop_rate or args.dup_rate or args.spike_rate:
            from repro.faults import FaultPlan

            faults = FaultPlan(
                drop_rate=args.drop_rate,
                dup_rate=args.dup_rate,
                spike_rate=args.spike_rate,
                spike_delay=args.spike_delay,
                seed=args.fault_seed,
            )
            if not args.no_reliable:
                # Same convention as `repro simulate`: a lossy transport
                # breaks the channel assumption, so serve the reliable-
                # variant unless the user explicitly wants to watch it fail.
                entry = entry.reliable()
        resilience = None
        if args.heartbeat_interval is not None:
            from repro.net.resilience import ResilienceConfig

            resilience = ResilienceConfig(heartbeat_interval=args.heartbeat_interval)
        host = NetHost(
            entry.factory,
            args.process_id,
            [args.port_base + index for index in range(args.processes)],
            host=args.host,
            run_id=args.run_id,
            faults=faults,
            time_scale=args.time_scale,
            wal_dir=args.wal,
            wal_meta={"protocol": args.protocol} if args.wal else None,
            resilience=resilience,
            listen_port=args.listen_port,
        )
        who = "process %d of %d" % (args.process_id, args.processes)
        where = "%d" % host.listen_port
        notes = (" with faults" if faults is not None else "") + (
            " [recovered from WAL]" if host.recovered else ""
        )
    print(
        "serving %s as %s on %s:%s (run %s)%s"
        % (args.protocol, who, args.host, where, args.run_id, notes),
        flush=True,
    )
    if args.shards:
        try:
            for worker in fleet.processes:
                worker.join()
        except KeyboardInterrupt:  # pragma: no cover - operator interrupt
            for worker in fleet.processes:
                worker.terminate()
        return 1 if any(worker.exitcode for worker in fleet.processes) else 0
    asyncio.run(host.serve_forever())
    stats = host.stats_body()
    print(
        "process %d done: %d invoked, %d delivered, %d retransmissions, "
        "%d errors"
        % (
            args.process_id,
            stats["invoked"],
            stats["deliveries"],
            stats["retransmissions"],
            len(host.errors),
        ),
        flush=True,
    )
    if args.trace_out:
        import json

        from repro.net.collector import stitch_flight_dumps

        # The drain dump: this host's flight ring as a (single-track)
        # Perfetto trace.  Cross-host stitching is `repro trace`'s job.
        trace = stitch_flight_dumps([host.trace_body()], args.processes)
        with open(args.trace_out, "w") as handle:
            json.dump(trace, handle)
        print("trace: %s (open in https://ui.perfetto.dev)" % args.trace_out,
              flush=True)
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            handle.write(host.metrics_body()["text"])
        print("metrics: %s" % args.metrics_out, flush=True)
    for error in host.errors:
        print("  error: %s" % error, flush=True)
    return 1 if host.errors else 0


def _cmd_load(args: argparse.Namespace) -> int:
    import json

    from repro.net import codec
    from repro.net.client import exposition
    from repro.net.cluster import LiveObserver, LoadGenerator, drive_run

    spec = None
    if not args.no_monitor:
        if args.spec is not None:
            spec = resolve_spec(args.spec, distinct=False)
        elif args.protocol is not None:
            from repro.protocols.registry import resolve

            spec = resolve(args.protocol).spec

    async def drive():
        load = LoadGenerator(
            [args.port_base],
            host=args.host,
            run_id=args.run_id,
            seed=args.seed,
            color_rate=args.color_rate,
            keys=args.keys or None,
        )
        observer = None
        try:
            await load.connect(timeout=args.quiesce_timeout)
            duration = args.duration
            wal_meta = {
                "run": args.run_id,
                "processes": load.n_processes,
                "seed": args.seed,
            }
            if args.protocol:
                wal_meta["protocol"] = args.protocol
            spec_name = args.spec or getattr(spec, "name", None)
            if spec_name:
                wal_meta["spec"] = spec_name
            if args.wal:
                from repro.wal import WalSink

                load.wal = WalSink(args.wal, meta=dict(wal_meta, role="load"))
                resume = load.last_checkpoint()
                if resume is not None:
                    if resume.get("seed") not in (None, args.seed):
                        raise SystemExit(
                            "soak WAL %s was written with seed %s; rerun with "
                            "the same seed to resume it" % (args.wal, resume["seed"])
                        )
                    load.fast_forward(int(resume.get("requested", 0)))
                    duration = max(0.0, duration - float(resume.get("elapsed", 0.0)))
                    print(
                        "resuming soak: %d message(s) already offered, "
                        "%.1fs remaining" % (load.requested, duration),
                        flush=True,
                    )
            # --record needs the merged event stream even without a spec
            # to monitor, so the observer attaches either way -- to hosts:
            # a fleet keeps no trace, its lanes check each key live and
            # the cross-key oracle judges the merged rows.
            if (spec is not None or args.record) and not load.shards:
                observer = LiveObserver(load.n_processes, spec=spec)
                if args.record:
                    observer.record(args.record, wal_meta)
                await observer.connect(
                    load.ports, host=args.host, run_id=args.run_id
                )
            report = await drive_run(
                load,
                observer,
                args.protocol or "protocol",
                args.rate,
                duration,
                args.quiesce_timeout,
                oracle=not args.no_monitor,
            )
            # Pull observability artifacts while the endpoints still
            # serve (a BYE tears the flight recorders down with them).
            if args.trace_out or args.metrics_out:
                from repro.net.collector import stitch_flight_dumps

                try:
                    if args.trace_out:
                        trace = stitch_flight_dumps(
                            await load.traces(), load.n_processes
                        )
                        with open(args.trace_out, "w") as handle:
                            json.dump(trace, handle)
                    if args.metrics_out:
                        with open(args.metrics_out, "w") as handle:
                            handle.write(exposition(await load.metrics()))
                except (ConnectionError, codec.CodecError) as exc:
                    report.errors.append("artifact pull: %s" % exc)
            if not args.keep_serving:
                await load.bye()
            return report
        finally:
            await load.close()
            if observer is not None:
                await observer.close()
            if load.wal is not None:
                load.wal.close()

    report = _run_cluster_client(args, drive())
    if report is None:
        return 1
    print(report.render(), flush=True)
    if args.record and not report.shards:
        print("recorded: %s (replay with `repro replay`)" % args.record,
              flush=True)
    if args.trace_out:
        print("trace: %s (open in https://ui.perfetto.dev)" % args.trace_out,
              flush=True)
    if args.metrics_out:
        print("metrics: %s" % args.metrics_out, flush=True)
    if report.forensics is not None:
        from repro.obs.forensics import render_forensics

        print(render_forensics(report.forensics), flush=True)
        forensics_out = args.forensics_out or "forensics-%s.json" % args.run_id
        with open(forensics_out, "w") as handle:
            json.dump(report.forensics, handle, indent=1)
        print("forensics: %s" % forensics_out, flush=True)
    return 0 if report.ok else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    import json

    from repro.wal import WalError, delivery_order, replay_log

    spec = resolve_spec(args.spec, distinct=False) if args.spec else None
    try:
        result = replay_log(args.directory, spec=spec)
    except FileNotFoundError as exc:
        print("repro replay: %s" % exc, file=sys.stderr)
        return 2
    except WalError as exc:
        print("repro replay: unreadable log: %s" % exc, file=sys.stderr)
        return 2
    meta = result.meta
    deliveries = delivery_order(result.trace)
    print("log:               %s" % args.directory)
    print(
        "segments:          %d (%d event(s), %d delivery(ies))"
        % (result.segments, result.trace.record_count, len(deliveries))
    )
    if result.tail_dropped:
        print("torn tail:         %d byte(s) dropped" % result.tail_dropped)
    for key in ("run", "protocol", "spec", "seed", "processes"):
        if key in meta:
            print("%-18s %s" % (key + ":", meta[key]))
    if result.unmonitored is not None:
        print("verification:      skipped (%s)" % result.unmonitored)
    elif result.violation is None:
        print("verification:      OK (monitor found no violation)")
    elif isinstance(result.violation, str):
        # The membership-oracle verdict (logically synchronous specs)
        # names no witness assignment.
        print("verification:      VIOLATION %s" % result.violation)
    else:
        violation = result.violation
        binding = ", ".join(
            "%s=%s" % (k, v) for k, v in sorted(violation.assignment.items())
        )
        print(
            "verification:      VIOLATION %s at t=%.3f with %s"
            % (violation.predicate_name, violation.time, binding)
        )
    if args.json:
        verdict = None
        if isinstance(result.violation, str):
            verdict = {"oracle": result.violation}
        elif result.violation is not None:
            verdict = {
                "predicate": result.violation.predicate_name,
                "time": result.violation.time,
                "assignment": dict(result.violation.assignment),
            }
        body = {
            "meta": meta,
            "segments": result.segments,
            "tail_dropped": result.tail_dropped,
            "events": result.trace.record_count,
            "deliveries": [[process, mid] for process, mid in deliveries],
            "violation": verdict,
            "skipped": result.unmonitored,
        }
        with open(args.json, "w") as handle:
            json.dump(body, handle, indent=1)
        print("json:              %s" % args.json)
    if result.unmonitored is not None and meta.get("spec"):
        return 2  # told to judge by a spec it cannot read
    if args.explore:
        from repro.mc import DEFAULT_MAX_DEPTH, DEFAULT_MAX_SCHEDULES
        from repro.wal import explore_from_log

        try:
            report = explore_from_log(
                args.directory,
                spec=spec,
                max_schedules=args.max_schedules or DEFAULT_MAX_SCHEDULES,
                max_depth=args.max_depth or DEFAULT_MAX_DEPTH,
            )
        except (ValueError, WalError) as exc:
            print("repro replay: cannot explore: %s" % exc, file=sys.stderr)
            return 2
        print()
        print("continuing exploration from the recorded prefix:")
        print(report.summary())
        return 1 if report.violations or result.violation else 0
    return 0 if result.violation is None else 1


def _run_cluster_client(args: argparse.Namespace, coroutine):
    """``asyncio.run`` a verb that talks to a live cluster.

    Nothing listening on the target ports, a peer speaking another frame
    version, or a dead cluster timing the handshake out is one
    operator-facing line on stderr and a ``None`` result, not a
    traceback.  (asyncio.TimeoutError is not an OSError before Python
    3.10, so it is caught explicitly.)
    """
    import asyncio

    from repro.net import codec

    try:
        return asyncio.run(coroutine)
    except (OSError, asyncio.TimeoutError, codec.CodecError) as exc:
        where = "%s:%d" % (args.host, args.port_base)
        if isinstance(exc, codec.UnknownVersion):
            why = "%s (is the cluster at %s running an older build?)" % (exc, where)
        elif isinstance(exc, codec.CodecError):
            why = "bad frame from %s: %s" % (where, exc)
        elif isinstance(exc, asyncio.TimeoutError):
            why = "timed out waiting for the cluster at %s" % where
        elif isinstance(exc, ConnectionRefusedError):
            why = "connection refused at %s (is `repro serve` running?)" % where
        else:
            why = "cannot reach the cluster at %s: %s" % (where, exc)
        print("repro %s: %s" % (args.command, why), file=sys.stderr)
        return None


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.net.client import exposition
    from repro.net.collector import ClusterCollector, stitch_flight_dumps

    collector = ClusterCollector([args.port_base], host=args.host, run_id=args.run_id)

    async def pull():
        try:
            await collector.connect(timeout=args.timeout)
            return await collector.pull(rounds=args.rounds)
        finally:
            await collector.close()

    pulls = _run_cluster_client(args, pull())
    if pulls is None:
        return 1
    dumps = [pull.trace_body for pull in pulls if pull.trace_body]
    offsets = {pull.process: pull.offset for pull in pulls}
    records = sum(
        len((dump.get("flight") or {}).get("records", [])) for dump in dumps
    )
    for pull in pulls:
        best_rtt = min((s.rtt for s in pull.samples), default=0.0)
        flight = (pull.trace_body or {}).get("flight") or {}
        print(
            "P%d: %d record(s) (%d dropped), clock offset %+.3f ms "
            "(min rtt %.3f ms)"
            % (
                pull.process,
                len(flight.get("records", [])),
                flight.get("dropped", 0),
                pull.offset * 1000.0,
                best_rtt * 1000.0,
            )
        )
    trace = stitch_flight_dumps(dumps, collector.n_processes, offsets=offsets)
    out = args.out or "trace-%s.json" % args.run_id
    with open(out, "w") as handle:
        json.dump(trace, handle)
    print(
        "stitched %d record(s) from %d host(s): %s "
        "(open in https://ui.perfetto.dev)" % (records, len(pulls), out)
    )
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            handle.write(exposition([pull.metrics_body or {} for pull in pulls]))
        print("metrics: %s" % args.metrics_out)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import asyncio
    import time as _time

    from repro.net.collector import ClusterCollector, render_top

    async def watch() -> int:
        collector = ClusterCollector(
            [args.port_base], host=args.host, run_id=args.run_id
        )
        await collector.connect(timeout=args.timeout)
        previous = None
        previous_at = None
        iteration = 0
        try:
            while True:
                pulls = await collector.pull(rounds=1)
                now = _time.monotonic()
                dt = now - previous_at if previous_at is not None else None
                print(
                    render_top(pulls, previous=previous, dt=dt), flush=True
                )
                iteration += 1
                if args.iterations and iteration >= args.iterations:
                    return 0
                previous, previous_at = pulls, now
                await asyncio.sleep(args.interval)
                print(flush=True)
        finally:
            await collector.close()

    try:
        code = _run_cluster_client(args, watch())
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0
    return 1 if code is None else code


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json
    import shutil
    import tempfile

    from repro.chaos import run_chaos_sync
    from repro.faults import FaultPlan

    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    keep_wal = args.wal is not None
    plan = None
    try:
        if args.plan:
            with open(args.plan) as handle:
                plan = FaultPlan.from_json(json.load(handle))
        wal_root = args.wal or tempfile.mkdtemp(prefix="repro-chaos-")
        report = run_chaos_sync(
            args.protocol,
            wal_root=wal_root,
            n_processes=args.processes,
            seed=args.seed if plan is None else plan.seed,
            rate=args.rate,
            duration=args.duration,
            n_actions=args.actions,
            kinds=kinds,
            plan=plan,
            spec=None if args.no_monitor else "auto",
            convergence_deadline=args.deadline,
            proc=args.proc,
            port_base=args.port_base,
        )
    except KeyError as exc:
        # resolve's miss message already lists the catalogue.
        print("repro chaos: %s" % (exc.args[0] if exc.args else exc),
              file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        print("repro chaos: %s" % exc, file=sys.stderr)
        return 2
    print(report.render(), flush=True)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_json(), handle, indent=1)
        print("json: %s" % args.json, flush=True)
    if not keep_wal:
        if report.ok:
            shutil.rmtree(wal_root, ignore_errors=True)
        else:
            # The WALs are the evidence for a failed run: keep them.
            print("wal evidence kept: %s" % wal_root, flush=True)
    return 0 if report.ok else 1


#: The option groups several verbs share, declared once: where a
#: cluster's endpoints are (serve, load, trace, top) and how the network
#: under a protocol misbehaves (simulate, serve).  Only `serve` takes
#: --processes: a client dials --port-base and learns the rest from READY.
_SHARED_OPTIONS = {
    "--processes": dict(type=int, default=3),
    "--port-base": dict(type=int, default=9400),
    "--host": dict(default="127.0.0.1"),
    "--run-id": dict(default="default"),
    "--drop-rate": dict(type=float, default=0.0),
    "--dup-rate": dict(type=float, default=0.0),
    "--spike-rate": dict(type=float, default=0.0),
    "--fault-seed": dict(type=int, default=0),
    "--no-reliable": dict(action="store_true"),
}
_ENDPOINT = ("--port-base", "--host", "--run-id")
#: What --port-base is to a client verb.
_LEARNED = "the first endpoint's port; its READY reply names the others"


def _shared(parser: argparse.ArgumentParser, *flags: str, **helps: str) -> None:
    """Add :data:`_SHARED_OPTIONS` entries at this point of ``parser``.

    Not argparse ``parents=``: a parent's options are listed before all
    of the verb's own, which would reorder every ``--help``.  Help text
    (keyed by dest) stays with the verb, because it says what the value
    means *to that verb*.
    """
    for flag in flags:
        dest = flag[2:].replace("-", "_")
        parser.add_argument(flag, help=helps.get(dest), **_SHARED_OPTIONS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Message-ordering specifications: classify, simulate, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="classify a predicate (DSL text or catalogue name)"
    )
    p_classify.add_argument("predicate")
    p_classify.add_argument(
        "--distinct",
        action="store_true",
        help="quantify over distinct messages",
    )
    p_classify.add_argument(
        "--broadcast",
        action="store_true",
        help="use the grouped (multicast) classifier of repro.broadcast",
    )
    p_classify.set_defaults(func=_cmd_classify)

    p_explain = sub.add_parser(
        "explain",
        help="full §4 walkthrough: graph, cycles, β vertices, contraction",
    )
    p_explain.add_argument("predicate")
    p_explain.add_argument("--distinct", action="store_true")
    p_explain.set_defaults(func=_cmd_explain)

    p_catalog = sub.add_parser("catalog", help="classify the whole catalogue")
    p_catalog.set_defaults(func=_cmd_catalog)

    p_sim = sub.add_parser(
        "simulate",
        help="synthesize a protocol for the spec and run a random workload",
    )
    p_sim.add_argument("predicate")
    p_sim.add_argument("--distinct", action="store_true")
    p_sim.add_argument("--processes", type=int, default=3)
    p_sim.add_argument("--messages", type=int, default=20)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--max-latency", type=float, default=40.0)
    p_sim.add_argument("--color-every", type=int, default=None)
    p_sim.add_argument("--color", default="red")
    _shared(
        p_sim,
        "--drop-rate",
        "--dup-rate",
        "--spike-rate",
        "--fault-seed",
        "--no-reliable",
        drop_rate="probability each packet is destroyed in flight",
        dup_rate="probability each packet is duplicated in flight",
        spike_rate="probability each packet is hit by a fixed delay spike",
        fault_seed="seed of the fault RNG (independent of the latency seed)",
        no_reliable="do not stack the ARQ sublayer under the protocol when "
        "faults are enabled (watch the channel assumption break)",
    )
    p_sim.add_argument(
        "--diagram", action="store_true", help="print the run's time diagram"
    )
    p_sim.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write a Chrome trace-event file (openable in Perfetto)",
    )
    p_sim.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the run's metrics registry as JSON",
    )
    p_sim.add_argument(
        "--record",
        metavar="DIR",
        default=None,
        help="append the run to a write-ahead log directory "
        "(replay with `repro replay DIR`)",
    )
    p_sim.set_defaults(func=_cmd_simulate)

    p_prof = sub.add_parser(
        "profile",
        help="per-phase cost breakdown (inhibit/network/buffer) per protocol",
    )
    p_prof.add_argument(
        "--protocols",
        nargs="+",
        default=None,
        metavar="NAME",
        help="protocols to profile (default: tagless fifo causal-rst sync-coord)",
    )
    p_prof.add_argument("--processes", type=int, default=4)
    p_prof.add_argument("--messages", type=int, default=40)
    p_prof.add_argument("--seed", type=int, default=0)
    p_prof.add_argument("--max-latency", type=float, default=40.0)
    p_prof.set_defaults(func=_cmd_profile)

    p_check = sub.add_parser(
        "check",
        help="model-check a protocol: explore delivery schedules for a "
        "specification violation",
    )
    p_check.add_argument(
        "protocol",
        help="registry protocol name (fifo, causal-rst, broken-fifo, ...)",
    )
    p_check.add_argument(
        "--spec",
        default=None,
        help="specification override (catalogue name or DSL); default: the "
        "protocol's own specification",
    )
    p_check.add_argument(
        "--workload",
        choices=("pair", "triple", "triangle", "flush-pair", "random"),
        default="triangle",
        help="deterministic tiny workload, or 'random' traffic",
    )
    p_check.add_argument(
        "--fault-budget",
        type=int,
        default=0,
        help="let the adversary drop/duplicate up to K packets per "
        "schedule (exhaustive runs then prove K-fault masking)",
    )
    p_check.add_argument("--processes", type=int, default=3)
    p_check.add_argument("--messages", type=int, default=4)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--color-every", type=int, default=None)
    p_check.add_argument(
        "--invoke-order",
        choices=("script", "free"),
        default="script",
        help="'free' also permutes each process's own send order",
    )
    p_check.add_argument(
        "--max-schedules",
        "--budget",
        dest="max_schedules",
        type=int,
        default=None,
        help="schedule budget (default 2000); --budget is an alias",
    )
    p_check.add_argument("--max-depth", type=int, default=None)
    p_check.add_argument("--max-violations", type=int, default=1)
    p_check.add_argument(
        "--exhaustive",
        action="store_true",
        help="no schedule budget: terminate only when the tree is covered",
    )
    p_check.add_argument(
        "--no-minimize",
        action="store_true",
        help="skip delta-debugging minimization of counterexamples",
    )
    p_check.add_argument(
        "--report-out",
        metavar="FILE",
        default=None,
        help="write the machine-readable JSON report",
    )
    p_check.add_argument(
        "--counterexample-out",
        metavar="FILE",
        default=None,
        help="save the (minimized) counterexample schedule for replay",
    )
    p_check.set_defaults(func=_cmd_check)

    p_self = sub.add_parser(
        "selftest",
        help="verify the paper's logical artifacts (E1-E7) in one go",
    )
    p_self.set_defaults(func=_cmd_selftest)

    p_cmp = sub.add_parser(
        "compare",
        help="cost table: every protocol against its own specification",
    )
    p_cmp.add_argument("--processes", type=int, default=4)
    p_cmp.add_argument("--messages", type=int, default=30)
    p_cmp.add_argument("--seeds", type=int, default=3)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.set_defaults(func=_cmd_compare)

    p_serve = sub.add_parser(
        "serve",
        help="host one protocol process over real TCP (see `repro load`)",
    )
    p_serve.add_argument(
        "protocol",
        help="registry protocol name (fifo, causal-rst, reliable-fifo, ...)",
    )
    p_serve.add_argument(
        "--process-id",
        type=int,
        default=None,
        help="this process's index (required unless --shards)",
    )
    p_serve.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="host a sharded ordering-key lane fleet instead: N worker "
        "OS processes (shard k's ingress on port-base + k), each "
        "running every lane process for its keys; `repro load` drives "
        "it like hosts",
    )
    _shared(
        p_serve,
        "--processes",
        *_ENDPOINT,
        processes="total cluster size",
        port_base="process i listens on port-base + i",
        run_id="rendezvous token; connections for another run are rejected",
    )
    p_serve.add_argument(
        "--time-scale",
        type=float,
        default=0.01,
        help="real seconds per virtual time unit (protocol timer scale)",
    )
    _shared(
        p_serve,
        "--drop-rate",
        "--dup-rate",
        "--spike-rate",
        drop_rate="probability each outbound packet is destroyed (WAN emulation)",
    )
    p_serve.add_argument(
        "--spike-delay", type=float, default=50.0,
        help="extra virtual-time latency a spiked packet suffers",
    )
    _shared(p_serve, "--fault-seed")
    _shared(
        p_serve,
        "--no-reliable",
        no_reliable="do not stack the ARQ sublayer when faults are enabled",
    )
    p_serve.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="at drain, write this host's flight ring as a Chrome trace",
    )
    p_serve.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="at drain, write this host's metrics as OpenMetrics text",
    )
    p_serve.add_argument(
        "--wal",
        metavar="DIR",
        default=None,
        help="durable write-ahead log: appends every input before the "
        "protocol sees it, and recovers state from the log segments "
        "on restart (crash durability for this process; not with "
        "--shards)",
    )
    p_serve.add_argument(
        "--listen-port",
        type=int,
        default=None,
        help="bind this port instead of port-base + process-id (for "
        "deployments behind a proxy; peers still dial the public port)",
    )
    p_serve.add_argument(
        "--heartbeat-interval",
        type=float,
        default=None,
        help="seconds between link heartbeats (default 0.2; the failure "
        "detector's suspect/down latency scales with this)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_load = sub.add_parser(
        "load",
        help="drive open-loop traffic at running `repro serve` hosts, with "
        "live spec monitoring, or at a `repro serve --shards` fleet",
    )
    p_load.add_argument(
        "--protocol",
        default=None,
        help="protocol the hosts serve (names the run and selects the "
        "monitored specification)",
    )
    p_load.add_argument(
        "--spec",
        default=None,
        help="monitor this specification instead (catalogue name or DSL)",
    )
    _shared(p_load, *_ENDPOINT, port_base=_LEARNED)
    p_load.add_argument(
        "--rate", type=float, default=1000.0, help="offered user msgs/sec"
    )
    p_load.add_argument(
        "--duration", type=float, default=5.0, help="load phase seconds"
    )
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument(
        "--keys",
        type=int,
        default=0,
        metavar="K",
        help="draw ordering keys from a pool of K (default 0: each "
        "message's channel is its key); a fleet routes by them",
    )
    p_load.add_argument(
        "--color-rate", type=float, default=0.0,
        help="fraction of messages colored red (exercises flush specs)",
    )
    p_load.add_argument(
        "--quiesce-timeout", type=float, default=30.0,
        help="seconds to wait for every invoked message to deliver",
    )
    p_load.add_argument(
        "--no-monitor",
        action="store_true",
        help="skip the live observer, or a fleet's cross-key oracle "
        "(peak-throughput measurements)",
    )
    p_load.add_argument(
        "--keep-serving",
        action="store_true",
        help="leave the serve processes running (default sends BYE)",
    )
    p_load.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write the stitched flight-recorder Chrome trace",
    )
    p_load.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write every host's OpenMetrics exposition text",
    )
    p_load.add_argument(
        "--forensics-out",
        metavar="FILE",
        default=None,
        help="violation forensics JSON path (default forensics-<run>.json)",
    )
    p_load.add_argument(
        "--record",
        metavar="DIR",
        default=None,
        help="record the merged observer event stream to a write-ahead "
        "log directory (replay with `repro replay DIR`)",
    )
    p_load.add_argument(
        "--wal",
        metavar="DIR",
        default=None,
        help="checkpoint load progress to a WAL directory; rerunning "
        "with the same directory and seed resumes an interrupted run",
    )
    p_load.set_defaults(func=_cmd_load)

    p_replay = sub.add_parser(
        "replay",
        help="re-execute a recorded WAL through the spec monitor "
        "(bit-identical verdict), optionally continuing into the "
        "model checker",
    )
    p_replay.add_argument(
        "directory", help="WAL directory written by --record / --wal"
    )
    p_replay.add_argument(
        "--spec",
        default=None,
        help="specification override (catalogue name or DSL); default: "
        "the spec named in the log's META record",
    )
    p_replay.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="write the replay verdict (meta, deliveries, violation) as JSON",
    )
    p_replay.add_argument(
        "--explore",
        action="store_true",
        help="hand the recorded run to the model checker as a fixed "
        "schedule prefix and explore its continuations",
    )
    p_replay.add_argument(
        "--max-schedules",
        "--budget",
        dest="max_schedules",
        type=int,
        default=None,
        help="schedule budget for --explore",
    )
    p_replay.add_argument(
        "--max-depth", type=int, default=None, help="depth budget for --explore"
    )
    p_replay.set_defaults(func=_cmd_replay)

    p_trace = sub.add_parser(
        "trace",
        help="pull every host's flight recorder and stitch one Perfetto "
        "trace with estimated clock offsets",
    )
    _shared(p_trace, *_ENDPOINT, port_base=_LEARNED)
    p_trace.add_argument(
        "--rounds",
        type=int,
        default=3,
        help="stamped TRACE round trips per host (tightens clock offsets)",
    )
    p_trace.add_argument("--timeout", type=float, default=20.0)
    p_trace.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="stitched Chrome trace path (default trace-<run>.json)",
    )
    p_trace.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="also pull METRICS and write the OpenMetrics text",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_top = sub.add_parser(
        "top",
        help="live view, one row per host or shard worker: "
        "throughput, latency percentiles, retransmissions, stuck messages, "
        "clock offsets",
    )
    _shared(p_top, *_ENDPOINT, port_base=_LEARNED)
    p_top.add_argument(
        "--interval", type=float, default=2.0, help="seconds between polls"
    )
    p_top.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="stop after N polls (0: run until interrupted)",
    )
    p_top.add_argument("--timeout", type=float, default=20.0)
    p_top.set_defaults(func=_cmd_top)

    p_chaos = sub.add_parser(
        "chaos",
        help="run a seeded fault schedule against a live loopback cluster "
        "and check the resilience invariants (no ordering violation, no "
        "acked message lost, re-convergence within the deadline)",
    )
    p_chaos.add_argument(
        "protocol",
        nargs="?",
        default="fifo",
        help="registry protocol name; the ARQ sublayer is stacked "
        "automatically (chaos severs real links)",
    )
    p_chaos.add_argument("--processes", type=int, default=3)
    p_chaos.add_argument(
        "--seed", type=int, default=0,
        help="fault-schedule seed; the same (protocol, seed, knobs) "
        "triple replays the same chaos",
    )
    p_chaos.add_argument(
        "--rate", type=float, default=200.0, help="offered user msgs/sec"
    )
    p_chaos.add_argument(
        "--duration", type=float, default=3.0, help="load phase seconds"
    )
    p_chaos.add_argument(
        "--actions", type=int, default=3,
        help="faults to schedule (fewer fit if the run is short)",
    )
    p_chaos.add_argument(
        "--kinds",
        default="kill,sever,blackhole",
        help="comma-separated fault kinds (kill, pause, sever, blackhole)",
    )
    p_chaos.add_argument(
        "--plan",
        metavar="FILE",
        default=None,
        help="run this exact plan (JSON from a previous report) instead "
        "of generating one from the seed; the plan's seed seeds the load",
    )
    p_chaos.add_argument(
        "--deadline", type=float, default=15.0,
        help="seconds the cluster gets to re-converge after the plan",
    )
    p_chaos.add_argument(
        "--port-base",
        type=int,
        default=None,
        help="first of 2N contiguous ports (public then private); "
        "default picks free ephemeral ports (required with --proc)",
    )
    p_chaos.add_argument(
        "--proc",
        action="store_true",
        help="run each host as a real `repro serve` OS process (SIGKILL/"
        "SIGSTOP fidelity) instead of in-process hosts",
    )
    p_chaos.add_argument(
        "--wal",
        metavar="DIR",
        default=None,
        help="WAL root for the hosts (default: a temp dir, removed when "
        "the run passes, kept as evidence when it fails)",
    )
    p_chaos.add_argument(
        "--no-monitor",
        action="store_true",
        help="skip live spec monitoring (durability and convergence only)",
    )
    p_chaos.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="write the full ChaosReport as JSON",
    )
    p_chaos.set_defaults(func=_cmd_chaos)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
