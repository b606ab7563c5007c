"""The shard coordinator: spawn, drive, merge, and finally *judge*.

The coordinator owns the fleet view of a sharded run:

1. **spawn/connect** -- start ``n_shards`` :mod:`worker
   <repro.net.shard.worker>` processes and rendezvous through a
   :class:`~repro.net.cluster.LoadGenerator`, one link per shard ingress
   (``repro load`` dials an already-running ``repro serve --shards``
   fleet the same way, learning its layout from READY);
2. **drive** -- the generator draws compact invoke rows, routes each by
   its ordering key through :class:`~repro.net.shard.router.ShardRouter`,
   and ships one :data:`~repro.net.codec.INVOKE_BATCH` frame per shard
   per pacing tick, exactly as it drives a cluster of hosts;
3. **merge** -- pull STATS/METRICS from every shard and fold them into
   one fleet report (per-shard rows, per-key rows, merged histograms);
4. **judge** -- after DRAIN, page the shards' delivered-row rings back
   over COLLECT frames and run the *cross-key membership oracle* on a
   merged sample: per-key lanes can check fifo/causal scoped to a key
   live and O(1), but any spec that escalates to GENERAL across keys
   (cross-key causality, logical synchrony / crown-freedom) is only
   decidable on the merged run -- exactly the paper's split between
   tagged protocols and general protocols that need global knowledge.

The oracle reuses the repo's exact machinery
(:func:`repro.runs.limit_sets.limit_set_memberships` over a
:class:`~repro.simulation.trace.Trace`-reconstructed user run), so the
end-of-run verdict carries the same semantics as the offline theory.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.events import Event, Message
from repro.net import codec
from repro.net.client import ClusterClient
from repro.net.cluster import LoadGenerator
from repro.net.shard.worker import (
    COLLECT_PAGE,
    ShardWorkerConfig,
    spawn_worker,
)
from repro.obs.metrics import Histogram

__all__ = [
    "ShardCoordinator",
    "ShardRunReport",
    "collect",
    "cross_key_oracle",
    "drive_fleet",
    "run_sharded",
    "run_sharded_sync",
]

#: Default first ingress port (shard k listens on ``port_base + k``).
DEFAULT_PORT_BASE = 7850

#: Cap on messages fed to the exact cross-key oracle.  Its membership
#: checks are O(n^2) happens-before queries (~15us each), so 400
#: messages keep the end-of-run verdict under ~2s of judge time.
ORACLE_SAMPLE = 400


@dataclass
class ShardRunReport:
    """The merged outcome of one sharded load run."""

    n_shards: int
    n_processes: int
    keys: int
    rate: float
    duration: float
    offered: int = 0
    invoked: int = 0
    delivered: int = 0
    pending: int = 0
    elapsed: float = 0.0
    violation: Optional[str] = None
    violations: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    per_shard: List[Dict[str, Any]] = field(default_factory=list)
    per_key: Dict[str, Dict[str, float]] = field(default_factory=dict)
    latencies: Optional[Histogram] = None
    #: Cross-key membership verdict (see :func:`cross_key_oracle`).
    oracle: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        """Clean run: no lane violation, no worker error, fully drained."""
        return (
            self.violation is None and not self.errors and self.pending == 0
        )

    @property
    def rate_achieved(self) -> float:
        """Aggregate delivered msgs/s over the driven window."""
        if self.elapsed <= 0:
            return 0.0
        return self.delivered / self.elapsed

    def render(self) -> str:
        lines = [
            "sharded run: %d shards, %d processes, %d keys"
            % (self.n_shards, self.n_processes, self.keys),
            "  offered %d  invoked %d  delivered %d  pending %d"
            % (self.offered, self.invoked, self.delivered, self.pending),
            "  %.0f msgs/s aggregate over %.2fs"
            % (self.rate_achieved, self.elapsed),
        ]
        if self.latencies is not None and self.latencies.count:
            lines.append(
                "  latency p50 %.2fms  p99 %.2fms"
                % (
                    self.latencies.percentile(50) * 1000.0,
                    self.latencies.percentile(99) * 1000.0,
                )
            )
        if self.oracle is not None:
            lines.append(
                "  cross-key oracle (%d sampled of %d): %s"
                % (
                    self.oracle.get("sampled", 0),
                    self.oracle.get("total", 0),
                    ", ".join(
                        "%s=%s" % (name, self.oracle["memberships"][name])
                        for name in sorted(self.oracle.get("memberships", {}))
                    )
                    or "n/a",
                )
            )
        for rendered in self.violations[:5]:
            lines.append("  VIOLATION %s" % rendered)
        for error in self.errors[:5]:
            lines.append("  ERROR %s" % error)
        return "\n".join(lines)


def cross_key_oracle(
    rows: List[Tuple[str, int, int, str, float, float]],
    n_processes: int,
    sample: int = ORACLE_SAMPLE,
) -> Dict[str, Any]:
    """Exact membership of the merged cross-key run in the limit sets.

    ``rows`` are delivered-row tuples ``(id, src, dst, key, sent,
    delivered)`` collected from every shard.  The most recent ``sample``
    of them (by delivery time) are rebuilt into a user run -- send and
    deliver events interleaved by wall time per process -- and judged
    with the repo's exact limit-set machinery: ``X_async`` membership,
    causal ordering, and logical synchrony via the crown oracle
    (:func:`repro.runs.limit_sets.sync_numbering`).

    Per-key lanes *cannot* see these properties: a crown or a causal
    inversion spanning two keys lives on two different shards.  That is
    the operational face of the paper's classification -- the per-key
    scoped specs stay order-1 (tagged, checkable locally with bounded
    tags) while their cross-key liftings are order-2 crowns (GENERAL:
    deciding them needs the merged run, which is exactly what this
    function is).
    """
    from repro.runs.limit_sets import limit_set_memberships
    from repro.simulation.trace import Trace

    total = len(rows)
    recent = sorted(rows, key=lambda row: row[5])[-max(0, sample):]
    trace = Trace(n_processes)
    events: List[Tuple[float, int, Event]] = []
    for row in recent:
        message_id, src, dst, key, sent, delivered = row
        # Broadcast lanes deliver one logical message at several
        # receivers; model each copy as its own point-to-point message
        # sharing a ``group`` (the paper's §7 multicast encoding).
        copy_id = "%s@p%d" % (message_id, dst)
        trace.register_message(
            Message(copy_id, src, dst, group=message_id, ordering_key=key)
        )
        # System-run grammar: invoke precedes send, receive precedes
        # deliver (the stable sort keeps same-timestamp pairs in order).
        events.append((sent, src, Event.invoke(copy_id)))
        events.append((sent, src, Event.send(copy_id)))
        events.append((delivered, dst, Event.receive(copy_id)))
        events.append((delivered, dst, Event.deliver(copy_id)))
    events.sort(key=lambda item: item[0])
    for when, process, event in events:
        trace.record(when, process, event)
    memberships = (
        limit_set_memberships(trace.to_user_run()) if recent else {}
    )
    keys = sorted({row[3] for row in recent})
    return {
        "total": total,
        "sampled": len(recent),
        "keys": len(keys),
        "memberships": memberships,
    }


async def collect(
    client: ClusterClient, per_shard_limit: int = ORACLE_SAMPLE
) -> List[Tuple[str, int, int, str, float, float]]:
    """Page back delivered rows from every shard's collect ring."""
    rows: List[Tuple[str, int, int, str, float, float]] = []
    for link in client.links:
        offset = 0
        while offset < per_shard_limit:
            limit = min(COLLECT_PAGE, per_shard_limit - offset)
            body = await link.request(
                codec.COLLECT, {"offset": offset, "limit": limit}
            )
            page = body.get("rows") or []
            rows.extend(tuple(row[:6]) for row in page)
            offset += len(page)
            if offset >= int(body.get("total", 0)) or not page:
                break
    return rows


async def drive_fleet(
    load: LoadGenerator, rate: float, duration: float, *, oracle: bool = True
) -> ShardRunReport:
    """Drive, drain, merge, judge -- one report for one run of the fleet
    ``load`` is connected to.  ``duration <= 0`` offers nothing."""
    report = ShardRunReport(
        n_shards=load.shards or 0,
        n_processes=load.n_processes,
        keys=load.keys or 0,
        rate=rate,
        duration=duration,
    )
    # A kept fleet's counters -- and its append-only error lines --
    # span its earlier runs; report this one.
    baseline = await load.stats()
    loop = asyncio.get_running_loop()
    start = loop.time()
    requested = load.requested
    if duration > 0:
        await load.run(rate, duration)
    report.offered = load.requested - requested
    await load.drain()
    drained, bodies = await load.quiesce(10.0, poll=0.05)
    report.elapsed = loop.time() - start
    if not drained:
        report.errors.append("fleet did not drain within timeout")
    merged_latency = Histogram("shard.latency")
    for before, body in zip(baseline, bodies):
        report.per_shard.append(body)
        report.invoked += int(body.get("invoked", 0)) - int(
            before.get("invoked", 0)
        )
        report.delivered += int(body.get("deliveries", 0)) - int(
            before.get("deliveries", 0)
        )
        report.pending += int(body.get("pending", 0))
        report.violations.extend(body.get("violations") or [])
        report.errors.extend(
            (body.get("errors") or [])[len(before.get("errors") or []) :]
        )
        wire = body.get("latencies")
        if wire:
            merged_latency.merge(Histogram.from_wire(wire, "shard.latency"))
        for key, row in (body.get("per_key") or {}).items():
            report.per_key[key] = row
    report.errors.extend(load.errors)
    if report.violations:
        report.violation = report.violations[0]
    report.latencies = merged_latency
    if oracle:
        report.oracle = cross_key_oracle(await collect(load), load.n_processes)
    return report


class ShardCoordinator:
    """Fleet controller for ``n_shards`` lane workers (see module doc)."""

    def __init__(
        self,
        n_shards: int,
        n_processes: int = 4,
        *,
        host: str = "127.0.0.1",
        port_base: int = DEFAULT_PORT_BASE,
        run_id: str = "default",
        lane_kind: str = "fifo",
        stall_key: Optional[str] = None,
        stall_seconds: float = 0.0,
        seed: int = 11,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1, got %d" % n_shards)
        #: What each worker is spawned with (shard k on ``port_base + k``).
        self.configs = [
            ShardWorkerConfig(
                shard=shard,
                n_shards=n_shards,
                n_processes=n_processes,
                port=port_base + shard,
                host=host,
                run_id=run_id,
                lane_kind=lane_kind,
                stall_key=stall_key,
                stall_seconds=stall_seconds,
            )
            for shard in range(n_shards)
        ]
        self.client = LoadGenerator(
            [config.port for config in self.configs], host, run_id, seed
        )
        self.processes: List[Any] = []

    # -- lifecycle ------------------------------------------------------------

    def spawn(self) -> None:
        """Start the worker fleet as OS processes."""
        self.processes = [spawn_worker(config) for config in self.configs]

    async def start(self, timeout: float = 10.0) -> None:
        """Spawn the fleet and rendezvous with every shard."""
        self.spawn()
        await self.client.connect(timeout)

    async def stop(self) -> None:
        """BYE every shard, close links, reap spawned processes."""
        await self.client.bye()
        await self.client.close()
        for process in self.processes:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=1.0)
        self.processes = []

    async def run(
        self,
        rate: float,
        duration: float,
        keys: int = 0,
        *,
        oracle: bool = True,
    ) -> ShardRunReport:
        """One run over ``keys`` ordering keys (``0``: each channel is a
        key), as :func:`drive_fleet` drives it."""
        self.client.keys = keys or None
        return await drive_fleet(self.client, rate, duration, oracle=oracle)


async def run_sharded(
    n_shards: int,
    rate: float,
    duration: float,
    *,
    n_processes: int = 4,
    keys: int = 0,
    lane_kind: str = "fifo",
    port_base: int = DEFAULT_PORT_BASE,
    stall_key: Optional[str] = None,
    stall_seconds: float = 0.0,
    oracle: bool = True,
    seed: int = 11,
) -> ShardRunReport:
    """Spawn a fleet, run one load arc, tear the fleet down."""
    coordinator = ShardCoordinator(
        n_shards,
        n_processes,
        port_base=port_base,
        lane_kind=lane_kind,
        stall_key=stall_key,
        stall_seconds=stall_seconds,
        seed=seed,
    )
    await coordinator.start()
    try:
        return await coordinator.run(rate, duration, keys, oracle=oracle)
    finally:
        await coordinator.stop()


def run_sharded_sync(*args: Any, **kwargs: Any) -> ShardRunReport:
    """Synchronous wrapper over :func:`run_sharded` (CLI/tests)."""
    return asyncio.run(run_sharded(*args, **kwargs))
