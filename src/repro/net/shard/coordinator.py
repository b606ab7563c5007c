"""The shard coordinator: spawn, drive, merge, and finally *judge*.

The coordinator owns the fleet view of a sharded run:

1. **spawn/connect** -- start ``n_shards`` :mod:`worker
   <repro.net.shard.worker>` processes (or dial an already-running
   fleet, the ``repro serve --shards`` case) and rendezvous through a
   :class:`~repro.net.client.ClusterClient`, one link per shard ingress;
2. **drive** -- generate compact invoke rows, route each by its ordering
   key through :class:`~repro.net.shard.router.ShardRouter`, and ship
   one :data:`~repro.net.codec.INVOKE_BATCH` frame per shard per pacing
   tick.  Pacing uses absolute deadlines (:class:`~repro.net.cluster.Pacer`)
   so scheduling slop never compounds into rate drift;
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
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.events import Event, Message
from repro.net import codec
from repro.net.client import ClusterClient
from repro.net.cluster import Pacer
from repro.net.shard.router import ShardRouter, key_for
from repro.net.shard.worker import (
    COLLECT_PAGE,
    ShardWorkerConfig,
    spawn_worker,
)
from repro.obs.metrics import Histogram

__all__ = [
    "ShardCoordinator",
    "ShardRunReport",
    "cross_key_oracle",
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
        wal_dir: Optional[str] = None,
        stall_key: Optional[str] = None,
        stall_seconds: float = 0.0,
        seed: int = 11,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1, got %d" % n_shards)
        self.n_shards = n_shards
        self.n_processes = n_processes
        self.host = host
        self.port_base = port_base
        self.run_id = run_id
        self.lane_kind = lane_kind
        self.wal_dir = wal_dir
        self.stall_key = stall_key
        self.stall_seconds = stall_seconds
        self.router = ShardRouter(n_shards)
        self.rng = random.Random(seed)
        self.client = ClusterClient(
            [port_base + shard for shard in range(n_shards)], host, run_id
        )
        self.processes: List[Any] = []
        self._next_id = 0
        #: All ordered sender/receiver pairs, so load generation draws
        #: one uniform variate per row instead of three randrange calls
        #: (randrange is ~10x the cost of random() on the hot path).
        self._pairs = [
            (s, r)
            for s in range(n_processes)
            for r in range(n_processes)
            if s != r
        ] or [(0, 0)]
        self._key_names: List[str] = []

    # -- lifecycle ------------------------------------------------------------

    def worker_config(self, shard: int) -> ShardWorkerConfig:
        return ShardWorkerConfig(
            shard=shard,
            n_shards=self.n_shards,
            n_processes=self.n_processes,
            port=self.port_base + shard,
            host=self.host,
            run_id=self.run_id,
            lane_kind=self.lane_kind,
            wal_dir=self.wal_dir,
            stall_key=self.stall_key,
            stall_seconds=self.stall_seconds,
        )

    def spawn(self) -> None:
        """Start the worker fleet as OS processes."""
        for shard in range(self.n_shards):
            self.processes.append(spawn_worker(self.worker_config(shard)))

    async def connect(self, timeout: float = 10.0) -> None:
        """Rendezvous with every shard (spawned here or externally)."""
        await self.client.connect(timeout)

    async def start(self, timeout: float = 10.0) -> None:
        self.spawn()
        await self.connect(timeout=timeout)

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

    # -- load -----------------------------------------------------------------

    def _generate_tick(
        self, count: int, keys: int, batches: Dict[int, List[list]]
    ) -> None:
        """Append ``count`` fresh invoke rows to the per-shard batches."""
        now = time.time()
        uniform = self.rng.random
        pairs = self._pairs
        n_pairs = len(pairs)
        shard_of = self.router.shard_of
        if keys and len(self._key_names) != keys:
            self._key_names = ["k%d" % k for k in range(keys)]
        key_names = self._key_names
        span = n_pairs * keys if keys else n_pairs
        next_id = self._next_id
        for _ in range(count):
            choice = int(uniform() * span)
            sender, receiver = pairs[choice % n_pairs]
            key = (
                key_names[choice // n_pairs]
                if keys
                else key_for(sender, receiver)
            )
            message_id = "m%d" % next_id
            next_id += 1
            batches.setdefault(shard_of(key), []).append(
                [message_id, sender, receiver, key, now]
            )
        self._next_id = next_id

    async def run_load(
        self, rate: float, duration: float, keys: int = 0
    ) -> int:
        """Drive paced keyed load at the fleet; returns rows offered.

        One INVOKE_BATCH frame per shard per pacing tick, on the
        :meth:`Pacer.schedule <repro.net.cluster.Pacer.schedule>`
        absolute-deadline schedule.
        """
        pacer = Pacer(rate, duration)
        links = self.client.links
        emitted = 0
        async for tick in pacer.schedule():
            due = pacer.due(tick)
            if due > emitted:
                batches: Dict[int, List[list]] = {}
                self._generate_tick(due - emitted, keys, batches)
                emitted = due
                for shard, rows in batches.items():
                    links[shard].send(codec.INVOKE_BATCH, {"rows": rows})
                await asyncio.gather(
                    *(links[shard].writer.drain() for shard in batches)
                )
        return emitted

    # -- merge ----------------------------------------------------------------

    async def stats(self) -> List[Dict[str, Any]]:
        return await self.client.stats()

    async def metrics(self) -> str:
        """Concatenated OpenMetrics exposition of every shard.

        Each shard's series already carry its ``shard`` label, so the
        concatenation is well-formed for a scraper (distinct label sets,
        shared metric families).
        """
        chunks = []
        for body in await self.client.metrics():
            text = body.get("text", "")
            # Strip per-shard EOF markers; a single one terminates the
            # merged exposition.
            if text.endswith("# EOF\n"):
                text = text[: -len("# EOF\n")]
            chunks.append(text)
        return "".join(chunks) + "# EOF\n"

    async def drain(self, timeout: float = 10.0) -> bool:
        """Flush every shard and wait until nothing is in flight."""
        await self.client.drain()
        drained, _ = await self.client.quiesce(timeout, poll=0.05)
        return drained

    async def collect(
        self, per_shard_limit: int = ORACLE_SAMPLE
    ) -> List[Tuple[str, int, int, str, float, float]]:
        """Page back delivered rows from every shard's collect ring."""
        rows: List[Tuple[str, int, int, str, float, float]] = []
        for link in self.client.links:
            fetched = 0
            offset = 0
            while fetched < per_shard_limit:
                limit = min(COLLECT_PAGE, per_shard_limit - fetched)
                body = await link.request(
                    codec.COLLECT, {"offset": offset, "limit": limit}
                )
                page = body.get("rows") or []
                for row in page:
                    rows.append(
                        (row[0], row[1], row[2], row[3], row[4], row[5])
                    )
                fetched += len(page)
                offset += len(page)
                if offset >= int(body.get("total", 0)) or not page:
                    break
        return rows

    # -- the whole arc --------------------------------------------------------

    async def run(
        self,
        rate: float,
        duration: float,
        keys: int = 0,
        *,
        oracle: bool = True,
    ) -> ShardRunReport:
        """Drive, drain, merge, judge -- one report for the whole run."""
        report = ShardRunReport(
            n_shards=self.n_shards,
            n_processes=self.n_processes,
            keys=keys,
            rate=rate,
            duration=duration,
        )
        # A kept fleet's counters -- and its append-only error lines --
        # span its earlier runs; report this one.
        baseline = await self.stats()
        loop = asyncio.get_running_loop()
        start = loop.time()
        report.offered = await self.run_load(rate, duration, keys)
        drained = await self.drain()
        report.elapsed = loop.time() - start
        if not drained:
            report.errors.append("fleet did not drain within timeout")
        bodies = await self.stats()
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
        if report.violations:
            report.violation = report.violations[0]
        report.latencies = merged_latency
        if oracle:
            report.oracle = cross_key_oracle(await self.collect(), self.n_processes)
        return report


async def run_sharded(
    n_shards: int,
    rate: float,
    duration: float,
    *,
    n_processes: int = 4,
    keys: int = 0,
    lane_kind: str = "fifo",
    wal_dir: Optional[str] = None,
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
        wal_dir=wal_dir,
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
