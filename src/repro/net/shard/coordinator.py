"""The shard coordinator: spawn, drive, reduce, and finally *judge*.

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
3. **reduce and judge** -- :func:`~repro.net.cluster.drive_run`, the
   arc every cluster run follows, folds the shards' STATS into one
   :class:`~repro.net.cluster.NetRunReport` and, after DRAIN, pages the
   shards' delivered-row rings back over COLLECT frames (:func:`collect`)
   to run the *cross-key membership oracle* (:func:`cross_key_oracle`)
   on a merged sample: per-key lanes can check fifo/causal scoped to a
   key live and O(1), but any spec that escalates to GENERAL across keys
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
from typing import Any, Dict, List, Optional, Tuple

from repro.events import Event, Message
from repro.net import codec
from repro.net.client import ClusterClient
from repro.net.cluster import LoadGenerator, NetRunReport, drive_run
from repro.net.shard.worker import (
    COLLECT_PAGE,
    ShardWorkerConfig,
    spawn_worker,
)

__all__ = [
    "ShardCoordinator",
    "collect",
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
    ) -> NetRunReport:
        """One run over ``keys`` ordering keys (``0``: each channel is a
        key), as :func:`~repro.net.cluster.drive_run` drives any cluster."""
        self.client.keys = keys or None
        return await drive_run(
            self.client,
            None,
            self.configs[0].lane_kind,
            rate,
            duration,
            oracle=oracle,
        )


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
) -> NetRunReport:
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


def run_sharded_sync(*args: Any, **kwargs: Any) -> NetRunReport:
    """Synchronous wrapper over :func:`run_sharded` (CLI/tests)."""
    return asyncio.run(run_sharded(*args, **kwargs))
