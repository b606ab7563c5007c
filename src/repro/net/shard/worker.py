"""One shard worker: an OS process owning the lanes of its keys.

A worker is spawned per shard (``multiprocessing.Process``) and runs a
single asyncio loop with two planes:

ingress
    an :class:`~repro.net.endpoint.Endpoint` on ``port_base + shard``
    that accepts ``load`` clients only (the coordinator's
    :class:`~repro.net.cluster.LoadGenerator`, ``repro top``): the shared
    HELLO/READY rendezvous, whose READY states the shard and the fleet's
    layout, and STATS / METRICS / TRACE / DRAIN / BYE service, plus
    :data:`~repro.net.codec.INVOKE_BATCH` rows in and
    :data:`~repro.net.codec.COLLECT` pages out;

lanes
    one :class:`LaneEndpoint` per logical paper process.  The send path
    coalesces: rows accumulate per destination during a loop tick and
    each flush hands one batch per (sender, receiver) pair straight to
    the receiver -- the lanes share this loop, so a socket between them
    would only re-pay the codec.  One shard moves ~226 000 rows/s this
    way (``benchmarks/perf``, ``shard-fifo-1``).

Every worker keeps its own observability: a per-key live checker
(:mod:`repro.net.shard.lanes`), per-key stats, and an OpenMetrics
registry whose series carry a ``shard`` label.  It keeps no log, so a
worker that dies is not recovered.  Its TRACE reply has the shape of
a host's with ``"flight": None``, as an ``observability=False`` host
answers: a worker keeps no trace and emits no fault/recovery probe.

Fault injection for CI: lane kind ``broken-fifo`` reverses each flushed
batch on the send path, so the receiver's FIFO checker latches a real
violation and ``repro load`` exits non-zero.  ``stall_key``
defers one key's deliveries by ``stall_seconds`` without touching any
other lane -- the head-of-line-independence probe.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.events.message import channel_key
from repro.net import codec
from repro.net.endpoint import Endpoint
from repro.net.shard.lanes import KeyStats, LaneViolation, lane_checker
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.openmetrics import render_openmetrics

__all__ = ["ShardWorker", "ShardWorkerConfig", "spawn_worker", "worker_main"]

#: Rows per COLLECT page (bounds each reply frame well under the codec's
#: 4 MiB frame cap).
COLLECT_PAGE = 20_000

#: Delivered rows each shard keeps for the coordinator's end-of-run
#: cross-key oracle.
COLLECT_CAPACITY = 200_000


@dataclass
class ShardWorkerConfig:
    """Everything a worker process needs (picklable for ``spawn``)."""

    shard: int
    n_shards: int
    n_processes: int
    port: int
    host: str = "127.0.0.1"
    run_id: str = "default"
    #: "fifo" | "causal" | "broken-fifo" (send-path batch reversal).
    lane_kind: str = "fifo"
    #: Defer deliveries of this key by ``stall_seconds`` (HOL probe).
    stall_key: Optional[str] = None
    stall_seconds: float = 0.0


class LaneEndpoint:
    """One logical process's send/receive endpoint inside a worker."""

    def __init__(self, process_id: int, worker: "ShardWorker") -> None:
        self.process_id = process_id
        self.worker = worker
        #: Receiver-local acceptance test.  Sequence numbers are assigned
        #: per (key, dst) at the sender, so the matching checker state
        #: must live per receiver -- sharing it across endpoints would
        #: see every destination's seq-0 as a duplicate.
        self.checker = lane_checker(
            worker.config.lane_kind, worker.config.n_processes, process_id
        )
        #: Causal mode: rows parked until their causes are delivered
        #: (the tagged causal protocol's hold-back queue).
        self.holdback: List[Tuple[int, list]] = []
        #: dst -> outbound rows buffered for the next flush.
        self.outbox: Dict[int, List[list]] = {}
        #: (key, dst) -> next sequence number on that directed lane.
        self._seq: Dict[Tuple[str, int], int] = {}
        #: key -> this endpoint's causal clock for the key (causal mode).
        self._vc: Dict[str, List[int]] = {}
        self.rows_sent = 0

    def submit(self, row: list) -> None:
        """Queue one invoke row ``[id, sender, receiver, key, offered,
        color]`` (:func:`~repro.net.codec.invoke_rows`), its key filled in.

        In causal mode the row's receiver is ignored and the send fans
        out to every other process: causal ordering is a *broadcast*
        property (the paper's §7 group extension), and the vector-clock
        delivery condition is only sound when every process sees every
        keyed send.
        """
        key = row[3]
        if self.worker.causal:
            vc = self._vc.get(key)
            if vc is None:
                vc = [0] * self.worker.config.n_processes
                self._vc[key] = vc
            vc[self.process_id] += 1
            stamp = list(vc)
            for dst in range(self.worker.config.n_processes):
                if dst == self.process_id:
                    continue
                slot = (key, dst)
                seq = self._seq.get(slot, 0)
                self._seq[slot] = seq + 1
                self.outbox.setdefault(dst, []).append(
                    [row[0], key, seq, row[4], 0.0, stamp]
                )
                self.rows_sent += 1
            return
        dst = row[2]
        slot = (key, dst)
        seq = self._seq.get(slot, 0)
        self._seq[slot] = seq + 1
        self.outbox.setdefault(dst, []).append([row[0], key, seq, row[4], 0.0])
        self.rows_sent += 1

    def merge_clock(self, key: str, vc: List[int]) -> None:
        """Fold a delivered row's clock into this endpoint's key clock."""
        local = self._vc.get(key)
        if local is None:
            self._vc[key] = list(vc)
            return
        for index, count in enumerate(vc):
            if count > local[index]:
                local[index] = count


class ShardWorker(Endpoint):
    """The per-shard runtime (see module docstring)."""

    def __init__(self, config: ShardWorkerConfig) -> None:
        super().__init__(
            config.host,
            config.port,
            config.run_id,
            {
                "shard": config.shard,
                "shards": config.n_shards,
                "processes": config.n_processes,
            },
        )
        self._ready.set()  # the lanes are in-process: nobody to wait for
        self._requests[codec.INVOKE_BATCH] = self._on_invoke_batch
        self._requests[codec.COLLECT] = self.collect_body
        self.config = config
        self.causal = config.lane_kind == "causal"
        self.endpoints = [
            LaneEndpoint(p, self) for p in range(config.n_processes)
        ]
        self.key_stats = KeyStats()
        self.invoked = 0
        self.delivered = 0
        self.flushes = 0
        self.violations: List[LaneViolation] = []
        self._collect: deque = deque(maxlen=COLLECT_CAPACITY)
        self._collect_dropped = 0
        self._stalled = 0
        self._flush_scheduled = False

    @property
    def violation(self) -> Optional[str]:
        return self.violations[0].render() if self.violations else None

    def local_pending(self) -> int:
        """Lane rows sent but not yet delivered (the inline hand-off
        never loses, so the difference is exactly buffered, stalled plus
        held-back).

        Counted against lane rows rather than ingress rows because the
        causal mode fans each ingress row out to the key's whole
        process group.
        """
        sent = sum(endpoint.rows_sent for endpoint in self.endpoints)
        return sent - self.delivered

    # -- lane plane -----------------------------------------------------------

    def _deliver_batch(self, src: int, dst: int, rows: List[list]) -> None:
        config = self.config
        if config.stall_key is not None:
            stalled = [row for row in rows if row[1] == config.stall_key]
            if stalled:
                rows = [row for row in rows if row[1] != config.stall_key]
                self._stalled += len(stalled)
                asyncio.get_running_loop().call_later(
                    config.stall_seconds,
                    self._deliver_rows,
                    src,
                    dst,
                    stalled,
                )
        self._deliver_rows(src, dst, rows)

    def _deliver_rows(self, src: int, dst: int, rows: List[list]) -> None:
        if self.causal:
            self._deliver_causal(src, dst, rows)
            return
        # FIFO fast path: row = [id, key, seq, invoked, sent].
        now = time.time()
        checker = self.endpoints[dst].checker
        stats = self.key_stats
        collect = self._collect
        for row in rows:
            key = row[1]
            violation = checker.on_deliver(row[0], src, key, row[2])
            if violation is not None and len(self.violations) < 16:
                self.violations.append(violation)
            stats.on_deliver(key, now - row[3])
            if len(collect) == collect.maxlen:
                self._collect_dropped += 1
            collect.append((row[0], src, dst, key, row[4], now))
        self.delivered += len(rows)

    def _deliver_causal(self, src: int, dst: int, rows: List[list]) -> None:
        """Causal delivery with hold-back: a row whose clock is not yet
        deliverable parks until the deliveries it depends on land, then
        the parked set is rescanned to a fixpoint (each successful
        delivery can release others)."""
        endpoint = self.endpoints[dst]
        checker = endpoint.checker
        progressed = False
        for row in rows:
            # row = [id, key, seq, invoked, sent, vc]
            if checker.deliverable(src, row[1], row[5]):
                self._finish_causal_row(src, dst, row)
                progressed = True
            else:
                endpoint.holdback.append((src, row))
        while progressed and endpoint.holdback:
            progressed = False
            parked, endpoint.holdback = endpoint.holdback, []
            for held_src, row in parked:
                if checker.deliverable(held_src, row[1], row[5]):
                    self._finish_causal_row(held_src, dst, row)
                    progressed = True
                else:
                    endpoint.holdback.append((held_src, row))

    def _finish_causal_row(self, src: int, dst: int, row: list) -> None:
        now = time.time()
        endpoint = self.endpoints[dst]
        violation = endpoint.checker.on_deliver(
            row[0], src, row[1], row[2], row[5]
        )
        if violation is not None and len(self.violations) < 16:
            self.violations.append(violation)
        endpoint.merge_clock(row[1], row[5])
        self.key_stats.on_deliver(row[1], now - row[3])
        if len(self._collect) == self._collect.maxlen:
            self._collect_dropped += 1
        self._collect.append((row[0], src, dst, row[1], row[4], now))
        self.delivered += 1

    def _schedule_flush(self) -> None:
        if not self._flush_scheduled:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush_lanes)

    def _flush_lanes(self) -> None:
        """Hand each (src, dst) pair's buffered rows over as one batch."""
        self._flush_scheduled = False
        sent = time.time()
        reverse = self.config.lane_kind == "broken-fifo"
        for endpoint in self.endpoints:
            if not endpoint.outbox:
                continue
            outbox, endpoint.outbox = endpoint.outbox, {}
            for dst, rows in outbox.items():
                for row in rows:
                    row[4] = sent
                if reverse and len(rows) > 1:
                    rows.reverse()
                self._deliver_batch(endpoint.process_id, dst, rows)
        self.flushes += 1

    # -- ingress plane --------------------------------------------------------

    def _on_invoke_batch(self, frame: "codec.Frame") -> None:
        rows = codec.invoke_rows(frame.body, self.config.n_processes)
        if self.draining:
            self.errors.append(
                "shard %d: %d rows after DRAIN dropped"
                % (self.config.shard, len(rows))
            )
            return
        endpoints = self.endpoints
        for row in rows:
            if row[3] is None:
                row[3] = channel_key(row[1], row[2])
            endpoints[row[1]].submit(row)
        self.invoked += len(rows)
        self._schedule_flush()

    # -- report bodies --------------------------------------------------------

    def stats_body(self) -> Dict[str, Any]:
        latency = Histogram("shard.latency")
        for key in self.key_stats.delivered:
            histogram = self.key_stats.latency(key)
            if histogram is not None:
                latency.merge(histogram)
        return {
            "process": self.config.shard,
            "shard": self.config.shard,
            "shards": self.config.n_shards,
            "wall": time.time(),
            "invoked": self.invoked,
            "deliveries": self.delivered,
            "pending": self.local_pending(),
            "stalled": self._stalled,
            "flushes": self.flushes,
            "lane_kind": self.config.lane_kind,
            "latencies": latency.to_wire(),
            "per_key": self.key_stats.to_wire(),
            "violation": self.violation,
            "errors": list(self.errors),
        }

    def metrics_body(self) -> Dict[str, Any]:
        registry = MetricsRegistry()
        registry.counter(
            "shard.rows.invoked", "rows accepted from the coordinator"
        ).inc(self.invoked)
        registry.counter("shard.rows.delivered", "rows delivered").inc(
            self.delivered
        )
        registry.counter(
            "shard.lane.flushes", "coalesced per-tick lane flushes"
        ).inc(self.flushes)
        registry.counter(
            "shard.lane.violations", "per-key ordering violations latched"
        ).inc(len(self.violations))
        registry.gauge("shard.rows.pending", "accepted minus delivered").set(
            self.local_pending()
        )
        keys = registry.counter(
            "shard.keys.delivered", "deliveries per ordering key"
        )
        for key, count in self.key_stats.to_wire(top=16).items():
            keys.inc(count["delivered"], label=key)
        text = render_openmetrics(
            registry,
            {
                "process": str(self.config.shard),
                "shard": str(self.config.shard),
            },
        )
        return {
            "process": self.config.shard,
            "shard": self.config.shard,
            "wall": time.time(),
            "text": text,
            "snapshot": registry.snapshot(),
        }

    def trace_body(self) -> Dict[str, Any]:
        return {
            "process": self.config.shard,
            "wall": time.time(),
            "virtual": 0.0,
            "time_scale": 1.0,
            "flight": None,
        }

    def collect_body(self, frame: "codec.Frame") -> Dict[str, Any]:
        """One page of the delivered-row ring for the cross-key oracle."""
        try:
            offset = int(frame.body.get("offset", 0))
            limit = int(frame.body.get("limit", COLLECT_PAGE))
        except (TypeError, ValueError) as exc:
            raise codec.MalformedFrame("bad collect body: %s" % exc) from exc
        rows = list(self._collect)
        page = rows[offset : offset + max(1, limit)]
        return {
            "shard": self.config.shard,
            "offset": offset,
            "total": len(rows),
            "dropped": self._collect_dropped,
            "rows": [list(row) for row in page],
        }

    def _barrier_lifted(self) -> None:
        # The delivered-row ring is one run's evidence for the cross-key
        # oracle; the next run on a kept fleet starts an empty one.
        self._collect.clear()
        self._collect_dropped = 0

    def _close(self) -> None:
        self._flush_lanes()


def worker_main(config: ShardWorkerConfig) -> None:
    """Child-process entry point: serve one shard until BYE or SIGTERM."""
    try:
        asyncio.run(ShardWorker(config).serve_forever())
    except KeyboardInterrupt:  # pragma: no cover - before the handlers are in
        pass


def spawn_worker(config: ShardWorkerConfig) -> multiprocessing.Process:
    """Start one worker as a daemonized OS process."""
    process = multiprocessing.Process(
        target=worker_main, args=(config,), daemon=True
    )
    process.start()
    return process
