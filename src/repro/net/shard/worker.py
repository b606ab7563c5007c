"""One shard worker: an OS process owning the lanes of its keys.

A worker is spawned per shard (``multiprocessing.Process``) and runs a
single asyncio loop with two planes:

ingress
    a TCP server on ``port_base + shard`` speaking the runtime's frame
    protocol to the coordinator: HELLO/READY rendezvous, then
    :data:`~repro.net.codec.INVOKE_BATCH` rows in, and
    STATS / METRICS / TRACE / DRAIN / COLLECT / BYE round trips;

lanes
    one :class:`LaneEndpoint` per logical paper process, connected
    pairwise over real loopback TCP *within* the worker.  The send path
    coalesces: rows accumulate per destination during a loop tick and
    leave as one :data:`~repro.net.codec.USER_BATCH` frame per peer per
    flush, which is what turns the per-frame codec cost (~8.5us) into a
    per-row cost (~1us) and makes the 50x aggregate target reachable.

Every worker keeps its own observability: a per-key live checker
(:mod:`repro.net.shard.lanes`), per-key stats, a
:class:`~repro.obs.flight.FlightRecorder` taping batch lifecycle, an
optional per-shard WAL directory (``<wal_dir>/shard<k>``), and an
OpenMetrics registry whose series carry a ``shard`` label.

Fault injection for CI: lane kind ``broken-fifo`` reverses each flushed
batch on the send path, so the receiver's FIFO checker latches a real
violation and ``repro load --shards`` exits non-zero.  ``stall_key``
defers one key's deliveries by ``stall_seconds`` without touching any
other lane -- the head-of-line-independence probe.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.net import codec
from repro.net.client import PULLS
from repro.net.shard.lanes import KeyStats, LaneViolation, lane_checker
from repro.obs.bus import Bus
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.openmetrics import render_openmetrics

__all__ = ["ShardWorker", "ShardWorkerConfig", "spawn_worker", "worker_main"]

#: Rows per COLLECT page (bounds each reply frame well under the codec's
#: 4 MiB frame cap).
COLLECT_PAGE = 20_000


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
    #: Latency is sampled one-in-``latency_sample`` deliveries.
    latency_sample: int = 4
    #: Per-shard ring of delivered rows kept for the coordinator's
    #: end-of-run cross-key oracle (0 disables collection).
    collect_capacity: int = 200_000
    #: Per-shard WAL segment directory root (``<wal_dir>/shard<k>``).
    wal_dir: Optional[str] = None
    flight_capacity: int = 512
    #: Defer deliveries of this key by ``stall_seconds`` (HOL probe).
    stall_key: Optional[str] = None
    stall_seconds: float = 0.0
    #: Lane transport between a shard's co-located endpoints.  Inline
    #: hands each flushed batch straight to the receiver (the endpoints
    #: share one loop; a loopback socket would only re-pay the codec);
    #: ``tcp`` runs real per-pair loopback connections -- same framing
    #: as the wire, used by tests to exercise the USER_BATCH codec path.
    lane_transport: str = "inline"


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
        #: dst -> writer of this endpoint's dialed lane connection.
        self.writers: Dict[int, asyncio.StreamWriter] = {}
        #: (key, dst) -> next sequence number on that directed lane.
        self._seq: Dict[Tuple[str, int], int] = {}
        #: key -> this endpoint's causal clock for the key (causal mode).
        self._vc: Dict[str, List[int]] = {}
        self.rows_sent = 0
        self.rows_delivered = 0

    def submit(self, row: list) -> None:
        """Queue one invoke row ``[id, sender, receiver, key, invoked]``.

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


class ShardWorker:
    """The per-shard runtime (see module docstring)."""

    def __init__(self, config: ShardWorkerConfig) -> None:
        self.config = config
        self.causal = config.lane_kind == "causal"
        self.endpoints = [
            LaneEndpoint(p, self) for p in range(config.n_processes)
        ]
        self.key_stats = KeyStats(sample=config.latency_sample)
        self.invoked = 0
        self.delivered = 0
        self._batches = 0
        self.flushes = 0
        self.frames_sent = 0
        self.draining = False
        self.errors: List[str] = []
        self.violations: List[LaneViolation] = []
        self._collect: deque = deque(maxlen=max(1, config.collect_capacity))
        self._collect_dropped = 0
        self._stalled = 0
        self._flush_scheduled = False
        self._lane_server: Optional[asyncio.base_events.Server] = None
        self._ingress_server: Optional[asyncio.base_events.Server] = None
        self._client_writers: List[asyncio.StreamWriter] = []
        self._tasks: List[asyncio.Task] = []
        self._done = asyncio.Event()
        self.bus = Bus()
        self.flight = FlightRecorder(
            config.shard, capacity=config.flight_capacity
        )
        self.flight.attach(self.bus)
        self.wal: Optional[Any] = None
        if config.wal_dir is not None:
            import os

            from repro.wal import WalSink

            self.wal = WalSink(
                os.path.join(config.wal_dir, "shard%d" % config.shard),
                meta={
                    "run": config.run_id,
                    "shard": config.shard,
                    "shards": config.n_shards,
                    "processes": config.n_processes,
                    "lane_kind": config.lane_kind,
                },
            )

    @property
    def violation(self) -> Optional[str]:
        return self.violations[0].render() if self.violations else None

    @property
    def pending(self) -> int:
        """Lane rows sent but not yet delivered (loopback TCP never
        loses, so the difference is exactly in-flight plus held-back).

        Counted against lane rows rather than ingress rows because the
        causal mode fans each ingress row out to the key's whole
        process group.
        """
        sent = sum(endpoint.rows_sent for endpoint in self.endpoints)
        return sent - self.delivered

    # -- lane plane -----------------------------------------------------------

    async def _start_lanes(self) -> None:
        """Start the internal lane server and dial every directed pair."""
        if self.config.lane_transport == "inline":
            return
        self._lane_server = await asyncio.start_server(
            self._on_lane_connection, self.config.host, 0
        )
        port = self._lane_server.sockets[0].getsockname()[1]
        for endpoint in self.endpoints:
            for dst in range(self.config.n_processes):
                if dst == endpoint.process_id:
                    continue
                reader, writer = await asyncio.open_connection(
                    self.config.host, port
                )
                writer.write(
                    codec.encode_frame(
                        codec.HELLO,
                        {"src": endpoint.process_id, "dst": dst, "role": "lane"},
                    )
                )
                await writer.drain()
                endpoint.writers[dst] = writer

    async def _on_lane_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Receive side of one directed lane connection."""
        try:
            hello = await codec.read_frame(reader)
            if hello is None or hello.kind != codec.HELLO:
                writer.close()
                return
            src = int(hello.body["src"])
            dst = int(hello.body["dst"])
            while True:
                frame = await codec.read_frame(reader)
                if frame is None:
                    return
                if frame.kind == codec.USER_BATCH:
                    self._deliver_batch(src, dst, frame.body.get("rows") or [])
        except (codec.CodecError, ConnectionError, asyncio.CancelledError):
            return
        finally:
            if not writer.is_closing():
                writer.close()

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
        endpoint = self.endpoints[dst]
        checker = endpoint.checker
        stats = self.key_stats
        collect = self._collect
        collecting = self.config.collect_capacity > 0
        for row in rows:
            key = row[1]
            violation = checker.on_deliver(row[0], src, key, row[2])
            if violation is not None and len(self.violations) < 16:
                self.violations.append(violation)
            stats.on_deliver(key, now - row[3])
            if collecting:
                if len(collect) == collect.maxlen:
                    self._collect_dropped += 1
                collect.append((row[0], src, dst, key, row[4], now))
            endpoint.rows_delivered += 1
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
        if self.config.collect_capacity > 0:
            if len(self._collect) == self._collect.maxlen:
                self._collect_dropped += 1
            self._collect.append((row[0], src, dst, row[1], row[4], now))
        endpoint.rows_delivered += 1
        self.delivered += 1

    def _schedule_flush(self) -> None:
        if not self._flush_scheduled:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush_lanes)

    def _flush_lanes(self) -> None:
        """One USER_BATCH frame per (src, dst) pair with buffered rows."""
        self._flush_scheduled = False
        sent = time.time()
        reverse = self.config.lane_kind == "broken-fifo"
        inline = self.config.lane_transport == "inline"
        for endpoint in self.endpoints:
            if not endpoint.outbox:
                continue
            outbox, endpoint.outbox = endpoint.outbox, {}
            for dst, rows in outbox.items():
                for row in rows:
                    row[4] = sent
                if reverse and len(rows) > 1:
                    rows.reverse()
                if inline or dst == endpoint.process_id:
                    self._deliver_batch(endpoint.process_id, dst, rows)
                    continue
                writer = endpoint.writers.get(dst)
                if writer is None or writer.is_closing():
                    self.errors.append(
                        "lane %d->%d lost its connection"
                        % (endpoint.process_id, dst)
                    )
                    continue
                writer.write(
                    codec.encode_frame(
                        codec.USER_BATCH,
                        {"src": endpoint.process_id, "dst": dst, "rows": rows},
                    )
                )
                self.frames_sent += 1
        self.flushes += 1
        if self.bus.active:
            # One lifecycle record per flush (not per row) keeps the
            # flight tape O(1) on the hot path.
            self.bus.emit(
                "host.release",
                sent,
                message_id="flush-%d" % self.flushes,
                process=self.config.shard,
                receiver=-1,
                tag_bytes=0,
            )

    # -- ingress plane --------------------------------------------------------

    async def serve(self) -> None:
        """Start both planes and run until BYE."""
        await self._start_lanes()
        self._ingress_server = await asyncio.start_server(
            self._on_ingress_connection, self.config.host, self.config.port
        )
        await self._done.wait()
        await self.shutdown()

    async def _on_ingress_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._client_writers.append(writer)
        try:
            hello = await codec.read_frame(reader)
            if hello is None or hello.kind != codec.HELLO:
                return
            if hello.body.get("run") != self.config.run_id:
                self.errors.append(
                    "rejected connection for run %r (serving %r)"
                    % (hello.body.get("run"), self.config.run_id)
                )
                writer.close()
                return
            writer.write(
                codec.encode_frame(
                    codec.READY,
                    {"shard": self.config.shard, "run": self.config.run_id},
                )
            )
            await writer.drain()
            while True:
                frame = await codec.read_frame(reader)
                if frame is None:
                    return
                if frame.kind == codec.INVOKE_BATCH:
                    self._on_invoke_batch(frame.body.get("rows") or [])
                    continue
                body: Dict[str, Any] = {}
                if frame.kind in PULLS:
                    body = getattr(self, PULLS[frame.kind])()
                elif frame.kind == codec.COLLECT:
                    body = self.collect_body(
                        int(frame.body.get("offset", 0)),
                        int(frame.body.get("limit", COLLECT_PAGE)),
                    )
                elif frame.kind == codec.DRAIN:
                    self.draining = True
                    self._flush_lanes()
                elif frame.kind != codec.BYE:
                    continue
                writer.write(codec.encode_frame(frame.kind, body))
                await writer.drain()
                if frame.kind == codec.BYE:
                    self._done.set()
                    return
        except (codec.CodecError, ConnectionError, asyncio.CancelledError):
            return

    def _on_invoke_batch(self, rows: List[list]) -> None:
        if self.draining:
            self.errors.append(
                "shard %d: %d rows after DRAIN dropped"
                % (self.config.shard, len(rows))
            )
            return
        endpoints = self.endpoints
        for row in rows:
            endpoints[row[1]].submit(row)
        self.invoked += len(rows)
        self._schedule_flush()
        self._batches += 1
        if self.wal is not None and self._batches % 64 == 0:
            # checkpoint() fsyncs; every 64 ingress batches bounds loss
            # without putting a disk flush on every tick.
            self.wal.checkpoint(invoked=self.invoked, shard=self.config.shard)
        if self.bus.active:
            self.bus.emit(
                "host.invoke",
                time.time(),
                message_id="batch-%d" % self.invoked,
                process=self.config.shard,
                receiver=-1,
            )

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
            "pending": self.pending,
            "stalled": self._stalled,
            "flushes": self.flushes,
            "frames_sent": self.frames_sent,
            "lane_kind": self.config.lane_kind,
            "latencies": latency.to_wire(),
            "per_process": [
                {
                    "process": endpoint.process_id,
                    "invoked": endpoint.rows_sent,
                    "deliveries": endpoint.rows_delivered,
                }
                for endpoint in self.endpoints
            ],
            "per_key": self.key_stats.to_wire(),
            "violation": self.violation,
            "violations": [v.render() for v in self.violations[:5]],
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
            "shard.lane.frames", "USER_BATCH frames written"
        ).inc(self.frames_sent)
        registry.counter(
            "shard.lane.violations", "per-key ordering violations latched"
        ).inc(len(self.violations))
        registry.gauge("shard.rows.pending", "accepted minus delivered").set(
            self.pending
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
            "flight": self.flight.to_wire(),
        }

    def collect_body(self, offset: int, limit: int) -> Dict[str, Any]:
        """One page of the delivered-row ring for the cross-key oracle."""
        rows = list(self._collect)
        page = rows[offset : offset + max(1, limit)]
        return {
            "shard": self.config.shard,
            "offset": offset,
            "total": len(rows),
            "dropped": self._collect_dropped,
            "rows": [list(row) for row in page],
        }

    async def shutdown(self) -> None:
        self._flush_lanes()
        self.flight.close()
        if self.wal is not None:
            self.wal.checkpoint(
                invoked=self.invoked,
                delivered=self.delivered,
                shard=self.config.shard,
                final=True,
            )
            self.wal.close()
        for endpoint in self.endpoints:
            for writer in endpoint.writers.values():
                if not writer.is_closing():
                    writer.close()
        for writer in self._client_writers:
            if not writer.is_closing():
                writer.close()
        for server in (self._lane_server, self._ingress_server):
            if server is not None:
                server.close()
                await server.wait_closed()


def worker_main(config: ShardWorkerConfig) -> None:
    """Child-process entry point: serve one shard until BYE."""
    try:
        asyncio.run(ShardWorker(config).serve())
    except KeyboardInterrupt:  # pragma: no cover - operator interrupt
        pass


def spawn_worker(config: ShardWorkerConfig) -> multiprocessing.Process:
    """Start one worker as a daemonized OS process."""
    process = multiprocessing.Process(
        target=worker_main, args=(config,), daemon=True
    )
    process.start()
    return process
