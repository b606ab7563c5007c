"""WalSink: the append-only hook the Simulator and NetHost write through.

One sink owns one WAL directory.  It taps three producer surfaces and
funnels everything into a single :class:`~repro.wal.segment.SegmentWriter`:

- a :class:`~repro.simulation.host.ProtocolHost` ``input_listener`` --
  every invoke and packet arrival becomes an INPUT record in processing
  order (the redo log crash recovery replays);
- a :class:`~repro.simulation.trace.Trace` tap -- a trace record becomes
  an EVENT record, unless it is an invoke or a receive and a host is
  attached: the host just logged the input that *is* that event
  (:mod:`repro.wal.records`);
- a :class:`~repro.obs.bus.Bus` subscription over the fault, retx and
  timer probes (the recovery history a replayed run carries along).

Producers differ only in which taps they attach: the Simulator attaches
all hosts plus the shared trace; a NetHost attaches its own host and
trace (its WAL is a per-process segment directory); an observer-side
recorder attaches the merged live trace and no host, so it writes all
four events.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set

from repro.events import INVOKE, RECEIVE, Message
from repro.simulation.trace import TraceRecord
from repro.wal import records as rec
from repro.wal.records import WalError, WalRecord, frame_text
from repro.wal.segment import (
    DEFAULT_MAX_SEGMENT_BYTES,
    DEFAULT_SYNC_EVERY,
    LogTail,
    SegmentWriter,
    WalLog,
)

__all__ = ["WalSink"]

#: Bus probes mirrored into the WAL, mapped to their record kind.
_PROBE_KINDS = {
    "fault.drop": rec.FAULT,
    "fault.dup": rec.FAULT,
    "fault.partition": rec.FAULT,
    "fault.spike": rec.FAULT,
    "crash": rec.FAULT,
    "restart": rec.FAULT,
    "retx.send": rec.RETX,
    "retx.dup": rec.RETX,
    "timer.fire": rec.TIMER,
}


class WalSink:
    """Write-ahead log sink: one directory, one writer, many taps."""

    def __init__(
        self,
        directory: str,
        *,
        meta: Optional[Dict[str, Any]] = None,
        sync_every: int = DEFAULT_SYNC_EVERY,
        max_segment_bytes: int = DEFAULT_MAX_SEGMENT_BYTES,
        fsync: bool = True,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.directory = directory
        self.meta = dict(meta or {})
        self._clock = clock or (lambda: 0.0)
        #: Whether a host's inputs are logged here (and imply its invoke
        #: and receive events); content ids the open segment has bodies for.
        self._hosted = False
        self._seen: Set[str] = set()
        self.writer = SegmentWriter(
            directory,
            max_segment_bytes=max_segment_bytes,
            sync_every=sync_every,
            fsync=fsync,
            header_factory=self._header,
        )
        self._unsubscribes: List[Callable[[], None]] = []
        self._tail = LogTail(directory)
        self.closed = False

    def _header(self, segment_index: int) -> WalRecord:
        self._seen.clear()  # a fresh segment holds no bodies yet
        fields = dict(self.meta)
        fields["segment"] = segment_index
        return rec.meta_record(fields)

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Use ``clock`` for record timestamps that lack their own."""
        self._clock = clock

    # -- taps -----------------------------------------------------------------

    def _append(self, kind: int, spell: Callable[..., str], *args: Any) -> None:
        """Append the ``kind`` record whose body is ``spell(*args, seen)``,
        a record that mentions a message.  Body or reference depends on
        the segment it lands in, and that on its size: one that would
        open a new segment is spelled again once the segment is open
        (its header emptied the set)."""
        writer = self.writer
        try:
            encoded = frame_text(kind, spell(*args, self._seen))
            if writer.rotates(len(encoded)):
                writer.rotate()
                encoded = frame_text(kind, spell(*args, self._seen))
        except WalError:
            # Too big to write: its message joined the set, but no body
            # did, so later mentions must carry theirs again.
            self._seen.clear()
            raise
        writer.put(encoded)

    def on_trace(self, record: TraceRecord, message: Message) -> None:
        """Trace tap: one EVENT record per trace record no input implies."""
        kind = record.event.kind
        if self._hosted and (kind is INVOKE or kind is RECEIVE):
            return
        self._append(rec.EVENT, rec.event_text, record, message)

    def attach_trace(self, trace) -> None:
        """Mirror every future record of ``trace`` into the log."""
        trace.attach_tap(self.on_trace)

    def input_listener(self, process: int, op: str, payload: Any) -> None:
        """Host tap: one INPUT record per invoke / packet arrival."""
        t = self._clock()
        if op == "invoke":
            self._append(rec.INPUT, rec.invoke_text, t, process, payload)
        else:  # "packet", or "duplicate" for a re-arrival
            self._append(rec.INPUT, rec.packet_text, t, process, payload, op)

    def attach_host(self, host) -> None:
        """Log ``host``'s inputs, which stand for its invoke and receive
        events from here on."""
        host.input_listener = self.input_listener
        self._hosted = True

    def _on_probe(self, event) -> None:
        kind = _PROBE_KINDS[event.probe]
        try:
            process = int(event.data.get("process", -1))
        except (TypeError, ValueError):
            process = -1
        self.writer.append(
            rec.probe_record(kind, event.time, process, event.probe, event.data)
        )

    def attach_bus(self, bus) -> None:
        """Mirror the fault/retx/timer probe streams into the log."""
        for probe in sorted(_PROBE_KINDS):
            self._unsubscribes.append(bus.subscribe(probe, self._on_probe))

    # -- explicit records -----------------------------------------------------

    def checkpoint(self, **fields: Any) -> None:
        """Write a CHECKPOINT record and force it to disk."""
        self.writer.append(rec.checkpoint_record(self._clock(), fields))
        self.writer.sync()

    # -- lifecycle ------------------------------------------------------------

    def sync(self) -> None:
        """Force buffered records to disk."""
        self.writer.sync()

    def reload(self) -> WalLog:
        """Sync, then read the directory back: the records an earlier
        call read are kept, and only what was appended since is decoded
        (a simulated restart rebuilds from this log, once per kill)."""
        self.sync()
        return self._tail.read()

    def close(self) -> None:
        """Unsubscribe probe taps, final sync, close the writer."""
        if self.closed:
            return
        for unsubscribe in self._unsubscribes:
            unsubscribe()
        self._unsubscribes = []
        self.writer.close()
        self.closed = True
