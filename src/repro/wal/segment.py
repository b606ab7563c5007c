"""Append-only WAL segments: rotation, fsync batching, torn-tail reads.

A WAL directory holds numbered segment files (``wal-00000000.seg``,
``wal-00000001.seg``, ...).  :class:`SegmentWriter` appends encoded
records to the highest-numbered segment, batching ``flush``+``fsync``
every ``sync_every`` records and rotating to a fresh segment once the
current one would exceed ``max_segment_bytes``.  Every segment starts
with the record produced by ``header_factory`` (a META record in
practice) so each file is independently self-describing.

Readers tolerate exactly one kind of damage without complaint: a
*truncated final record*, the artifact a crash leaves behind when it
lands mid-``write``.  The torn tail is measured and dropped, never
replayed.  Mid-segment corruption (a failed checksum on a record that is
not the last one) means the file was damaged after the fact, and raising
is the honest move -- ``strict=True`` does that; the default salvages
the clean prefix, since a replay from a partial log is still a valid
(shorter) run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.wal.records import (
    UnknownWalVersion,
    WalCorrupt,
    WalRecord,
    WalTruncated,
    decode_record,
    encode_record,
)

__all__ = [
    "SEGMENT_NAME",
    "DEFAULT_MAX_SEGMENT_BYTES",
    "DEFAULT_SYNC_EVERY",
    "segment_paths",
    "read_segment",
    "read_log",
    "LogTail",
    "WalLog",
    "SegmentWriter",
]

SEGMENT_NAME = "wal-%08d.seg"
SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".seg"

DEFAULT_MAX_SEGMENT_BYTES = 4 * 1024 * 1024
DEFAULT_SYNC_EVERY = 64


def segment_paths(directory: str) -> List[str]:
    """The directory's segment files, in log order."""
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    segments = [
        name
        for name in names
        if name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX)
    ]
    return [os.path.join(directory, name) for name in sorted(segments)]


def _segment_index(path: str) -> int:
    stem = os.path.basename(path)[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)]
    try:
        return int(stem)
    except ValueError:
        return -1


def read_segment(path: str, strict: bool = False) -> Tuple[List[WalRecord], int]:
    """Decode one segment; returns ``(records, tail_dropped_bytes)``.

    A truncated final record is always dropped (that is the crash
    artifact this format is designed around).  Other damage --
    mid-segment corruption or an unknown format version -- raises under
    ``strict=True`` and is treated like a torn tail otherwise, except
    that an unknown version on the *first* record always raises: that is
    not damage, it is a file this reader cannot speak.
    """
    records, end, size = _read_from(path, 0, strict)
    return records, size - end


def _read_from(
    path: str, start: int, strict: bool
) -> Tuple[List[WalRecord], int, int]:
    """Decode ``path`` from byte ``start`` on, as :func:`read_segment`
    does; returns ``(records, end, size)``: where the last whole record
    ends, and how many bytes the file held."""
    with open(path, "rb") as handle:
        handle.seek(start)
        buffer = handle.read()
    records: List[WalRecord] = []
    offset = 0
    while offset < len(buffer):
        try:
            record, offset = decode_record(buffer, offset)
        except WalTruncated:
            break
        except UnknownWalVersion:
            if strict or start + offset == 0:
                raise
            break
        except WalCorrupt:
            if strict:
                raise
            break
        records.append(record)
    return records, start + offset, start + len(buffer)


@dataclass
class WalLog:
    """All records in a WAL directory, plus what the reader discarded."""

    records: List[WalRecord] = field(default_factory=list)
    segments: List[str] = field(default_factory=list)
    tail_dropped: int = 0


class LogTail:
    """A WAL directory read as it grows.

    Each :meth:`read` returns the whole log so far, but decodes only
    what was appended since the previous call: segments are append-only
    and numbered in log order, so the records already read stay valid,
    and only the last segment read can have grown.
    """

    def __init__(self, directory: str, strict: bool = False) -> None:
        self.directory = directory
        self.strict = strict
        self.log = WalLog()
        #: Per segment read: (bytes decoded, bytes the file held).
        self._extents: List[Tuple[int, int]] = []

    def read(self) -> WalLog:
        """The log (the same object on every call, grown in place)."""
        log, extents = self.log, self._extents
        paths = segment_paths(self.directory)
        for index in range(max(len(extents) - 1, 0), len(paths)):
            if index == len(extents):
                log.segments.append(paths[index])
                extents.append((0, 0))
            records, end, size = _read_from(
                paths[index], extents[index][0], self.strict
            )
            log.records.extend(records)
            extents[index] = (end, size)
        log.tail_dropped = sum(size - end for end, size in extents)
        return log


def read_log(directory: str, strict: bool = False) -> WalLog:
    """Read every segment in ``directory`` into one ordered record list."""
    return LogTail(directory, strict).read()


class SegmentWriter:
    """Append-only writer with count-based fsync batching and rotation."""

    def __init__(
        self,
        directory: str,
        *,
        max_segment_bytes: int = DEFAULT_MAX_SEGMENT_BYTES,
        sync_every: int = DEFAULT_SYNC_EVERY,
        fsync: bool = True,
        header_factory: Optional[Callable[[int], WalRecord]] = None,
    ):
        if max_segment_bytes <= 0:
            raise ValueError("max_segment_bytes must be positive")
        if sync_every <= 0:
            raise ValueError("sync_every must be positive")
        self.directory = directory
        self.max_segment_bytes = max_segment_bytes
        self.sync_every = sync_every
        self.fsync = fsync
        self.header_factory = header_factory
        os.makedirs(directory, exist_ok=True)
        existing = segment_paths(directory)
        # Never append into an old segment (its tail may be torn);
        # continue the numbering with a fresh file instead.
        self.segment_index = (
            max(_segment_index(path) for path in existing) + 1 if existing else 0
        )
        self._handle = None
        self._segment_bytes = 0
        self._header_bytes = 0
        self._unsynced = 0
        self.records_written = 0
        self.syncs = 0
        self.rotations = 0
        self.closed = False

    # -- lifecycle ------------------------------------------------------------

    def rotate(self) -> None:
        """Close the current segment, if any, and open the next one now."""
        if self.closed:  # every write after close() comes through here
            raise RuntimeError("append() on a closed SegmentWriter")
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self.segment_index += 1
            self.rotations += 1
        path = os.path.join(self.directory, SEGMENT_NAME % self.segment_index)
        # Unbuffered: every append is visible to same-machine readers
        # immediately (the WAL-before-ack discipline crash recovery
        # relies on); what ``sync_every`` batches is the *fsync*, i.e.
        # only a power failure can cost a torn tail.
        self._handle = open(path, "ab", buffering=0)
        self._segment_bytes = 0
        if self.header_factory is not None:
            header = encode_record(self.header_factory(self.segment_index))
            self._handle.write(header)
            self._segment_bytes += len(header)
        self._header_bytes = self._segment_bytes

    def rotates(self, size: int) -> bool:
        """Whether writing ``size`` more bytes opens a new segment (an
        oversize record stays in a segment that holds only its header)."""
        return self._handle is None or (
            self._segment_bytes + size > self.max_segment_bytes
            and self._segment_bytes > self._header_bytes
        )

    def append(self, record: WalRecord) -> None:
        """Append one record, rotating and sync-batching as configured."""
        encoded = encode_record(record)
        if self.rotates(len(encoded)):
            self.rotate()
        self.put(encoded)

    def put(self, encoded: bytes) -> None:
        """Append one already-encoded record to the open segment (one
        unbuffered ``write``): the caller asked :meth:`rotates` first."""
        self._handle.write(encoded)
        self._segment_bytes += len(encoded)
        self.records_written += 1
        self._unsynced += 1
        if self._unsynced >= self.sync_every:
            self.sync()

    def sync(self) -> None:
        """Force the segment to stable storage (fsync, if enabled)."""
        if self._handle is None:
            return
        if self.fsync:
            os.fsync(self._handle.fileno())
        if self._unsynced:
            self.syncs += 1
        self._unsynced = 0

    def close(self) -> None:
        """Final sync and close; idempotent."""
        if self.closed:
            return
        self.sync()
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self.closed = True
