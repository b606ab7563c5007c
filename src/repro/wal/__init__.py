"""repro.wal -- durable deterministic replay log.

A write-ahead event log shared by the Simulator and the NetHost: stable
content-addressed message ids, a versioned length-prefixed on-disk
record format (the wire codec's tagged value encoding), append-only
segment files with fsync batching and rotation, and three consumers on
top -- crash recovery by redo (:mod:`repro.wal.recovery`), bit-identical
record/replay into the SpecMonitor and prefix-seeded model checking
(:mod:`repro.wal.replay`), and resumable soak checkpoints
(:class:`~repro.wal.sink.WalSink`, CHECKPOINT records).
"""

from repro.wal.records import (
    CHECKPOINT,
    EVENT,
    FAULT,
    INPUT,
    META,
    RETX,
    TIMER,
    WAL_VERSION,
    UnknownWalVersion,
    WalCorrupt,
    WalError,
    WalRecord,
    WalTruncated,
    content_id,
    decode_record,
    encode_record,
    resolve_events,
    resolve_inputs,
)
from repro.wal.recovery import RecoveryReport, rebuild_protocol, replay_into_host
from repro.wal.replay import (
    ReplayResult,
    delivery_order,
    explore_from_log,
    mc_prefix_from_records,
    replay_log,
    trace_from_records,
    workload_from_records,
)
from repro.wal.segment import SegmentWriter, WalLog, read_log, read_segment
from repro.wal.sink import WalSink

__all__ = [
    "WAL_VERSION",
    "META",
    "EVENT",
    "INPUT",
    "FAULT",
    "RETX",
    "TIMER",
    "CHECKPOINT",
    "WalError",
    "WalTruncated",
    "WalCorrupt",
    "UnknownWalVersion",
    "WalRecord",
    "content_id",
    "encode_record",
    "decode_record",
    "resolve_events",
    "resolve_inputs",
    "SegmentWriter",
    "WalLog",
    "read_segment",
    "read_log",
    "WalSink",
    "RecoveryReport",
    "replay_into_host",
    "rebuild_protocol",
    "ReplayResult",
    "trace_from_records",
    "replay_log",
    "delivery_order",
    "workload_from_records",
    "mc_prefix_from_records",
    "explore_from_log",
]
