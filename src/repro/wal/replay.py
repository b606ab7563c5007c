"""Replay: turn a WAL directory back into a first-class run object.

A recorded run replays three ways:

- :func:`replay_log` rebuilds the :class:`~repro.simulation.trace.Trace`
  from the log's event stream (:func:`~repro.wal.records.resolve_events`:
  EVENT records plus the events its inputs imply) and drives it through
  the incremental
  :class:`~repro.verification.engine.monitor.SpecMonitor` -- the same
  engine, the same verdict, the same violating assignment as the live
  run, bit for bit.
- :func:`delivery_order` projects the delivery sequence (the paper's
  user-view order) for determinism comparisons.
- :func:`mc_prefix_from_records` + :func:`explore_from_log` hand the
  recorded run to the model checker as a fixed schedule prefix, so
  counterexample search continues *from the recorded state* instead of
  from scratch.

The mc projection is only sound for protocols that send no control
packets (the tagged/tagless catalogue half): the explorer keys
deliveries by per-channel transmission index, and control traffic --
invisible to the trace -- would shift those indexes.
:func:`explore_from_log` refuses the rest loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.events import DELIVER, INVOKE, RECEIVE, SEND
from repro.simulation.trace import Trace
from repro.simulation.workloads import SendRequest, Workload
from repro.wal import records as rec
from repro.wal.records import WalCorrupt, WalRecord, resolve_events
from repro.wal.segment import read_log

__all__ = [
    "ReplayResult",
    "trace_from_records",
    "replay_log",
    "delivery_order",
    "workload_from_records",
    "mc_prefix_from_records",
    "explore_from_log",
]


def _meta_of(records: List[WalRecord]) -> Dict[str, Any]:
    for record in records:
        if record.kind == rec.META:
            return dict(record.body)
    return {}


def _infer_processes(records: List[WalRecord]) -> int:
    highest = -1
    for _t, process, _event, message in resolve_events(records, verify=False):
        highest = max(highest, process, message.sender, message.receiver)
    return highest + 1


def trace_from_records(
    records: List[WalRecord], n_processes: int, verify: bool = True
) -> Trace:
    """Rebuild the trace from the event stream, content ids re-verified.

    Record order in the log *is* trace order: every event was appended
    at record time, by the trace tap or as the input that caused it, so
    replaying them through a fresh :class:`Trace` reproduces the
    identical record sequence (and the trace re-checks the event
    preconditions as it goes)."""
    trace = Trace(n_processes)
    register, record = trace.register_message, trace.record
    for t, process, event, message in resolve_events(records, verify):
        register(message)
        record(t, process, event)
    return trace


@dataclass
class ReplayResult:
    """One replayed run: its trace, metadata, and monitor verdict."""

    trace: Trace
    meta: Dict[str, Any] = field(default_factory=dict)
    violation: Optional[Any] = None
    tail_dropped: int = 0
    segments: int = 0
    #: Why the run was not monitored, or ``None`` when it was: no spec
    #: was given or recorded, or the recorded one does not resolve.
    unmonitored: Optional[str] = None

    @property
    def clean(self) -> bool:
        """Monitored, and no violation found."""
        return self.unmonitored is None and self.violation is None


def replay_log(directory: str, spec=None) -> ReplayResult:
    """Re-execute a recorded run into the incremental SpecMonitor.

    With ``spec=None`` the spec is resolved from the log's own META
    record (the ``spec`` field names a catalog entry); pass a
    :class:`~repro.predicates.Specification` to override.  Returns the
    rebuilt trace plus the monitor's verdict -- identical to the live
    run's, because both consumed the same records in the same order --
    or, when there is no spec to judge by, ``unmonitored`` saying why.
    """
    log = read_log(directory)
    if not log.segments:
        raise FileNotFoundError("no WAL segments in %r" % directory)
    meta = _meta_of(log.records)
    n_processes = int(meta.get("processes") or _infer_processes(log.records))
    trace = trace_from_records(log.records, n_processes)
    violation = None
    unmonitored = None
    if spec is None and meta.get("spec"):
        from repro.predicates.catalog import resolve_spec

        try:
            spec = resolve_spec(str(meta["spec"]), name="recorded")
        except ValueError:
            unmonitored = "recorded spec %r does not resolve; pass --spec" % (
                meta["spec"],
            )
    elif spec is None:
        unmonitored = "no spec recorded; pass --spec"
    if spec is not None:
        # The live observer's policy over the same records, so the
        # verdict matches the live one -- including which step (monitor
        # or oracle) flagged the run.
        from repro.verification.engine import capped_monitor

        monitor, oracle_check = capped_monitor(spec)
        violation = monitor.advance(trace)
        if violation is None and oracle_check is not None:
            violation = oracle_check(trace)
    return ReplayResult(
        trace=trace,
        meta=meta,
        violation=violation,
        tail_dropped=log.tail_dropped,
        segments=len(log.segments),
        unmonitored=unmonitored,
    )


def delivery_order(trace: Trace) -> List[Tuple[int, str]]:
    """The run's delivery sequence: ``(process, message_id)`` pairs in
    trace order -- the bit-exact determinism comparand."""
    return [
        (record.process, record.event.message_id)
        for record in trace.records()
        if record.event.kind is DELIVER
    ]


def workload_from_records(
    records: List[WalRecord], n_processes: Optional[int] = None
) -> Workload:
    """Reconstruct the request script from the INVOKE events.

    Ids are canonicalized to the workload convention (``m1``, ``m2``,
    ... in invoke order); colour/group/payload survive, times become the
    invoke index (the explorer ignores them, determinism prefers them
    stable)."""
    if n_processes is None:
        meta = _meta_of(records)
        n_processes = int(meta.get("processes") or _infer_processes(records))
    requests = []
    for _t, _process, event, message in resolve_events(records, verify=False):
        if event.kind is not INVOKE:
            continue
        requests.append(
            SendRequest(
                time=float(len(requests)),
                sender=message.sender,
                receiver=message.receiver,
                color=message.color,
                group=message.group,
                payload=message.payload,
            )
        )
    return Workload(
        name="replayed", n_processes=n_processes, requests=tuple(requests)
    )


def mc_prefix_from_records(records: List[WalRecord]) -> List[Tuple]:
    """Project the recorded run onto explorer transition keys.

    Walks the event stream once: each invoke becomes
    ``("invoke", sender, i)`` with ``i`` the global invoke index (the
    workload position :func:`workload_from_records` assigns), each send
    claims the next transmission slot on its ``(src, dst)`` channel, and
    each receive becomes ``("deliver", src, dst, channel_seq)`` for the
    slot its message claimed.  Valid only when user packets are the only
    channel traffic (see the module docstring).
    """
    prefix: List[Tuple] = []
    invoke_index: Dict[str, int] = {}
    channel_next: Dict[Tuple[int, int], int] = {}
    seq_of: Dict[str, int] = {}
    for _t, process, event, message in resolve_events(records, verify=False):
        kind = event.kind
        if kind is INVOKE:
            index = len(invoke_index)
            invoke_index[message.id] = index
            prefix.append(("invoke", message.sender, index))
        elif kind is SEND:
            channel = (process, message.receiver)
            seq = channel_next.get(channel, 0)
            channel_next[channel] = seq + 1
            seq_of[message.id] = seq
        elif kind is RECEIVE:
            if message.id not in seq_of:
                raise WalCorrupt(
                    "receive of %r precedes its send in the log" % message.id
                )
            prefix.append(
                ("deliver", message.sender, process, seq_of[message.id])
            )
    return prefix


def explore_from_log(directory: str, spec=None, **options):
    """Model-check onward from a recorded run's final state.

    Reads the log, rebuilds the workload and the schedule prefix, and
    hands both to :func:`repro.mc.explorer.check_protocol` with the
    protocol named in the META record.  The explorer replays the prefix
    as a fixed stem and explores only its continuations -- counterexample
    search seeded from a production state.
    """
    log = read_log(directory)
    if not log.segments:
        raise FileNotFoundError("no WAL segments in %r" % directory)
    meta = _meta_of(log.records)
    protocol = meta.get("protocol")
    if not protocol:
        raise ValueError(
            "the log's META record names no protocol; cannot re-explore"
        )
    from repro.protocols.registry import resolve

    if resolve(protocol).uses_control_messages:
        raise ValueError(
            "protocol %r sends control packets; the trace cannot fix "
            "their channel slots, so prefix-seeded exploration is only "
            "supported for tag-only protocols" % protocol
        )
    workload = workload_from_records(log.records)
    prefix = mc_prefix_from_records(log.records)
    from repro.mc.explorer import check_protocol

    return check_protocol(
        protocol, workload, spec=spec, prefix=prefix, **options
    )
