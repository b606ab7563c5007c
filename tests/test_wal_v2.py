"""WAL version 2: one record per fact, and one resolver that reads it.

A version-2 host log holds inputs and outputs only -- ``INPUT invoke``
*is* the invoke event, a first-copy user ``INPUT packet`` *is* the
receive event -- and a message's body once per segment.  Everything a
reader wants goes through :func:`repro.wal.resolve_events` and
:func:`repro.wal.resolve_inputs`.  These tests pin that what comes out
is what the hosts did:

- stored version-1 logs and the version-2 re-recording of the same
  seeded runs replay to the same verdict, order and event count;
- over generated runs (catalogue protocols, seeded mutations, ARQ under
  drops and duplications) the resolved event stream equals the hosts'
  trace and the redo stream rebuilds the live protocol state;
- segments rotated every few records each resolve on their own;
- a duplicate user packet is logged as a re-arrival and is no event.
"""

import importlib.util
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.events import RECEIVE
from repro.faults import FaultPlan
from repro.mc.mutations import mutation_factories
from repro.obs import Bus
from repro.protocols import catalogue
from repro.protocols.reliable import make_reliable
from repro.simulation import UniformLatency, random_traffic, run_simulation
from repro.wal import (
    WalSink,
    delivery_order,
    mc_prefix_from_records,
    read_log,
    read_segment,
    rebuild_protocol,
    replay_log,
    resolve_events,
    resolve_inputs,
    trace_from_records,
    workload_from_records,
)
from repro.wal import records as rec

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "wal_v1")
LATENCY = UniformLatency(low=1.0, high=30.0)


def _recipe():
    """``tests/data/wal_v1/record.py``: how the stored logs were written
    (by the last version-1 writer) and how to write them again."""
    spec = importlib.util.spec_from_file_location(
        "wal_v1_record", os.path.join(DATA, "record.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(trace):
    return [(r.time, r.process, r.event) for r in trace.records()]


def _factories():
    factories = {name: entry.factory for name, entry in catalogue().items()}
    factories.update(mutation_factories())
    return factories


def _record(directory, factory, workload, seed, faults=None, **sink_options):
    sink = WalSink(
        str(directory),
        meta={"processes": workload.n_processes},
        fsync=False,
        **sink_options,
    )
    try:
        return run_simulation(
            factory,
            workload,
            seed=seed,
            latency=LATENCY,
            faults=faults,
            bus=Bus(),
            wal=sink,
        )
    finally:
        sink.close()


# -- (a) stored version-1 logs -------------------------------------------------


class TestStoredVersion1Logs:
    #: name -> (repr(violation) is pinned below, events, records in v1)
    EXPECTED = {"fifo": (48, 73), "broken-fifo": (64, 97)}

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_replays_like_the_version_2_rerecording(self, name, tmp_path):
        events, stored_records = self.EXPECTED[name]
        stored_dir = os.path.join(DATA, name)
        _recipe().record(name, str(tmp_path))

        stored_log = read_log(stored_dir, strict=True)
        fresh_log = read_log(str(tmp_path), strict=True)
        assert {r.version for r in stored_log.records} == {1}
        assert {r.version for r in fresh_log.records} == {2}
        # Six records per message and a header then, four now.
        assert len(stored_log.records) == stored_records == 6 * events // 4 + 1
        assert len(fresh_log.records) == events + 1

        stored, fresh = replay_log(stored_dir), replay_log(str(tmp_path))
        assert repr(stored.violation) == repr(fresh.violation)
        assert delivery_order(stored.trace) == delivery_order(fresh.trace)
        assert stored.trace.record_count == fresh.trace.record_count == events
        assert _rows(stored.trace) == _rows(fresh.trace)

        # The other projections agree too.
        assert list(resolve_inputs(stored_log.records)) == list(
            resolve_inputs(fresh_log.records)
        )
        assert workload_from_records(stored_log.records) == workload_from_records(
            fresh_log.records
        )
        assert mc_prefix_from_records(stored_log.records) == mc_prefix_from_records(
            fresh_log.records
        )

    def test_the_pinned_verdicts(self):
        assert replay_log(os.path.join(DATA, "fifo")).violation is None
        violation = replay_log(os.path.join(DATA, "broken-fifo")).violation
        assert violation.predicate_name == "fifo"
        assert dict(violation.assignment) == {"x": "m3", "y": "m5"}

    def test_a_version_1_input_implies_no_event(self):
        """Version 1 wrote the event beside the input: reading its
        inputs as events too would record every invoke twice."""
        records = read_log(os.path.join(DATA, "fifo")).records
        inputs_only = [r for r in records if r.kind == rec.INPUT]
        assert len(inputs_only) == 24
        assert list(resolve_events(inputs_only)) == []
        for record in inputs_only:  # the same bodies, read as version 2
            record.version = 2
        assert len(list(resolve_events(inputs_only))) == 24

    def test_a_version_1_rearrival_is_told_apart_by_the_resolver(self):
        """Version 1 logged a duplicate as a plain packet; the resolver
        marks it, so ``rebuild_protocol`` keeps no received-set."""
        records = read_log(os.path.join(DATA, "fifo")).records
        first = next(
            r for r in records if r.kind == rec.INPUT and r.body["op"] == "packet"
        )
        ops = [op for op, _t, _p, _payload in resolve_inputs([first, first])]
        assert ops == ["packet", "duplicate"]


# -- (b) the resolved streams are what the hosts did ---------------------------


@st.composite
def recorded_runs(draw):
    name = draw(st.sampled_from(sorted(_factories())))
    n_processes = draw(st.integers(min_value=2, max_value=4))
    messages = draw(st.integers(min_value=3, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    lossy = draw(st.booleans())
    return name, n_processes, messages, seed, lossy


class TestResolvedStreamsMatchTheLiveRun:
    DURABLE_ARQ_ATTRS = ("_next_seq", "_expected", "_buffer")

    @given(recorded_runs())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_events_equal_the_trace_and_inputs_rebuild_the_protocol(
        self, tmp_path_factory, run
    ):
        name, n_processes, messages, seed, lossy = run
        factory = _factories()[name]
        faults = None
        if lossy:  # ARQ underneath, so drops and duplicates are survivable
            factory = make_reliable(factory)
            faults = FaultPlan(drop_rate=0.2, dup_rate=0.2, seed=seed)
        workload = random_traffic(n_processes, messages, seed=seed)
        directory = tmp_path_factory.mktemp("run")
        live = _record(directory, factory, workload, seed, faults)
        records = read_log(str(directory), strict=True).records

        # Events: kind, process, message, order -- and time.
        resolved = list(resolve_events(records))
        assert [(t, p, event) for t, p, event, _m in resolved] == _rows(live.trace)
        for _t, _p, event, message in resolved:
            assert message == live.trace.message(event.message_id)
        # ...of which the log wrote only the two the protocol controls.
        written = [r.body["k"] for r in records if r.kind == rec.EVENT]
        assert sorted(set(written)) == ["deliver", "send"]
        assert len(written) == 2 * live.stats.user_messages

        # Inputs: a fresh protocol fed the redo stream is the live one.
        # (Not sync-rdv's: its retries are timer-driven, and timers are
        # volatile by the fault model -- the redo log never held them.)
        if name == "sync-rdv":
            return
        for process_id, live_protocol in enumerate(live.protocols):
            rebuilt = rebuild_protocol(factory, process_id, n_processes, records)
            if not lossy:
                assert rebuilt.snapshot() == live_protocol.snapshot()
                continue
            for attr in self.DURABLE_ARQ_ATTRS:
                assert getattr(rebuilt, attr) == getattr(live_protocol, attr), attr
            assert {
                dst: dict(segments)
                for dst, segments in rebuilt._unacked.items()
                if segments
            } == {
                dst: dict(segments)
                for dst, segments in live_protocol._unacked.items()
                if segments
            }


# -- (c) rotation ----------------------------------------------------------------


class TestEverySegmentResolvesOnItsOwn:
    @pytest.mark.parametrize("name", ["fifo", "sync-coord", "causal-rst"])
    def test_rotating_every_few_records(self, name, tmp_path):
        factory = catalogue()[name].factory
        workload = random_traffic(3, 24, seed=5)
        whole = _record(tmp_path / "whole", factory, workload, 5)
        # Room for the header and three or four records, bodies included.
        limit = 1500
        _record(
            tmp_path / "rotated", factory, workload, 5, max_segment_bytes=limit
        )
        whole_log = read_log(str(tmp_path / "whole"), strict=True)
        rotated_log = read_log(str(tmp_path / "rotated"), strict=True)
        assert len(whole_log.segments) == 1
        assert len(rotated_log.segments) > 10

        events = 0
        for path in rotated_log.segments:
            assert os.path.getsize(path) <= limit
            records, dropped = read_segment(path, strict=True)
            assert dropped == 0 and records[0].kind == rec.META
            assert len(records) > 2  # "every few", not every one
            # Alone: every reference finds its body inside the segment...
            events += len(list(resolve_events(records)))
            list(resolve_inputs(records))
            # ...because the first mention carries it and no later one does.
            mentioned = set()
            for record in records[1:]:
                cid = record.body.get("cid")
                if cid is not None:
                    assert ("m" in record.body) == (cid not in mentioned)
                    mentioned.add(cid)
        assert events == whole.trace.record_count

        # Together: the same run as the unrotated log, by either reader.
        assert _rows(trace_from_records(rotated_log.records, 3)) == _rows(
            whole.trace
        )
        assert list(resolve_inputs(rotated_log.records)) == list(
            resolve_inputs(whole_log.records)
        )
        replayed = replay_log(str(tmp_path / "rotated"), catalogue()[name].spec)
        assert replayed.violation is None
        assert delivery_order(replayed.trace) == delivery_order(whole.trace)

    def test_a_reference_without_its_body_is_corrupt_not_a_crash(self, tmp_path):
        _record(tmp_path, catalogue()["fifo"].factory, random_traffic(2, 3, seed=1), 1)
        records = read_log(str(tmp_path)).records
        dangling = [r for r in records if "cid" in r.body and "m" not in r.body]
        assert dangling
        with pytest.raises(rec.WalCorrupt, match="bad (EVENT|INPUT) body"):
            list(resolve_events(dangling[:1]))


# -- (d) duplicates ----------------------------------------------------------------


class TestDuplicatesAreRearrivals:
    def test_a_duplicate_user_packet_is_no_second_receive(self, tmp_path):
        """Retransmissions racing their acks, and network duplicates:
        each is logged as ``op: duplicate`` and implies no event."""
        factory = make_reliable(catalogue()["fifo"].factory)
        workload = random_traffic(3, 20, seed=11)
        live = _record(
            tmp_path,
            factory,
            workload,
            11,
            FaultPlan(drop_rate=0.25, dup_rate=0.25, seed=11),
        )
        assert live.delivered_all
        assert live.stats.duplicate_receives > 0
        records = read_log(str(tmp_path), strict=True).records

        duplicates = [
            r for r in records if r.kind == rec.INPUT and r.body["op"] == "duplicate"
        ]
        assert len(duplicates) == live.stats.duplicate_receives
        # A re-arrival's body is already in the segment: id alone.
        assert all("m" not in r.body and "cid" in r.body for r in duplicates)

        receives = [
            event for _t, _p, event, _m in resolve_events(records)
            if event.kind is RECEIVE
        ]
        assert len(receives) == len(set(receives)) == 20
        assert _rows(trace_from_records(records, 3)) == _rows(live.trace)
        # The redo stream still holds them, as what they were.
        redo = [op for op, _t, _p, _payload in resolve_inputs(records)]
        assert redo.count("duplicate") == len(duplicates)

    def test_an_ack_is_logged_once(self, tmp_path):
        """The control packet that carried the ack is the fact; the
        ``retx.ack`` probe that shadowed it is no longer taped."""
        factory = make_reliable(catalogue()["fifo"].factory)
        _record(tmp_path, factory, random_traffic(3, 10, seed=2), 2)
        records = read_log(str(tmp_path)).records
        probes = {r.body["probe"] for r in records if r.kind == rec.RETX}
        assert "retx.ack" not in probes
        acks = [
            r
            for r in records
            if r.kind == rec.INPUT and r.body.get("kind") == "control"
        ]
        assert acks
