"""The ARQ acknowledges a batch, not a segment.

``ReliableProtocol`` notes which sources are owed an acknowledgment and
pays one cumulative ``rack`` per source when the host ends the batch
(:meth:`Protocol.on_batch_end`).  A batch is one packet in the
simulator, the model checker and WAL replay -- so those paths must be
byte-identical to the per-segment ARQ they replace (GOLDEN) -- and
one socket read on a :class:`NetHost`, where the saving is.
"""

import asyncio
import hashlib
import json
import os

import pytest

from repro.events import Message
from repro.faults import FaultPlan
from repro.mc import DEFAULT_MAX_DEPTH, check_protocol, named_workloads
from repro.net import NetHost, free_ports, run_cluster_sync
from repro.protocols.registry import catalogue_entry
from repro.simulation import random_traffic, run_simulation
from repro.simulation.host import ProtocolHost
from repro.simulation.network import FixedLatency, Network
from repro.simulation.sim import Simulator
from repro.simulation.trace import SimulationStats, Trace
from repro.wal import delivery_order

# 1 virtual unit == 1ms: the ARQ's 30-unit RTO is 30ms of wall time.
FAST = 0.001

# Generated at the parent commit (per-segment acks), one entry per
# protocol/seed, by this module's own _simulate(); zero counters left out.
with open(
    os.path.join(os.path.dirname(__file__), "data", "reliable_batch_ack_golden.json")
) as _handle:
    GOLDEN = json.load(_handle)

#: The pinned counters: the stats view's counts, then the fault layer's.
STATS_COUNTERS = (
    "user_messages",
    "control_messages",
    "control_bytes",
    "tag_bytes_total",
    "max_tag_bytes",
    "deliveries",
    "delayed_deliveries",
    "retransmissions",
    "duplicate_receives",
)
FAULT_COUNTERS = ("packets_dropped", "packets_duplicated")


def _simulate(name, seed):
    result = run_simulation(
        catalogue_entry(name).reliable_factory(),
        random_traffic(3, 12, seed=seed, color_every=6),
        seed=seed,
        faults=FaultPlan(drop_rate=0.2, dup_rate=0.1, seed=seed),
    )
    rows = [
        (repr(r.time), r.process, r.event.kind.name, r.event.message_id)
        for r in result.trace.records()
    ]
    counters = {name: getattr(result.stats, name) for name in STATS_COUNTERS}
    for name in FAULT_COUNTERS:
        counters[name] = getattr(result.fault_summary, name)
    return {
        "delivery_order": " ".join(
            "%d:%s" % pair for pair in delivery_order(result.trace)
        ),
        "counters": {name: value for name, value in counters.items() if value},
        "rows": len(rows),
        "rows_sha256": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
    }


class TestBatchOfOneIsTheOldArq:
    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_simulator_run_matches_the_parent_commit(self, key):
        """Delivery order, every counter and every timed trace row: an
        ack sent one call later than it used to be, in the same place in
        the packet order, draws the same latencies and faults."""
        name, seed = key.split("/")
        assert _simulate(name, int(seed)) == GOLDEN[key]

    def test_model_checker_explores_and_prunes_the_same_tree(self):
        """``repro check reliable-fifo --workload triple --fault-budget 1
        --exhaustive`` counted at the parent commit."""
        report = check_protocol(
            "reliable-fifo",
            named_workloads()["triple"](),
            fault_budget=1,
            max_schedules=None,
            max_depth=DEFAULT_MAX_DEPTH,
        ).to_dict()
        assert report["verified"] and report["exhaustive"]
        assert {
            key: report[key]
            for key in (
                "schedules_explored",
                "replays",
                "transitions",
                "pruned_sleep",
                "pruned_state",
                "depth_truncations",
            )
        } == {
            "schedules_explored": 771,
            "replays": 5531,
            "transitions": 75247,
            "pruned_sleep": 1569,
            "pruned_state": 933,
            "depth_truncations": 0,
        }


# -- live hosts ---------------------------------------------------------------


def _spawn(process_id, ports, wal_dir, run_id, faults=None):
    return NetHost(
        catalogue_entry("fifo").reliable_factory(),
        process_id,
        ports,
        run_id=run_id,
        faults=faults,
        time_scale=FAST,
        wal_dir=wal_dir,
        wal_meta={"protocol": "fifo"},
    )


async def _until(condition, timeout=10.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.002)


def _settled(sender, receiver, delivered):
    """``receiver`` delivered that many and ``sender`` holds no unacked
    segment for it."""
    return lambda: (
        receiver.stats.deliveries == delivered
        and not sender.host.protocol._unacked.get(receiver.process_id)
    )


class TestLiveBatches:
    def test_a_burst_shares_acks_and_a_lone_segment_keeps_its_own(self, tmp_path):
        async def scenario():
            ports = free_ports(3)
            hosts = [_spawn(i, ports, str(tmp_path), "t-batch") for i in range(3)]
            try:
                for host in hosts:
                    await host.start()
                await asyncio.gather(*(host.ready() for host in hosts))
                sender, receiver = hosts[0], hosts[1]
                # 64 invokes in one tick: one transport flush, so the
                # receiver's reads return the segments many at a time.
                for index in range(64):
                    sender.invoke(Message(id="b%d" % index, sender=0, receiver=1))
                await _until(_settled(sender, receiver, 64))
                burst_acks = receiver.stats.control_messages
                # One message in flight: a batch of one, acked at once.
                flushes = receiver.transport.flushes
                for index in range(10):
                    sender.invoke(Message(id="s%d" % index, sender=0, receiver=1))
                    await _until(_settled(sender, receiver, 65 + index))
                lone_acks = receiver.stats.control_messages - burst_acks
                lone_flushes = receiver.transport.flushes - flushes
                errors = [error for host in hosts for error in host.errors]
                return burst_acks, lone_acks, lone_flushes, sender.stats, errors
            finally:
                for host in hosts:
                    await host.shutdown()

        burst_acks, lone_acks, lone_flushes, stats, errors = asyncio.run(scenario())
        assert errors == []
        assert 1 <= burst_acks < 64
        assert stats.retransmissions == 0
        assert lone_acks == 10  # each segment still gets its own ack ...
        assert lone_flushes <= 10  # ... in the one flush per message it had

    def test_exactly_once_under_drop_and_duplication(self):
        entry = catalogue_entry("fifo")
        report = run_cluster_sync(
            entry.reliable_factory(),
            3,
            protocol_name="reliable-fifo",
            rate=300.0,
            duration=0.6,
            seed=4,
            spec=entry.spec,
            faults=FaultPlan(drop_rate=0.2, dup_rate=0.1, seed=4),
            time_scale=FAST,
            quiesce_timeout=60.0,
            run_id="t-batch-lossy",
        )
        assert report.ok, report.render()  # spec admitted, no host error
        assert report.delivered == report.invoked == report.offered
        assert report.retransmissions > 0 and report.duplicate_receives > 0

    def test_crash_before_the_batch_end_loses_only_the_ack(self, tmp_path):
        """The owed-ack set is volatile.  A receiver that dies after
        dispatching a segment (WAL written, delivery done) but before
        the batch ended never sent the ack; restarted from its WAL it
        absorbs the sender's retransmission as a duplicate and acks it."""
        async def scenario():
            ports = free_ports(2)
            hosts = [_spawn(i, ports, str(tmp_path), "t-batch-crash") for i in range(2)]
            try:
                for host in hosts:
                    await host.start()
                await asyncio.gather(*(host.ready() for host in hosts))
                sender, receiver = hosts
                receiver.host.end_batch = lambda: None  # dies before this
                sender.invoke(Message(id="m1", sender=0, receiver=1))
                await _until(lambda: receiver.stats.deliveries == 1)
                owed = set(receiver.host.protocol._ack_owed)
                unacked = dict(sender.host.protocol._unacked[1])
                await receiver.crash()
                hosts[1] = receiver = _spawn(1, ports, str(tmp_path), "t-batch-crash")
                recovered_owed = set(receiver.host.protocol._ack_owed)
                await receiver.start()
                await asyncio.gather(*(host.ready() for host in hosts))
                await _until(_settled(sender, receiver, 1))
                return (
                    owed,
                    unacked,
                    receiver.recovered,
                    recovered_owed,
                    receiver.stats,
                    {mid for _, mid in delivery_order(receiver.trace)},
                    [error for host in hosts for error in host.errors],
                )
            finally:
                for host in hosts:
                    await host.shutdown()

        owed, unacked, recovered, recovered_owed, stats, delivered, errors = (
            asyncio.run(scenario())
        )
        assert owed == {0} and list(unacked) == [0]
        assert recovered and recovered_owed == set()
        assert stats.duplicate_receives >= 1  # the retransmission ...
        assert stats.control_messages >= 1  # ... was re-acked ...
        assert stats.deliveries == 1 and delivered == {"m1"}  # ... not re-delivered
        assert not [error for error in errors if "twice" in error]


# -- the host contract --------------------------------------------------------


class _CaptureTransport:
    def __init__(self):
        self.packets = []

    def transmit(self, network, packet):
        self.packets.append(packet)
        return None


def _rig(protocols):
    sim = Simulator()
    network = Network(sim, len(protocols), latency=FixedLatency(1.0))
    trace, stats = Trace(len(protocols)), SimulationStats()
    hosts = [
        ProtocolHost(sim, network, trace, stats, index, protocol)
        for index, protocol in enumerate(protocols)
    ]
    return sim, network, hosts, stats


class TestHostContract:
    def test_a_retransmitted_copy_inside_a_batch_is_acked_once(self):
        """Two segments and a repeat of each, handed over together: one
        ``rack``, carrying the frontier after all four."""
        factory = catalogue_entry("fifo").reliable_factory()
        sim, network, hosts, stats = _rig([factory(i, 2) for i in range(2)])
        for host in hosts:
            host.start()
        network.transport = capture = _CaptureTransport()
        for index in range(2):
            hosts[0].invoke(Message(id="m%d" % index, sender=0, receiver=1))
        segments = list(capture.packets)
        del capture.packets[:]
        for packet in segments + segments:
            hosts[1]._handle_packet(packet)
        assert capture.packets == [] and stats.duplicate_receives == 2
        hosts[1].end_batch()
        assert [(p.dst, p.payload) for p in capture.packets] == [(0, ("rack", 2))]
        hosts[1].end_batch()  # nothing owed: nothing sent
        assert len(capture.packets) == 1 and stats.deliveries == 2

    def test_a_protocol_without_the_hook_still_runs(self):
        """The hook is optional at the host: a test double that does not
        subclass ``Protocol`` need not grow it."""

        class Bare:
            name = "bare"

            def on_start(self, ctx):
                pass

            def on_invoke(self, ctx, message):
                ctx.release(message)

            def on_user_message(self, ctx, message, tag):
                ctx.deliver(message)

        assert not hasattr(Bare, "on_batch_end")
        sim, _, hosts, stats = _rig([Bare(), Bare()])
        for host in hosts:
            host.start()
        hosts[0].invoke(Message(id="m1", sender=0, receiver=1))
        sim.run()
        assert stats.deliveries == 1
