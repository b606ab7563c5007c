"""The sharded ordering-key runtime: routing, lanes, fleet runs.

Three layers of evidence that ``repro.net.shard`` implements the
paper's tagged/general split operationally:

1. **routing** -- a key's shard is a seed-stable pure function of the
   key string (CRC-32), so a lane lives on one worker forever;
2. **lanes** -- the O(1) per-key checkers (fifo seq contiguity, causal
   vector-clock acceptance) are verdict-equivalent to the exact
   :class:`SpecMonitor` over the spec scoped per key (a same-key
   :class:`~repro.predicates.guards.KeyGuard`);
3. **fleet** -- real multi-process runs quiesce clean for correct lane
   kinds, flag a deliberately broken sender live, keep stalled keys
   from blocking other keys, and hand the merged run to the cross-key
   oracle, which sees exactly the violations per-key lanes cannot.
"""

import asyncio
import os
import re
import subprocess
import sys
import zlib

import pytest

from repro.cli import main
from repro.events import Event, Message
from repro.events.message import channel_key
from repro.net.client import ControlLink
from repro.net.cluster import NetRunReport
from repro.net.collector import HostPull, render_top
from repro.net.shard import (
    CausalLaneChecker,
    FifoLaneChecker,
    KeyStats,
    ShardCoordinator,
    ShardRouter,
    cross_key_oracle,
    lane_checker,
    run_sharded_sync,
    shard_for_key,
)
from repro.net.shard.coordinator import collect
from repro.net.shard.worker import ShardWorker, ShardWorkerConfig
from repro.predicates.catalog import CAUSAL_B2, FIFO
from repro.simulation.trace import Trace
from repro.verification.engine import monitor_trace
from tests.conftest import free_port_base, scoped_to_key

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def merged_trace(rows, n_processes):
    """The collected rows ``(id, src, dst, key, sent, delivered)`` of a
    point-to-point fleet run as one trace.

    A flush stamps all its rows with one ``sent`` time, so tied sends go
    in invoke order (the load generator numbers ids ``m<N>`` as it
    offers them) and tied deliveries in the order each shard delivered them (the
    order ``collect`` returns).  A lane that reorders rows within a flush
    therefore shows in the trace instead of being absorbed by it."""
    trace = Trace(n_processes)
    events = []
    for position, (message_id, src, dst, key, sent, delivered) in enumerate(rows):
        trace.register_message(Message(message_id, src, dst, ordering_key=key))
        invoked = int(message_id[1:])
        events.append((sent, 0, invoked, src, Event.invoke(message_id)))
        events.append((sent, 0, invoked, src, Event.send(message_id)))
        events.append((delivered, 1, position, dst, Event.receive(message_id)))
        events.append((delivered, 1, position, dst, Event.deliver(message_id)))
    for when, _, _, process, event in sorted(events, key=lambda item: item[:3]):
        trace.record(when, process, event)
    return trace


class TestRouting:
    def test_shard_is_crc32_of_key(self):
        for key in ("k0", "p0-p1", "orders", "🔑"):
            expected = zlib.crc32(key.encode("utf-8")) % 8
            assert shard_for_key(key, 8) == expected

    def test_same_key_same_shard_always(self):
        router = ShardRouter(4)
        first = [router.shard_of("k%d" % k) for k in range(64)]
        again = [router.shard_of("k%d" % k) for k in range(64)]
        fresh = [ShardRouter(4).shard_of("k%d" % k) for k in range(64)]
        assert first == again == fresh

    def test_default_key_is_the_channel(self):
        assert channel_key(0, 2) == "p0-p2"
        message = Message("m1", 0, 2)
        assert channel_key(0, 2) == message.effective_key
        keyed = Message("m2", 0, 2, ordering_key="orders")
        assert keyed.effective_key == "orders"

    def test_keys_spread_over_shards(self):
        router = ShardRouter(8)
        shards = [router.shard_of("k%d" % k) for k in range(256)]
        assert set(shards) == set(range(8))  # every shard gets some keys

    def test_shard_count_validated(self):
        with pytest.raises(ValueError):
            shard_for_key("k", 0)
        with pytest.raises(ValueError):
            ShardRouter(0)


class TestFifoLane:
    def test_in_order_stream_is_clean(self):
        checker = FifoLaneChecker()
        for seq in range(5):
            assert checker.on_deliver("m%d" % seq, 0, "k", seq) is None

    def test_gap_and_inversion_flagged(self):
        checker = FifoLaneChecker()
        assert checker.on_deliver("m0", 0, "k", 0) is None
        violation = checker.on_deliver("m2", 0, "k", 2)  # gap: skipped 1
        assert violation is not None and violation.key == "k"
        late = checker.on_deliver("m1", 0, "k", 1)  # the skipped one
        assert late is not None and "expected 3" in late.detail

    def test_streams_are_per_sender_and_per_key(self):
        checker = FifoLaneChecker()
        assert checker.on_deliver("a0", 0, "ka", 0) is None
        assert checker.on_deliver("b0", 1, "ka", 0) is None  # other sender
        assert checker.on_deliver("a1", 0, "kb", 0) is None  # other key
        assert checker.on_deliver("a2", 0, "ka", 1) is None

    def test_broken_fifo_kind_still_checks_fifo(self):
        assert isinstance(lane_checker("broken-fifo", 4), FifoLaneChecker)


class TestCausalLane:
    def test_causal_order_respected_is_clean(self):
        checker = CausalLaneChecker(3, receiver=2)
        # p0 broadcasts m1 (vc [1,0,0]); p1 delivers it, then sends m2
        # with vc [1,1,0]; receiver 2 sees them in causal order.
        assert checker.on_deliver("m1", 0, "k", 0, vc=[1, 0, 0]) is None
        assert checker.on_deliver("m2", 1, "k", 0, vc=[1, 1, 0]) is None

    def test_missing_dependency_flagged(self):
        checker = CausalLaneChecker(3, receiver=2)
        violation = checker.on_deliver("m2", 1, "k", 0, vc=[1, 1, 0])
        assert violation is not None and violation.kind == "causal"
        assert "not deliverable" in violation.detail

    def test_holdback_test_does_not_mutate(self):
        checker = CausalLaneChecker(3, receiver=2)
        assert not checker.deliverable(1, "k", [1, 1, 0])
        assert checker.deliverable(0, "k", [1, 0, 0])
        # The probe above must not have advanced the seen clock.
        assert checker.on_deliver("m1", 0, "k", 0, vc=[1, 0, 0]) is None

    def test_receiver_component_exempt(self):
        # BSS formulation: p2 never delivers its own sends, so a clock
        # that references p2's own messages must still be deliverable.
        checker = CausalLaneChecker(3, receiver=2)
        assert checker.on_deliver("m1", 0, "k", 0, vc=[1, 0, 4]) is None

    def test_row_without_clock_flagged(self):
        checker = CausalLaneChecker(3)
        violation = checker.on_deliver("m1", 0, "k", 0, vc=None)
        assert violation is not None and "vector clock" in violation.detail

    def test_unknown_lane_kind_rejected(self):
        with pytest.raises(ValueError):
            lane_checker("total", 3)


class TestVerdictEquivalence:
    """The O(1) fifo checker agrees with the exact monitor scoped per key:
    ``SpecMonitor`` over FIFO with a same-key ``KeyGuard``."""

    @staticmethod
    def _exact(sends, deliveries):
        """The scoped monitor's verdict on p0->p1 messages given as
        ``(message_id, key)`` pairs in send order and in delivery order."""
        trace = Trace(2)
        for first, second, at, pairs in (
            (Event.invoke, Event.send, 0, sends),
            (Event.receive, Event.deliver, 1, deliveries),
        ):
            for message_id, key in pairs:
                trace.register_message(Message(message_id, 0, 1, ordering_key=key))
                trace.record(float(len(trace)), at, first(message_id))
                trace.record(float(len(trace)), at, second(message_id))
        return monitor_trace(trace, scoped_to_key(FIFO, "fifo-per-key"))

    def _both(self, deliveries):
        """Run the same keyed stream through both checkers.

        ``deliveries`` is a list of (message_id, seq) pairs, all p0->p1
        on key "k"; sends happen in seq order, deliveries in list order.
        """
        fast = FifoLaneChecker()
        fast_verdict = None
        for message_id, seq in deliveries:
            found = fast.on_deliver(message_id, 0, "k", seq)
            if found is not None and fast_verdict is None:
                fast_verdict = found
        in_seq = sorted(deliveries, key=lambda pair: pair[1])
        exact = self._exact(
            [(message_id, "k") for message_id, _ in in_seq],
            [(message_id, "k") for message_id, _ in deliveries],
        )
        return fast_verdict, exact

    def test_clean_stream_clean_on_both(self):
        fast, exact = self._both([("m0", 0), ("m1", 1), ("m2", 2)])
        assert fast is None and exact is None

    def test_inversion_flagged_by_both(self):
        fast, exact = self._both([("m1", 1), ("m0", 0), ("m2", 2)])
        assert fast is not None
        assert exact is not None

    def test_inversion_binds_only_its_own_key(self):
        # k1 inverted, k2 clean -- the instance is made of k1 messages.
        sends = [("a", "k1"), ("b", "k1"), ("c", "k2"), ("d", "k2")]
        delivered = [("c", "k2"), ("b", "k1"), ("d", "k2"), ("a", "k1")]
        violation = self._exact(sends, delivered)
        assert violation is not None
        assert violation.event == Event.deliver("a")
        assert violation.assignment == {"x": "a", "y": "b"}

    def test_cross_key_inversion_admitted(self):
        # Same channel, different keys: no lane orders a against b.
        sends = [("a", "k1"), ("b", "k2")]
        delivered = [("b", "k2"), ("a", "k1")]
        assert self._exact(sends, delivered) is None
        assert self._exact([("a", "k"), ("b", "k")], [("b", "k"), ("a", "k")])


class TestKeyStats:
    def test_counts_exact_latency_sampled(self):
        stats = KeyStats(sample=2)
        for tick in range(8):
            stats.on_deliver("k", 0.010)
        wire = stats.to_wire()
        assert wire["k"]["delivered"] == 8
        assert wire["k"]["p50_ms"] == pytest.approx(10.0, rel=0.2)

    def test_top_keys_only(self):
        stats = KeyStats(sample=1)
        for key in range(8):
            for _ in range(key + 1):
                stats.on_deliver("k%d" % key, 0.001)
        wire = stats.to_wire(top=2)
        assert set(wire) == {"k7", "k6"}


class TestCrossKeyOracle:
    def test_clean_rows_are_causally_ordered(self):
        rows = [
            ("m%d" % n, 0, 1, "k%d" % (n % 2), float(n), 10.0 + n)
            for n in range(20)
        ]
        verdict = cross_key_oracle(rows, 2, sample=20)
        assert verdict["sampled"] == 20 and verdict["keys"] == 2
        assert verdict["memberships"]["async"] is True
        assert verdict["memberships"]["co"] is True

    def test_cross_key_inversion_visible_only_merged(self):
        # m1 (key a) sent before m2 (key b), same channel, delivered
        # inverted: each key alone is trivially fifo, but the merged
        # run violates causal delivery -- the paper's escalation from
        # per-key order 1 to cross-key GENERAL, and the reason the
        # oracle exists at all.
        rows = [
            ("m1", 0, 1, "a", 1.0, 4.0),
            ("m2", 0, 1, "b", 2.0, 3.0),
        ]
        for key in ("a", "b"):
            checker = FifoLaneChecker()
            assert checker.on_deliver("m", 0, key, 0) is None
        verdict = cross_key_oracle(rows, 2, sample=10)
        assert verdict["memberships"]["co"] is False

    def test_sampling_keeps_most_recent(self):
        rows = [
            ("m%d" % n, 0, 1, "k", float(n), 100.0 + n) for n in range(50)
        ]
        verdict = cross_key_oracle(rows, 2, sample=10)
        assert verdict["total"] == 50 and verdict["sampled"] == 10


class TestShardedFleet:
    """Real multi-process runs over loopback ingress sockets."""

    def test_fifo_fleet_quiesces_clean(self):
        """Causal order is promised per key, not across keys: a key's
        rows are sent and delivered by one shard, flush after flush,
        while two shards flushing the same tick may invert a same-channel
        pair of different keys.  So the merged run is judged with causal
        ordering scoped to a key, not with the oracle's global ``co``."""
        base = free_port_base(2)

        async def scenario():
            fleet = ShardCoordinator(2, 3, port_base=base)
            await fleet.start()
            try:
                report = await fleet.run(800.0, 0.5, keys=6)
                return report, await collect(fleet.client, per_shard_limit=10_000)
            finally:
                await fleet.stop()

        report, rows = asyncio.run(scenario())
        assert isinstance(report, NetRunReport)
        assert report.ok, report.render()
        assert report.delivered == report.offered == report.invoked
        assert report.pending == 0
        assert report.oracle is not None
        assert report.oracle["memberships"]["async"] is True
        assert {body["shard"] for body in report.host_stats} == {0, 1}
        assert all(body["per_key"] for body in report.host_stats)

        assert len(rows) == report.delivered
        assert len({row[3] for row in rows}) == 6
        per_key = scoped_to_key(CAUSAL_B2, "causal-per-key")
        assert monitor_trace(merged_trace(rows, 3), per_key) is None

    def test_kept_fleet_serves_consecutive_runs(self):
        """`repro load --keep-serving` against a fleet, then another load: the
        workers' DRAIN used to be terminal, so the second run lost every
        row (`offered 1000 invoked 0`)."""
        base = free_port_base(2)

        async def scenario():
            fleet = ShardCoordinator(2, 3, port_base=base)
            await fleet.start()
            try:
                first = await fleet.run(800.0, 0.25, keys=6)
                await fleet.client.close()  # --keep-serving: no BYE
                again = ShardCoordinator(2, 3, port_base=base)
                await again.client.connect()
                fleet.client = again.client  # stop() says BYE over these
                return first, await again.run(800.0, 0.25, keys=6)
            finally:
                await fleet.stop()

        for report in asyncio.run(scenario()):
            assert report.ok, report.render()
            assert report.offered == report.invoked == report.delivered > 0
            # The oracle judged this run's rows, not the fleet's history.
            assert report.oracle["total"] == report.delivered

    def test_repro_load_learns_the_fleet_from_ready(self, capsys):
        """One `repro load` command line drives hosts or a fleet: it
        dials --port-base and the first READY names the fleet's shards."""
        base = free_port_base(2)
        serve = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "fifo", "--shards", "2"]
            + ["--processes", "4", "--port-base", str(base), "--run-id", "learn"],
            env=dict(os.environ, PYTHONPATH=SRC),
            stdout=subprocess.DEVNULL,
        )
        try:
            code = main(
                ["load", "--port-base", str(base), "--run-id", "learn"]
                + ["--keys", "8", "--rate", "1000", "--duration", "0.4"]
                + ["--quiesce-timeout", "20"]
            )
            served = serve.wait(timeout=20.0)  # the load's BYE ends the fleet
        finally:
            if serve.poll() is None:
                serve.kill()
                serve.wait()
        out = capsys.readouterr().out
        assert code == 0 and served == 0, out
        assert "over 4 processes, 2 shards, 8 keys" in out
        line = next(line for line in out.splitlines() if "offered" in line)
        offered, invoked, delivered, pending = map(int, re.findall(r"\d+", line))
        assert offered == invoked == delivered == 400 and pending == 0

    def test_worker_errors_are_reported_by_the_run_they_happened_in(self):
        """Worker error lines are append-only for the life of the fleet;
        one foreign HELLO used to fail every later run's ``report.ok``."""
        base = free_port_base(1)
        worker = ShardWorker(
            ShardWorkerConfig(shard=0, n_shards=1, n_processes=3, port=base)
        )
        fleet = ShardCoordinator(1, 3, port_base=base)
        load = fleet.client.run

        async def load_with_a_stranger(*args, **kwargs):
            stranger = ControlLink("127.0.0.1", base, "load", "someone-elses")
            await stranger.connect(timeout=5.0)
            with pytest.raises(ConnectionError):
                await stranger.ready(timeout=5.0)
            await stranger.close()
            return await load(*args, **kwargs)

        async def scenario():
            serving = asyncio.get_running_loop().create_task(worker.serve_forever())
            await fleet.client.connect()
            fleet.client.run = load_with_a_stranger
            first = await fleet.run(400.0, 0.1, oracle=False)
            await fleet.client.close()  # --keep-serving: no BYE
            again = ShardCoordinator(1, 3, port_base=base)
            await again.client.connect()
            second = await again.run(400.0, 0.1, oracle=False)
            await again.stop()
            await asyncio.wait_for(serving, 5.0)
            return first, second

        first, second = asyncio.run(scenario())
        assert first.errors == [
            "rejected connection for run 'someone-elses' (serving 'default')"
        ]
        assert not first.ok
        assert second.ok, second.render()
        assert second.delivered == second.offered > 0

    def test_causal_fleet_fans_out_and_quiesces(self):
        report = run_sharded_sync(
            2,
            rate=300.0,
            duration=0.5,
            n_processes=3,
            keys=4,
            lane_kind="causal",
            port_base=free_port_base(2),
        )
        assert report.ok, report.render()
        # Causal lanes broadcast: each row delivers at n_processes - 1
        # receivers.
        assert report.delivered == report.offered * 2

    def test_broken_sender_is_flagged_live(self):
        report = run_sharded_sync(
            2,
            rate=800.0,
            duration=0.5,
            n_processes=3,
            keys=4,
            lane_kind="broken-fifo",
            port_base=free_port_base(2),
            oracle=False,
        )
        assert not report.ok
        assert report.violation is not None and "seq" in report.violation

    def test_stalled_key_does_not_block_others(self):
        report = run_sharded_sync(
            2,
            rate=600.0,
            duration=0.5,
            n_processes=3,
            keys=4,
            stall_key="k0",
            stall_seconds=0.3,
            port_base=free_port_base(2),
            oracle=False,
        )
        assert report.ok, report.render()
        per_key = {
            key: row
            for body in report.host_stats
            for key, row in body["per_key"].items()
        }
        stalled = per_key["k0"]["p99_ms"]
        others = [row["p99_ms"] for key, row in per_key.items() if key != "k0"]
        assert stalled >= 250.0
        assert others and max(others) < 100.0


class TestShardedTopView:
    """`repro top` over a fleet prints what each worker's STATS has, one
    row per shard, as it does one row per host."""

    def test_one_row_per_shard_then_sum_and_violation(self):
        def pull(shard, invoked, delivered, violation=None):
            return HostPull(
                process=shard,
                stats_body={
                    "shard": shard,
                    "invoked": invoked,
                    "deliveries": delivered,
                    "pending": invoked - delivered,
                    "violation": violation,
                },
            )

        lines = render_top(
            [pull(0, 10, 10), pull(1, 7, 5, violation="lane k0 (fifo): ...")]
        ).splitlines()
        assert len(lines) == 5
        assert lines[1].split()[:3] == ["0", "10", "10"]
        assert lines[2].split()[:3] == ["1", "7", "5"]
        assert lines[2].split()[8] == "2"  # the pending column
        assert lines[3].split()[:3] == ["sum", "17", "15"]
        assert lines[4] == "VIOLATION: lane k0 (fifo): ..."
