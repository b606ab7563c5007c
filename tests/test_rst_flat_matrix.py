"""RST's matrix as one flat row-major list behaves as the nested matrix did.

``CausalRstProtocol`` keeps ``SENT`` and its tag as ``n * n`` ints with
entry ``(j, k)`` at ``j * n + k``.  The nested-matrix protocol it
replaced is kept verbatim in ``tests/rst_reference.py``; every run here
must give the same timed trace rows and delivery order under both, and
a tag of any shape but ``n * n`` ints is one clear error.
"""

from types import SimpleNamespace

import pytest

from repro.events import Message
from repro.faults import FaultPlan
from repro.mc.mutations import BrokenCausalRstProtocol
from repro.net import NetHost, free_ports
from repro.predicates.catalog import CAUSAL_ORDERING
from repro.protocols import CausalRstProtocol
from repro.protocols.base import make_factory
from repro.protocols.reliable import make_reliable
from repro.simulation import UniformLatency, random_traffic, run_simulation
from repro.simulation.host import ProtocolError
from repro.simulation.workloads import SendRequest, Workload
from repro.verification import check_simulation
from repro.wal import WalSink, delivery_order, replay_log
from tests.rst_reference import NestedCausalRstProtocol

ADVERSARIAL = UniformLatency(low=1.0, high=60.0)
LATENCIES = {"uniform": UniformLatency(), "adversarial": ADVERSARIAL}


class NestedBrokenCausalRst(NestedCausalRstProtocol):
    """``broken-causal-rst``'s bypass over the nested reference."""

    def __init__(self, unchecked_sender=0):
        super().__init__()
        self.unchecked_sender = unchecked_sender

    def on_user_message(self, ctx, message, tag):
        if message.sender == self.unchecked_sender:
            ctx.deliver(message)
            return
        super().on_user_message(ctx, message, tag)


def _rows(result):
    return [
        (r.time, r.process, r.event.kind.name, r.event.message_id)
        for r in result.trace.records()
    ]


def _both(flat, nested, workload, seed, **kwargs):
    """The flat and the nested protocol's runs of one seeded scenario."""
    return [
        run_simulation(factory, workload, seed=seed, **kwargs)
        for factory in (flat, nested)
    ]


class TestSameBehaviourAsTheNestedMatrix:
    @pytest.mark.parametrize("latency", sorted(LATENCIES))
    @pytest.mark.parametrize("n", [3, 8])
    @pytest.mark.parametrize("seed", range(4))
    def test_plain_runs_are_identical(self, seed, n, latency):
        flat, nested = _both(
            make_factory(CausalRstProtocol),
            make_factory(NestedCausalRstProtocol),
            random_traffic(n, 60, seed=seed),
            seed,
            latency=LATENCIES[latency],
        )
        assert _rows(flat) == _rows(nested)
        assert delivery_order(flat.trace) == delivery_order(nested.trace)
        assert flat.stats.delayed_deliveries == nested.stats.delayed_deliveries

    @pytest.mark.parametrize("latency", sorted(LATENCIES))
    @pytest.mark.parametrize("seed", range(4))
    def test_reliable_runs_under_drop_and_dup_are_identical(self, seed, latency):
        flat, nested = _both(
            make_reliable(make_factory(CausalRstProtocol)),
            make_reliable(make_factory(NestedCausalRstProtocol)),
            random_traffic(4, 40, seed=seed),
            seed,
            latency=LATENCIES[latency],
            faults=FaultPlan(drop_rate=0.2, dup_rate=0.1, seed=seed),
        )
        assert flat.fault_summary.packets_dropped > 0
        assert _rows(flat) == _rows(nested)
        assert delivery_order(flat.trace) == delivery_order(nested.trace)

    def test_tag_is_the_nested_matrix_row_major(self):
        tags = {}
        for factory in (CausalRstProtocol, NestedCausalRstProtocol):
            protocol = factory()
            released = []
            ctx = SimpleNamespace(
                n_processes=3,
                process_id=1,
                release=lambda message, tag: released.append(tag),
            )
            for index, receiver in enumerate((0, 2, 2, 1)):
                message = Message(id="m%d" % index, sender=1, receiver=receiver)
                protocol.on_invoke(ctx, message)
            tags[factory] = released
        assert tags[CausalRstProtocol] == [
            [entry for row in tag for entry in row]
            for tag in tags[NestedCausalRstProtocol]
        ]
        assert tags[CausalRstProtocol][-1] == [0, 0, 0, 1, 0, 2, 0, 0, 0]

    def test_broken_causal_rst_is_flagged_on_the_same_seeds(self):
        flagged = {}
        for factory in (BrokenCausalRstProtocol, NestedBrokenCausalRst):
            flagged[factory] = []
            for seed in range(6):
                result = run_simulation(
                    make_factory(factory),
                    random_traffic(3, 40, seed=seed),
                    seed=seed,
                    latency=ADVERSARIAL,
                )
                if not check_simulation(result, CAUSAL_ORDERING).safe:
                    flagged[factory].append(seed)
        assert flagged[BrokenCausalRstProtocol]
        assert flagged[BrokenCausalRstProtocol] == flagged[NestedBrokenCausalRst]


def _receiving(n, tag):
    """Hand ``tag`` to a fresh P1 of an ``n``-process RST."""
    protocol = CausalRstProtocol()
    ctx = SimpleNamespace(n_processes=n, process_id=1, deliver=lambda message: None)
    protocol.on_user_message(ctx, Message(id="m", sender=0, receiver=1), tag)
    return protocol


class TestTagValidation:
    @pytest.mark.parametrize(
        "tag",
        [
            pytest.param([0] * 8, id="n2-minus-one-ints"),
            pytest.param([[0] * 3 for _ in range(3)], id="nested-matrix"),
            pytest.param([0] * 8 + [0.0], id="float-entry"),
            pytest.param([0] * 8 + [True], id="bool-entry"),
            pytest.param(tuple([0] * 9), id="tuple"),
        ],
    )
    def test_a_tag_not_n2_ints_is_one_protocol_error(self, tag):
        with pytest.raises(ProtocolError, match=r"n\*n = 9 ints"):
            _receiving(3, tag)

    def test_a_flat_n2_tag_is_taken(self):
        protocol = _receiving(3, [0] * 9)
        assert protocol._delivered == [1, 0, 0]
        assert protocol._sent == [0, 1, 0, 0, 0, 0, 0, 0, 0]


ONE_ARRIVAL_AT_P1 = Workload(
    "one-arrival-at-p1",
    3,
    (
        SendRequest(time=1.0, sender=0, receiver=1),
        SendRequest(time=2.0, sender=1, receiver=2),
    ),
)


def _log(directory, protocol, workload, seed=0, **kwargs):
    """Record ``protocol``'s causal-rst run of ``workload`` into ``directory``."""
    sink = WalSink(
        directory,
        meta={
            "protocol": "causal-rst",
            "processes": workload.n_processes,
            "spec": "causal-ordering",
        },
        fsync=False,
    )
    try:
        run_simulation(make_factory(protocol), workload, seed=seed, wal=sink, **kwargs)
    finally:
        sink.close()


class TestNestedTagLogs:
    """Logs written by a build that tagged with the nested matrix."""

    def test_a_net_host_recovering_nested_tags_reports_one_error(self, tmp_path):
        _log(str(tmp_path / "p1"), NestedCausalRstProtocol, ONE_ARRIVAL_AT_P1)
        host = NetHost(
            make_factory(CausalRstProtocol),
            1,
            free_ports(3),
            wal_dir=str(tmp_path),
            observability=False,
        )
        try:
            assert host.recovered
            recovery = [
                line for line in host.errors if line.startswith("wal recovery:")
            ]
            assert len(recovery) == 1, host.errors
            assert "ProtocolError" in recovery[0]
            assert "n*n = 9 ints" in recovery[0]
        finally:
            host.wal.close()

    @pytest.mark.parametrize("protocol", [CausalRstProtocol, BrokenCausalRstProtocol])
    def test_replay_verdicts_do_not_read_tags(self, tmp_path, protocol):
        """A nested-tag log replays to the verdict and delivery order of
        the flat-tag log of the same run (replay never reads tags)."""
        nested = {
            CausalRstProtocol: NestedCausalRstProtocol,
            BrokenCausalRstProtocol: NestedBrokenCausalRst,
        }[protocol]
        workload = random_traffic(4, 40, seed=1)
        results = []
        for name, factory in (("flat", protocol), ("nested", nested)):
            _log(str(tmp_path / name), factory, workload, seed=1, latency=ADVERSARIAL)
            results.append(replay_log(str(tmp_path / name)))
        flat, old = results
        assert old.unmonitored is flat.unmonitored is None
        assert repr(old.violation) == repr(flat.violation)
        assert delivery_order(old.trace) == delivery_order(flat.trace)
        assert (flat.violation is None) == (protocol is CausalRstProtocol)
