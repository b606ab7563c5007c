"""ARQ sublayer mechanics (``repro.protocols.reliable``)."""

import pytest

from repro.protocols import FifoProtocol, ReliableProtocol, TaglessProtocol, make_factory, make_reliable
from repro.simulation import FixedLatency, run_simulation
from repro.faults import FaultPlan
from repro.simulation.workloads import SendRequest, Workload


def chain(count=3, gap=10.0, sender=0, receiver=1):
    return Workload(
        name="arq-chain",
        n_processes=2,
        requests=tuple(
            SendRequest(time=i * gap, sender=sender, receiver=receiver)
            for i in range(count)
        ),
    )


def run(factory, workload=None, **kwargs):
    return run_simulation(
        factory, workload or chain(), latency=FixedLatency(1.0), **kwargs
    )


class TestConstruction:
    def test_parameter_validation(self):
        inner = TaglessProtocol()
        with pytest.raises(ValueError, match="rto"):
            ReliableProtocol(inner, rto=0.0)
        with pytest.raises(ValueError, match="backoff"):
            ReliableProtocol(inner, backoff=0.5)
        with pytest.raises(ValueError, match="max_rto"):
            ReliableProtocol(inner, rto=10.0, max_rto=5.0)
        with pytest.raises(ValueError, match="jitter"):
            ReliableProtocol(inner, jitter=1.0)
        with pytest.raises(ValueError, match="max_retries"):
            ReliableProtocol(inner, max_retries=-1)
        with pytest.raises(ValueError, match="retransmit_window"):
            ReliableProtocol(inner, retransmit_window=0)
        with pytest.raises(ValueError, match="send_window"):
            ReliableProtocol(inner, send_window=0)

    def test_name_and_class(self):
        wrapped = ReliableProtocol(FifoProtocol())
        assert wrapped.name == "reliable-fifo"
        assert wrapped.protocol_class == "general"
        assert wrapped.accepts_duplicates
        assert wrapped.timers_pure_recovery

    def test_factory_wraps_every_instance(self):
        factory = make_reliable(make_factory(FifoProtocol), rto=5.0)
        instance = factory(1, 3)
        assert isinstance(instance, ReliableProtocol)
        assert isinstance(instance.inner, FifoProtocol)
        assert instance.rto == 5.0


class TestSequencingAndAcks:
    def test_clean_run_no_retransmissions(self):
        result = run(make_reliable(make_factory(FifoProtocol)))
        assert result.delivered_all
        assert result.stats.retransmissions == 0
        assert result.stats.duplicate_receives == 0

    def test_data_and_control_share_one_sequence_space(self):
        # Causal-rst sends control traffic too; a unified space means the
        # receiver reassembles both in the sender's emission order.
        from repro.protocols import CausalRstProtocol

        result = run(make_reliable(make_factory(CausalRstProtocol)))
        assert result.delivered_all

    def test_lost_ack_triggers_dup_then_ack_refresh(self):
        # Drop the receiver's only ack (channel 1->0, transmission 0):
        # the sender retransmits, the receiver sees a duplicate and
        # refreshes the ack instead of re-delivering.
        plan = FaultPlan(script={(1, 0, 0): "drop"})
        result = run(
            make_reliable(make_factory(FifoProtocol)),
            workload=chain(1),
            faults=plan,
        )
        assert result.delivered_all
        assert result.stats.retransmissions >= 1
        assert result.stats.duplicate_receives >= 1
        assert result.stats.deliveries == 1  # never delivered twice

    def test_give_up_after_max_retries(self):
        plan = FaultPlan(channel_drop={(0, 1): 1.0})
        result = run(
            make_reliable(make_factory(FifoProtocol), max_retries=3),
            workload=chain(1),
            faults=plan,
        )
        assert not result.delivered_all
        # original + exactly max_retries timer expiries, then give up
        assert result.stats.retransmissions == 3
        protocol = result.protocols[0]
        reason = protocol.blocking_reason(result.undelivered[0])
        assert "gave up retransmitting" in reason


class TestWindows:
    def test_stop_and_wait_queues_behind_window(self):
        # Three back-to-back sends with send_window=1: later segments wait
        # in the queue until the ack makes room, yet all arrive in order.
        workload = Workload(
            name="burst",
            n_processes=2,
            requests=tuple(
                SendRequest(time=0.0, sender=0, receiver=1) for _ in range(3)
            ),
        )
        result = run(
            make_reliable(make_factory(FifoProtocol), send_window=1),
            workload=workload,
        )
        assert result.delivered_all
        assert result.stats.retransmissions == 0

    def test_blocking_reason_names_full_window(self):
        protocol = ReliableProtocol(FifoProtocol(), send_window=1)

        class Ctx:
            process_id, n_processes, now = 0, 2, 0.0

            def release(self, message, tag=None):
                pass

            def send_control(self, dst, payload):
                pass

            def schedule(self, delay, action):
                pass

            def emit(self, probe, **data):
                pass

        from repro.events import Message

        ctx = Ctx()
        protocol._send_data(ctx, Message("m1", 0, 1), None)
        protocol._send_data(ctx, Message("m2", 0, 1), None)
        assert "awaiting ack" in protocol.blocking_reason("m1")
        assert "send window" in protocol.blocking_reason("m2")

    def test_retransmit_window_limits_burst(self):
        # Both data segments dropped; with retransmit_window=1 each expiry
        # resends only the lowest outstanding seq, so recovery still
        # happens, one timeout per segment.
        plan = FaultPlan(script={(0, 1, 0): "drop", (0, 1, 1): "drop"})
        workload = Workload(
            name="two-burst",
            n_processes=2,
            requests=(
                SendRequest(time=0.0, sender=0, receiver=1),
                SendRequest(time=0.0, sender=0, receiver=1),
            ),
        )
        result = run(
            make_reliable(make_factory(FifoProtocol), retransmit_window=1),
            workload=workload,
            faults=plan,
        )
        assert result.delivered_all
