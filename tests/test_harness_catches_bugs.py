"""Mutation testing of the pipeline: sabotaged protocols must be caught.

Each class below is a hand-written protocol with one deliberate bug; the
conformance harness (and the predicate checkers under it) must flag every
one.  If any of these passes, the *verifier* is broken.
"""

import pytest

from repro.events import Message
from repro.predicates.catalog import (
    CAUSAL_ORDERING,
    FIFO_ORDERING,
    LOGICALLY_SYNCHRONOUS,
)
from repro.protocols import CausalRstProtocol, FifoProtocol, SyncCoordinatorProtocol
from repro.protocols.base import Protocol, make_factory
from repro.simulation.host import HostContext, ProtocolError
from repro.verification import check_conformance


class FifoDroppingSequenceCheck(FifoProtocol):
    """FIFO that stops enforcing order after the third delivery."""

    name = "fifo-broken-order"

    def __init__(self):
        super().__init__()
        self._deliveries = 0

    def on_user_message(self, ctx, message, tag):
        self._deliveries += 1
        if self._deliveries > 3:
            ctx.deliver(message)  # bypass the reorder buffer
            self._held.pop((message.sender, int(tag)), None)
            return
        super().on_user_message(ctx, message, tag)

    def _drain(self, ctx, sender):
        # The buffer may hold messages the bypass already delivered;
        # guard against double delivery by re-checking.
        expected = self._next_in.get(sender, 0)
        while (sender, expected) in self._held:
            ctx.deliver(self._held.pop((sender, expected)))
            expected += 1
        self._next_in[sender] = expected


class CausalWithTruncatedMatrix(CausalRstProtocol):
    """RST whose tag forgets one row of the matrix (stale knowledge)."""

    name = "causal-broken-tag"

    def on_invoke(self, ctx, message):
        self._ensure_state(ctx)
        n = ctx.n_processes
        tag = self._sent[:]
        tag[-n:] = [0] * n  # drop knowledge about the last process
        self._sent[ctx.process_id * n + message.receiver] += 1
        ctx.release(message, tag=tag)


class ImpatientCoordinator(SyncCoordinatorProtocol):
    """A coordinator that grants the next transfer before the previous
    one completed (ignores DONE)."""

    name = "sync-broken-serialization"

    def _pump(self, ctx):
        while self._grant_queue:
            grantee = self._grant_queue.popleft()
            if grantee == 0:
                self._release_head(ctx)
            else:
                ctx.send_control(grantee, ("grant",))


class StallingProtocol(Protocol):
    """Delivers nothing at all: safety vacuously, liveness never."""

    name = "stalling"

    def on_invoke(self, ctx: HostContext, message: Message) -> None:
        ctx.release(message)

    def on_user_message(self, ctx, message, tag):
        pass  # hold every message forever


class TestSabotagedProtocolsAreCaught:
    def test_broken_fifo_flagged(self):
        report = check_conformance(
            make_factory(FifoDroppingSequenceCheck), FIFO_ORDERING, seeds=range(3)
        )
        assert not report.conforms
        assert report.safe_runs < report.runs

    def test_broken_causal_tag_flagged(self):
        report = check_conformance(
            make_factory(CausalWithTruncatedMatrix), CAUSAL_ORDERING, seeds=range(4)
        )
        assert not report.conforms

    def test_broken_coordinator_flagged(self):
        report = check_conformance(
            make_factory(ImpatientCoordinator),
            LOGICALLY_SYNCHRONOUS,
            seeds=range(4),
        )
        assert not report.conforms

    def test_stalling_protocol_fails_liveness(self):
        report = check_conformance(
            make_factory(StallingProtocol), CAUSAL_ORDERING, seeds=range(2)
        )
        assert not report.conforms
        assert report.live_runs == 0
        # Stalling is trivially safe -- the failure is liveness.
        assert report.safe_runs == report.runs


class TestHostCatchesProtocolErrors:
    def test_double_delivery_protocol_raises(self):
        class DoubleDeliver(Protocol):
            name = "double"

            def on_invoke(self, ctx, message):
                ctx.release(message)

            def on_user_message(self, ctx, message, tag):
                ctx.deliver(message)
                ctx.deliver(message)

        from repro.simulation import FixedLatency, random_traffic, run_simulation

        with pytest.raises(ProtocolError, match="delivered twice"):
            run_simulation(
                make_factory(DoubleDeliver),
                random_traffic(2, 3, seed=0),
                seed=0,
                latency=FixedLatency(1.0),
            )

    def test_phantom_release_raises(self):
        class PhantomSend(Protocol):
            name = "phantom"

            def on_invoke(self, ctx, message):
                ctx.release(message)
                ghost = Message(
                    id="ghost", sender=ctx.process_id, receiver=message.receiver
                )
                ctx.release(ghost)

            def on_user_message(self, ctx, message, tag):
                ctx.deliver(message)

        from repro.simulation import FixedLatency, random_traffic, run_simulation

        with pytest.raises(ProtocolError, match="before it was invoked"):
            run_simulation(
                make_factory(PhantomSend),
                random_traffic(2, 2, seed=0),
                seed=0,
                latency=FixedLatency(1.0),
            )
