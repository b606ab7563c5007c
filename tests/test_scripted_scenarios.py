"""Exact scenario reconstruction: scripted latencies and causal chains.

The paper's figures are specific executions.  With ``ScriptedLatency``
each packet's transit time is dictated, so a figure becomes a
reproducible simulation; ``UserRun.causal_chain`` then explains the
orderings the figure illustrates.
"""

import pytest

from repro.events import Event
from repro.predicates.catalog import FIFO, FIFO_ORDERING
from repro.protocols import FifoProtocol, TaglessProtocol
from repro.protocols.base import make_factory
from repro.simulation import ScriptedLatency, Workload, run_simulation
from repro.simulation.workloads import SendRequest
from repro.verification import check_simulation
from repro.verification.engine import monitor_trace


def two_message_channel() -> Workload:
    """m1 then m2 on the channel 0 -> 1 (the Figure 2/4 setup)."""
    return Workload(
        name="figure-2",
        n_processes=2,
        requests=(
            SendRequest(time=1.0, sender=0, receiver=1),
            SendRequest(time=2.0, sender=0, receiver=1),
        ),
    )


class TestScriptedLatency:
    def test_negative_delays_rejected(self):
        with pytest.raises(ValueError):
            ScriptedLatency([1.0, -2.0])

    def test_delays_consumed_in_transmission_order(self):
        # m1 slow (10), m2 fast (1): m2 overtakes m1 exactly as scripted.
        result = run_simulation(
            make_factory(TaglessProtocol),
            two_message_channel(),
            latency=ScriptedLatency([10.0, 1.0]),
        )
        run = result.user_run
        assert run.before(Event.deliver("m2"), Event.deliver("m1"))
        assert not check_simulation(result, FIFO_ORDERING).safe

    def test_default_after_script_exhausts(self):
        result = run_simulation(
            make_factory(TaglessProtocol),
            two_message_channel(),
            latency=ScriptedLatency([10.0], default=1.0),
        )
        # m2 got the default 1.0 and still overtakes.
        assert result.user_run.before(
            Event.deliver("m2"), Event.deliver("m1")
        )


class TestFigure2Scenario:
    """Figure 2: the protocol enables r2 only after r1 has executed."""

    def test_fifo_protocol_holds_the_overtaking_message(self):
        result = run_simulation(
            make_factory(FifoProtocol),
            two_message_channel(),
            latency=ScriptedLatency([10.0, 1.0]),
        )
        run = result.user_run
        # The network delivered m2 first, but the protocol inhibited: the
        # user sees FIFO order, with m2's delivery delayed.
        assert run.before(Event.deliver("m1"), Event.deliver("m2"))
        assert result.stats.delayed_deliveries == 1
        assert check_simulation(result, FIFO_ORDERING).ok

    def test_first_violation_pinpoints_the_overtaking_delivery(self):
        result = run_simulation(
            make_factory(TaglessProtocol),
            two_message_channel(),
            latency=ScriptedLatency([10.0, 1.0]),
        )
        hit = monitor_trace(result.trace, FIFO)
        assert hit is not None
        # The violation completes when the *slow* m1 finally lands after m2.
        assert hit.event == Event.deliver("m1")
        assert hit.assignment == {"x": "m1", "y": "m2"}


class TestCausalChain:
    def test_chain_explains_cross_process_order(self, sync_run):
        chain = sync_run.causal_chain(Event.send("m1"), Event.deliver("m2"))
        assert chain is not None
        assert chain[0] == Event.send("m1")
        assert chain[-1] == Event.deliver("m2")
        # Each hop is a generating relation: message edge or process step.
        for a, b in zip(chain, chain[1:]):
            assert sync_run.before(a, b)

    def test_chain_is_shortest(self, sync_run):
        chain = sync_run.causal_chain(Event.send("m1"), Event.deliver("m1"))
        assert chain == [Event.send("m1"), Event.deliver("m1")]

    def test_unordered_events_have_no_chain(self, crossing_run):
        assert crossing_run.causal_chain(
            Event.send("m1"), Event.send("m2")
        ) is None

    def test_chain_through_relay(self, sync_run):
        chain = sync_run.causal_chain(Event.send("m1"), Event.send("m2"))
        assert chain == [
            Event.send("m1"),
            Event.deliver("m1"),
            Event.send("m2"),
        ]
