"""The per-protocol ``blocking_reason`` hooks, driven to blocked states.

The controllable world of :mod:`repro.mc` makes these deterministic:
each test executes a partial schedule that provably leaves a message
blocked, then asks the holding protocol instance why.
"""

from __future__ import annotations

from repro.mc import ControlledWorld, resolve_protocol
from repro.obs.watchdog import Watchdog
from repro.simulation.workloads import SendRequest, Workload


def pair(color2=None) -> Workload:
    return Workload(
        name="pair",
        n_processes=2,
        requests=(
            SendRequest(time=0.0, sender=0, receiver=1),
            SendRequest(time=1.0, sender=0, receiver=1, color=color2),
        ),
    )


def crossing() -> Workload:
    return Workload(
        name="crossing",
        n_processes=3,
        requests=(
            SendRequest(time=0.0, sender=1, receiver=2),
            SendRequest(time=1.0, sender=2, receiver=1),
        ),
    )


def overtaken_world(protocol: str, workload: Workload) -> ControlledWorld:
    """Invoke both sends, then deliver the *second* packet first."""
    world = ControlledWorld(resolve_protocol(protocol), workload)
    world.execute(("invoke", 0, 0))
    world.execute(("invoke", 0, 1))
    world.execute(("deliver", 0, 1, 1))
    return world


def reason_for(world: ControlledWorld, message_id: str) -> str:
    holders = [
        protocol.blocking_reason(message_id)
        for protocol in world.protocols()
    ]
    reasons = [reason for reason in holders if reason is not None]
    assert len(reasons) == 1, holders
    return reasons[0]


def test_causal_rst_names_the_missing_predecessor():
    world = overtaken_world("causal-rst", pair())
    reason = reason_for(world, "m2")
    assert "buffered awaiting" in reason
    assert "from P0" in reason
    # m1 is in flight, not held by any protocol instance.
    assert all(
        protocol.blocking_reason("m1") is None
        for protocol in world.protocols()
    )


def test_causal_ses_names_the_lagging_clock_entry():
    world = overtaken_world("causal-ses", pair())
    reason = reason_for(world, "m2")
    assert "clock dominates" in reason
    assert "P0" in reason


def test_flush_names_the_barrier():
    world = overtaken_world("flush", pair(color2="red"))
    reason = reason_for(world, "m2")
    assert "two_way" in reason
    assert "waiting for" in reason


def test_sync_coordinator_names_the_grant_pipeline():
    world = ControlledWorld(resolve_protocol("sync-coord"), crossing())
    world.execute(("invoke", 1, 0))
    world.execute(("invoke", 2, 1))
    reason = reason_for(world, "m1")
    assert "grant" in reason


def test_sync_rendezvous_names_the_phase():
    world = ControlledWorld(resolve_protocol("sync-rdv"), crossing())
    world.execute(("invoke", 1, 0))
    reason = reason_for(world, "m1")
    assert "awaiting ACK/NACK" in reason


def test_watchdog_integrates_protocol_reasons():
    world = overtaken_world("causal-rst", pair())
    stuck = {
        entry.message_id: entry
        for entry in Watchdog().stuck(world.trace, protocols=world.protocols())
    }
    assert stuck["m2"].phase == "buffered"
    assert "buffered awaiting" in stuck["m2"].reason
    # m1 never arrived, so the generic diagnosis stands.
    assert stuck["m1"].phase == "in-flight"


def test_delivered_messages_have_no_reason():
    world = overtaken_world("causal-rst", pair())
    world.execute(("deliver", 0, 1, 0))  # unblocks and drains everything
    assert world.is_drained()
    assert all(
        protocol.blocking_reason(message_id) is None
        for protocol in world.protocols()
        for message_id in ("m1", "m2")
    )
