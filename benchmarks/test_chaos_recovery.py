"""Recovery benchmarks for the resilience layer.

Three tables, all produced by the same seeded chaos harness the
``repro chaos`` command runs:

``chaos_sweep``
    the acceptance sweep -- seeded plans (kill-restart and link-sever
    included) across a cross-section of the catalogue, every run
    asserting the three invariants: violation-free ordering, no acked
    message lost or double-delivered, re-convergence within deadline.

``chaos_reconnect``
    reconnect-and-resume time: one outage (a sever, a blackhole or a
    kill) spans the whole traffic window and heals just after traffic
    stops.  DRAIN waits for the heal, so the convergence stopwatch
    (DRAIN to quiescence with every link up) measures the supervised
    re-dial plus the ARQ catching the backlog up.  A killed host's
    restart from its WAL is part of the plan, so DRAIN waits for it too.

``chaos_backpressure``
    goodput with bounded per-peer queues + closed-loop watermark
    throttling versus effectively unbounded queues with an open-loop
    generator, under a mid-run blackhole.  The bounded column trades a
    little goodput for a bounded memory envelope (shed frames ride the
    ARQ's retransmit path, so the loss invariant holds either way).

Set ``CHAOS_RECOVERY_SMOKE=1`` to shrink the sweep for CI.
"""

from __future__ import annotations

import os
import tempfile

from conftest import format_table, write_result

from repro.chaos import run_chaos_sync
from repro.faults import FaultAction, FaultPlan
from repro.net.resilience import ReconnectPolicy, ResilienceConfig
from repro.net.transport import DEFAULT_TIME_SCALE

SMOKE = bool(os.environ.get("CHAOS_RECOVERY_SMOKE"))

#: Tagged (fifo), matrix-clock causal, vector-clock causal, tagless --
#: the ordering-strength cross-section the paper's catalogue spans.
SWEEP_PROTOCOLS = (
    ("fifo", "causal-rst") if SMOKE else ("fifo", "causal-rst", "causal-ses", "tagless")
)
#: Seed 0 schedules link severs, seed 1 kill-restarts plus a sever
#: (see FaultPlan.generate): together every run mixes both shapes.
SWEEP_SEEDS = (0, 1)
RATE = 80.0
DURATION = 1.5 if SMOKE else 2.0
DEADLINE = 20.0


def _run(protocol, seed, rate=RATE, **kwargs):
    with tempfile.TemporaryDirectory(prefix="chaos-bench-") as root:
        return run_chaos_sync(
            protocol,
            wal_root=root,
            seed=seed,
            rate=rate,
            duration=DURATION,
            convergence_deadline=DEADLINE,
            **kwargs,
        )


def test_chaos_sweep_table():
    rows = []
    for protocol in SWEEP_PROTOCOLS:
        for seed in SWEEP_SEEDS:
            report = _run(protocol, seed)
            kinds = sorted({action.kind for action in report.plan.actions})
            rows.append(
                [
                    protocol,
                    seed,
                    "+".join(kinds),
                    report.acked,
                    len(report.acked_lost),
                    len(report.double_delivered),
                    "none" if report.run.violation is None else "YES",
                    "%.2f" % report.converge_seconds,
                    "OK" if report.ok else "FAILED",
                ]
            )
            assert report.ok, report.render()
    table = format_table(
        [
            "protocol",
            "seed",
            "faults",
            "acked",
            "lost",
            "double",
            "violation",
            "converge s",
            "verdict",
        ],
        rows,
    )
    write_result("chaos_sweep", table)
    # The sweep must include both recovery shapes.
    fault_mixes = {row[2] for row in rows}
    assert any("kill" in mix for mix in fault_mixes)
    assert any("sever" in mix for mix in fault_mixes)


def _outage(kind, target, src=None):
    """One outage from 0.3 s spanning the whole traffic window, in the
    plan's virtual units."""
    return FaultPlan(
        actions=(
            FaultAction(
                at=0.3 / DEFAULT_TIME_SCALE,
                kind=kind,
                target=target,
                duration=DURATION / DEFAULT_TIME_SCALE,
                src=src,
            ),
        ),
    )


def _outage_plan(kind):
    # apply_action heals the outage (and restarts the dead host) 0.3 s
    # after the load finishes, and DRAIN waits for that, so
    # converge_seconds is the reconnect-and-resume time.
    return _outage(kind, 1, src=0 if kind in ("sever", "blackhole") else None)


def test_reconnect_and_resume_time_table():
    rows = []
    for kind in ("sever", "blackhole", "kill"):
        seconds = []
        redials = 0
        for attempt in range(1 if SMOKE else 3):
            report = _run("fifo", attempt, plan=_outage_plan(kind))
            assert report.ok, report.render()
            seconds.append(report.converge_seconds)
            redials += report.run.redials
        rows.append(
            [
                kind,
                len(seconds),
                "%.2f" % min(seconds),
                "%.2f" % (sum(seconds) / len(seconds)),
                "%.2f" % max(seconds),
                redials,
            ]
        )
    table = format_table(
        ["outage", "runs", "min s", "mean s", "max s", "re-dials"], rows
    )
    write_result("chaos_reconnect", table)


#: The backpressure comparison needs real pressure: a rate high enough
#: that a blackholed peer's queue outruns the bounded limits below.
PRESSURE_RATE = 600.0


def _bounded():
    return ResilienceConfig(
        heartbeat_interval=0.05,
        reconnect=ReconnectPolicy(base=0.05, cap=0.5, deadline=DEADLINE),
        high_watermark=32,
        low_watermark=8,
        queue_limit=64,
    )


def _unbounded():
    return ResilienceConfig(
        heartbeat_interval=0.05,
        reconnect=ReconnectPolicy(base=0.05, cap=0.5, deadline=DEADLINE),
        high_watermark=1_000_000,
        low_watermark=100_000,
        queue_limit=1_000_000,
    )


def test_goodput_under_watermark_table():
    # Two congestion shapes.  ``fifo`` with a blackholed *peer* piles
    # frames into the transport queue (the ``queue_limit`` shed path);
    # ``sync-coord`` with a blackholed *coordinator* piles
    # invoked-but-ungranted work into the protocol itself (the
    # ``pending_local`` watermark path, which signals BACKPRESSURE and
    # throttles a closed-loop generator).
    scenarios = (
        ("fifo", _outage_plan("blackhole")),
        ("sync-coord", _outage("blackhole", 0)),
    )
    rows = []
    for protocol, plan in scenarios:
        for label, config, closed_loop in (
            ("bounded+closed-loop", _bounded(), True),
            ("unbounded+open-loop", _unbounded(), False),
        ):
            report = _run(
                protocol,
                0,
                rate=PRESSURE_RATE,
                plan=plan,
                resilience=config,
                closed_loop=closed_loop,
            )
            assert report.ok, report.render()
            wall = DURATION + report.converge_seconds
            rows.append(
                [
                    protocol,
                    label,
                    report.run.offered,
                    report.run.delivered,
                    "%.0f" % (report.run.delivered / wall),
                    report.run.frames_shed,
                    report.run.backpressure_signals,
                    "%.2f" % report.converge_seconds,
                    "OK" if report.ok else "FAILED",
                ]
            )
    table = format_table(
        [
            "protocol",
            "queueing",
            "offered",
            "delivered",
            "goodput/s",
            "shed",
            "bp signals",
            "converge s",
            "verdict",
        ],
        rows,
    )
    write_result("chaos_backpressure", table)
    # The bounded configurations really did engage their safety valves.
    assert any(int(row[5]) > 0 for row in rows)  # frames shed (fifo)
    assert any(int(row[6]) > 0 for row in rows)  # watermark signals
