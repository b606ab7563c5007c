"""Seeded chaos testing for the real-network runtime.

The resilience layer (:mod:`repro.net.resilience`,
:mod:`repro.faults.proxy`) claims three things: a severed or blackholed
link heals automatically, an acked message is never lost or
double-delivered across crashes, and the live ordering specification
stays violation-free through all of it.  This package *checks* those
claims instead of trusting them:

:meth:`FaultPlan.generate <repro.faults.plan.FaultPlan.generate>`
    a seeded, reproducible schedule of faults -- process kills (with
    restart from the WAL), pauses (SIGSTOP-shaped silence), severed
    links and blackholed links -- generated from a single integer seed
    so a failing run is a bug report, not an anecdote.  The same plan
    runs in the simulator (:func:`~repro.simulation.run_simulation`),
    so a failing live seed can be replayed there;

:func:`~repro.chaos.harness.run_chaos`
    executes the plan against a live loopback cluster (every host
    fronted by a :class:`~repro.faults.proxy.FaultProxy`), then asserts
    the three invariants and reduces the evidence to a JSON-ready
    :class:`~repro.chaos.harness.ChaosReport`.

``repro chaos`` is the command-line entry point.
"""

from repro.chaos.harness import (
    ChaosReport,
    run_chaos,
    run_chaos_sync,
    wal_cross_check,
)

__all__ = [
    "ChaosReport",
    "run_chaos",
    "run_chaos_sync",
    "wal_cross_check",
]
