"""Fault injection: loss, duplication, delay spikes, and timed kills,
pauses, severed and blackholed links.

The paper assumes reliable channels; this package removes that
assumption.  One :class:`FaultPlan` describes *what* goes wrong, and
each backend runs what it can express: a :class:`FaultyTransport`
applies packet faults and link cuts on any transport (simulator, model
checker, ``repro serve --drop-rate``), a :class:`FaultInjector` kills
simulated hosts and restarts them by WAL redo, and the :mod:`repro.chaos`
harness runs the actions live through
:class:`~repro.faults.proxy.FaultProxy`, which severs and blackholes
real TCP links.

The recovery layer lives in :mod:`repro.protocols.reliable`.
"""

from repro.faults.plan import ACTION_KINDS, FaultAction, FaultPlan
from repro.faults.transport import FaultyTransport
from repro.faults.injector import FaultInjector, FaultSummary

__all__ = [
    "ACTION_KINDS",
    "FaultAction",
    "FaultPlan",
    "FaultProxy",
    "FaultyTransport",
    "FaultInjector",
    "FaultSummary",
]


def __getattr__(name):
    # FaultProxy lives behind a lazy import: repro.faults.proxy needs the
    # wire codec, and eagerly importing repro.net here would couple the
    # (asyncio-free) simulation fault layer to the network runtime.
    if name == "FaultProxy":
        from repro.faults.proxy import FaultProxy

        return FaultProxy
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
