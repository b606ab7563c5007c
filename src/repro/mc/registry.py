"""The checker's tiny workloads and its view of the protocol catalogue.

Counterexample schedules serialize a protocol *name*; replay resolves it
here, so a schedule file is self-contained (workload + name + keys).
What a name means is :func:`repro.protocols.registry.resolve`'s
business; the checker only adds the ARQ parameters that keep its
transition tree finite.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.protocols.registry import resolve
from repro.simulation.workloads import SendRequest, Workload


def pair_workload() -> Workload:
    """Two same-channel messages 0 -> 1: the minimal FIFO test."""
    return Workload(
        name="mc-pair",
        n_processes=2,
        requests=(
            SendRequest(time=0.0, sender=0, receiver=1),
            SendRequest(time=1.0, sender=0, receiver=1),
        ),
    )


def triple_workload() -> Workload:
    """Three same-channel messages 0 -> 1: the fault-masking benchmark
    (``repro check reliable-fifo --workload triple --fault-budget K``)."""
    return Workload(
        name="mc-triple",
        n_processes=2,
        requests=(
            SendRequest(time=0.0, sender=0, receiver=1),
            SendRequest(time=1.0, sender=0, receiver=1),
            SendRequest(time=2.0, sender=0, receiver=1),
        ),
    )


def triangle_workload() -> Workload:
    """The paper's causal triangle: m1: 0->2, m2: 0->1, m3: 1->2."""
    return Workload(
        name="mc-triangle",
        n_processes=3,
        requests=(
            SendRequest(time=0.0, sender=0, receiver=2),
            SendRequest(time=1.0, sender=0, receiver=1),
            SendRequest(time=2.0, sender=1, receiver=2),
        ),
    )


def flush_pair_workload() -> Workload:
    """Ordinary then red (two-way flush) message on one channel."""
    return Workload(
        name="mc-flush-pair",
        n_processes=2,
        requests=(
            SendRequest(time=0.0, sender=0, receiver=1),
            SendRequest(time=1.0, sender=0, receiver=1, color="red"),
        ),
    )


def named_workloads() -> Dict[str, Callable[[], Workload]]:
    """Deterministic tiny workloads selectable from the CLI by name."""
    return {
        "pair": pair_workload,
        "triple": triple_workload,
        "triangle": triangle_workload,
        "flush-pair": flush_pair_workload,
    }


#: The ARQ sublayer the checker runs ``reliable-`` names under: every
#: timer expiry is a transition the adversary may fire at will, so the
#: retry cap and the windows are what keep the transition tree finite.
FINITE_TREE_ARQ = dict(max_retries=1, retransmit_window=1, send_window=1)


def resolve_protocol(name: str) -> Callable[[int, int], object]:
    """The factory the checker (re)instantiates for a catalogue name
    (:func:`repro.protocols.registry.resolve`; helpful error on a miss)."""
    return resolve(name, **FINITE_TREE_ARQ).factory
