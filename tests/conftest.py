"""Shared fixtures: canonical runs and protocol factories."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

# Deterministic property testing: the suite is also the reproduction's
# evidence, so a run must mean the same thing every time.  (Remove the
# profile locally to hunt with fresh randomness.)
settings.register_profile(
    "repro",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

from repro.events import Event, Message
from repro.predicates.ast import ForbiddenPredicate
from repro.predicates.guards import KeyGuard
from repro.runs.user_run import UserRun


def scoped_to_key(predicate, name):
    """The per-key form: same conjuncts, plus ``key(x) = key(y)``."""
    return ForbiddenPredicate.build(
        list(predicate.conjuncts),
        guards=list(predicate.guards) + [KeyGuard("x", "y", equal=True)],
        name=name,
        distinct=predicate.distinct,
    )


@pytest.fixture
def co_violating_run() -> UserRun:
    """Two messages 0 → 1 delivered against their causal send order."""
    m1 = Message(id="m1", sender=0, receiver=1)
    m2 = Message(id="m2", sender=0, receiver=1)
    return UserRun.from_process_sequences(
        [m1, m2],
        {
            0: [Event.send("m1"), Event.send("m2")],
            1: [Event.deliver("m2"), Event.deliver("m1")],
        },
    )


@pytest.fixture
def co_ordered_run() -> UserRun:
    """The same two messages delivered in send order."""
    m1 = Message(id="m1", sender=0, receiver=1)
    m2 = Message(id="m2", sender=0, receiver=1)
    return UserRun.from_process_sequences(
        [m1, m2],
        {
            0: [Event.send("m1"), Event.send("m2")],
            1: [Event.deliver("m1"), Event.deliver("m2")],
        },
    )


@pytest.fixture
def crossing_run() -> UserRun:
    """Two messages crossing between processes (a 2-crown):
    0 sends m1 to 1, 1 sends m2 to 0, each delivered after the local send."""
    m1 = Message(id="m1", sender=0, receiver=1)
    m2 = Message(id="m2", sender=1, receiver=0)
    return UserRun.from_process_sequences(
        [m1, m2],
        {
            0: [Event.send("m1"), Event.deliver("m2")],
            1: [Event.send("m2"), Event.deliver("m1")],
        },
    )


@pytest.fixture
def sync_run() -> UserRun:
    """Three messages forming a relay 0 → 1 → 2: logically synchronous."""
    m1 = Message(id="m1", sender=0, receiver=1)
    m2 = Message(id="m2", sender=1, receiver=2)
    return UserRun.from_process_sequences(
        [m1, m2],
        {
            0: [Event.send("m1")],
            1: [Event.deliver("m1"), Event.send("m2")],
            2: [Event.deliver("m2")],
        },
    )

