"""Per-link failure detection and supervised reconnection policy.

The real-network runtime (:mod:`repro.net`) originally treated a peer
link as a boolean: the TCP stream either existed or it did not.  That is
the wrong model for two of the three failure shapes a live cluster
actually meets -- a severed connection announces itself with an EOF, but
a *blackholed* link (packets silently discarded, socket still "open")
and a *paused* peer (SIGSTOP, GC stall, overload) produce no socket
event at all.  This module supplies the two mechanisms the host runtime
composes to cover all three:

:class:`PhiAccrualDetector` / :class:`LinkMonitor`
    a phi-accrual-style failure detector per peer link, fed by
    HEARTBEAT echo arrivals.  Instead of a binary timeout it computes a
    continuous suspicion level ``phi`` from the observed inter-arrival
    history (Hayashibara et al., "The phi accrual failure detector"),
    and maps it onto three states -- ``up`` / ``suspect`` / ``down`` --
    at configurable thresholds.  ``phi`` is ``-log10 P(no arrival for
    this long | history)`` under an exponential inter-arrival model, so
    a threshold of 3 literally means "this silence had probability
    1/1000 given the link's recent behaviour".

:class:`ReconnectPolicy`
    the supervised re-dial schedule: exponential backoff with jitter,
    a delay cap, and a give-up deadline.  The host's reconnect
    supervisor walks :meth:`ReconnectPolicy.delays` instead of dialing
    once and giving up.

:class:`ResilienceConfig` bundles both (plus the backpressure
watermarks, which are host-side but travel with the same knob set) so
``NetHost`` and the CLI share one configuration surface.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, Optional

__all__ = [
    "LINK_DOWN",
    "LINK_SUSPECT",
    "LINK_UP",
    "LinkMonitor",
    "PhiAccrualDetector",
    "ReconnectPolicy",
    "ResilienceConfig",
]

LINK_UP = "up"
LINK_SUSPECT = "suspect"
LINK_DOWN = "down"

#: Floor on a recorded heartbeat gap and on the estimated mean: two
#: echoes read in one wakeup must not make ordinary silence suspicious.
MIN_INTERVAL = 1e-3


class PhiAccrualDetector:
    """Suspicion level for one monitored link.

    Call :meth:`observe` at every heartbeat (echo) arrival and
    :meth:`phi` whenever a verdict is needed.  The estimator keeps a
    bounded window of inter-arrival gaps; ``phi(now)`` scores the
    current silence against their mean under an exponential model:

    ``phi = (now - last_arrival) / mean_interval / ln(10)``

    which is exactly ``-log10 P(gap > silence)`` for an exponential
    distribution -- the heavier-tailed cousin of the original paper's
    normal model, chosen because loopback/LAN heartbeat gaps are
    scheduler-noise dominated (occasional large spikes) and the
    exponential never produces the false-positive cliff a small sample
    variance causes under the normal model.

    Until the first arrival, silence is measured from :meth:`reset`
    (construction), so a link that never comes up still trips the
    detector.
    """

    def __init__(
        self,
        expected_interval: float,
        window: int = 16,
    ) -> None:
        if expected_interval <= 0:
            raise ValueError("expected_interval must be positive")
        if window < 1:
            raise ValueError("window must hold at least one interval")
        self.expected_interval = expected_interval
        self._intervals: Deque[float] = deque(maxlen=window)
        self._last: Optional[float] = None
        self._epoch: Optional[float] = None

    def reset(self, now: float) -> None:
        """Forget the history (a fresh connection is a fresh link)."""
        self._intervals.clear()
        self._last = None
        self._epoch = now

    def observe(self, now: float) -> None:
        """Record a heartbeat (echo) arrival at wall time ``now``."""
        if self._last is not None:
            self._intervals.append(max(now - self._last, MIN_INTERVAL))
        self._last = now

    @property
    def mean_interval(self) -> float:
        """The estimated inter-arrival mean (bootstrapped to the
        configured expectation until enough samples accumulate)."""
        if not self._intervals:
            return self.expected_interval
        observed = sum(self._intervals) / len(self._intervals)
        # Never trust an estimate below the configured expectation: a
        # burst of fast echoes must not make ordinary silence suspicious.
        return max(observed, self.expected_interval, MIN_INTERVAL)

    def phi(self, now: float) -> float:
        """The current suspicion level (0 when a heartbeat just landed)."""
        last = self._last if self._last is not None else self._epoch
        if last is None:
            self._epoch = now
            return 0.0
        silence = max(0.0, now - last)
        return silence / self.mean_interval / math.log(10.0)


class LinkMonitor:
    """Tri-state link classification over a set of peer detectors.

    One per host; :meth:`observe` feeds the per-peer detector,
    :meth:`evaluate` recomputes every peer's state and returns the
    transitions (``[(peer, old, new), ...]``) so the caller can emit
    probes exactly once per change.  ``suspect_phi`` / ``down_phi`` are
    the classification thresholds.
    """

    def __init__(
        self,
        expected_interval: float,
        suspect_phi: float = 3.0,
        down_phi: float = 8.0,
    ) -> None:
        if down_phi < suspect_phi:
            raise ValueError("down_phi must be >= suspect_phi")
        self.expected_interval = expected_interval
        self.suspect_phi = suspect_phi
        self.down_phi = down_phi
        self._detectors: Dict[int, PhiAccrualDetector] = {}
        self._states: Dict[int, str] = {}

    def watch(self, peer: int, now: float) -> None:
        """Begin (or restart) monitoring ``peer``: fresh history, state
        ``up`` -- a just-established link gets a full silence budget."""
        detector = self._detectors.get(peer)
        if detector is None:
            detector = PhiAccrualDetector(self.expected_interval)
            self._detectors[peer] = detector
        detector.reset(now)
        self._states[peer] = LINK_UP

    def forget(self, peer: int) -> None:
        self._detectors.pop(peer, None)
        self._states.pop(peer, None)

    def observe(self, peer: int, now: float) -> None:
        """A heartbeat echo from ``peer`` arrived."""
        detector = self._detectors.get(peer)
        if detector is None:
            self.watch(peer, now)
            detector = self._detectors[peer]
        detector.observe(now)

    def phi(self, peer: int, now: float) -> float:
        detector = self._detectors.get(peer)
        return detector.phi(now) if detector is not None else 0.0

    def state(self, peer: int) -> str:
        return self._states.get(peer, LINK_DOWN)

    def states(self) -> Dict[int, str]:
        return dict(self._states)

    def mark_down(self, peer: int) -> Optional["tuple[str, str]"]:
        """Force ``peer`` down (EOF observed); returns (old, new) if that
        is a transition."""
        old = self._states.get(peer)
        if old == LINK_DOWN:
            return None
        self._states[peer] = LINK_DOWN
        return (old if old is not None else LINK_DOWN, LINK_DOWN)

    def evaluate(self, now: float) -> "list[tuple[int, str, str]]":
        """Reclassify every watched peer; returns the transitions."""
        transitions = []
        for peer, detector in self._detectors.items():
            phi = detector.phi(now)
            if phi >= self.down_phi:
                new = LINK_DOWN
            elif phi >= self.suspect_phi:
                new = LINK_SUSPECT
            else:
                new = LINK_UP
            old = self._states.get(peer, LINK_UP)
            if new != old:
                self._states[peer] = new
                transitions.append((peer, old, new))
        return transitions


@dataclass(frozen=True)
class ReconnectPolicy:
    """The supervised re-dial schedule.

    ``delays(rng)`` yields the sleep before each successive attempt:
    attempt 1 fires immediately (delay 0 -- the common case is a peer
    restart where the listener is already back), then ``base``,
    ``base * multiplier``, ... capped at ``cap``, each with
    ±``jitter``-relative noise so a cluster of supervisors does not
    thunder in lockstep.  Iteration stops once the *cumulative* schedule
    passes ``deadline`` seconds: a peer gone that long is an operator
    problem, not a transient.
    """

    base: float = 0.05
    multiplier: float = 2.0
    cap: float = 2.0
    jitter: float = 0.2
    deadline: float = 30.0

    def __post_init__(self) -> None:
        if self.base <= 0:
            raise ValueError("base delay must be positive")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.cap < self.base:
            raise ValueError("cap must be >= base")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.deadline <= 0:
            raise ValueError("deadline must be positive")

    def delays(self, rng) -> Iterator[float]:
        """Backoff delays until the give-up deadline (see class doc)."""
        yield 0.0
        elapsed = 0.0
        delay = self.base
        while elapsed < self.deadline:
            jittered = delay * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))
            jittered = min(jittered, max(0.0, self.deadline - elapsed))
            yield jittered
            elapsed += jittered
            delay = min(delay * self.multiplier, self.cap)


@dataclass(frozen=True)
class ResilienceConfig:
    """Every knob of the host resilience layer in one bundle.

    ``heartbeat_interval`` is in wall seconds (heartbeats probe the real
    link, so they do not scale with the protocol's virtual clock).  The
    watermarks bound the host's *local pending* work (invoked-but-unsent
    plus received-but-undelivered): crossing ``high_watermark`` makes
    the host signal BACKPRESSURE ``high`` to its load clients, falling
    below ``low_watermark`` signals ``low``.  ``queue_limit`` bounds the
    transport's per-peer frame queue while a link is down (USER frames
    are shed oldest-first beyond it; control frames survive).
    """

    heartbeat_interval: float = 0.2
    suspect_phi: float = 3.0
    down_phi: float = 8.0
    reconnect: ReconnectPolicy = field(default_factory=ReconnectPolicy)
    high_watermark: int = 4096
    low_watermark: int = 1024
    queue_limit: int = 2048

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.down_phi < self.suspect_phi:
            raise ValueError("down_phi must be >= suspect_phi")
        if self.low_watermark < 0 or self.high_watermark <= self.low_watermark:
            raise ValueError(
                "watermarks must satisfy 0 <= low < high, got %d/%d"
                % (self.low_watermark, self.high_watermark)
            )
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")

    def monitor(self) -> LinkMonitor:
        """A :class:`LinkMonitor` matching this configuration."""
        return LinkMonitor(
            self.heartbeat_interval,
            suspect_phi=self.suspect_phi,
            down_phi=self.down_phi,
        )
