"""Per-key lanes: O(1) live ordering checks and per-key statistics.

A *lane* is one ordering key's message stream inside a shard worker.
Lanes are mutually independent by construction -- no check, buffer, or
counter is shared between keys -- which is what "no cross-key
head-of-line blocking" means operationally.

The live checkers here are the per-key-scoped form of the repo's exact
:class:`~repro.verification.engine.SpecMonitor`.  The exact monitor's
anchored search costs ~7.5 µs per event whatever the history; scoping
the spec to a single key collapses it to a constant-time invariant an
order of magnitude cheaper (0.6 µs), which is why a lane runs these:

``fifo`` per key
    deliveries at one receiver must see each ``(sender, key)`` stream's
    sequence numbers contiguously (``seq == expected``), exactly the
    paper's order-1 tagged protocol run in reverse as a checker;

``causal`` per key
    each delivery must satisfy the vector-clock delivery condition for
    its key (``vc[src] == seen[src] + 1`` and ``vc[q] <= seen[q]``
    elsewhere), the tagged causal protocol's acceptance test.

``tests/test_shard.py`` cross-validates these checkers against the
exact :class:`SpecMonitor` over the spec with a same-key
:class:`~repro.predicates.guards.KeyGuard` on traces with injected
violations, so the O(1) forms are verdict-equivalent to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import Histogram

__all__ = [
    "CausalLaneChecker",
    "FifoLaneChecker",
    "KeyStats",
    "LaneViolation",
    "lane_checker",
]


@dataclass(frozen=True)
class LaneViolation:
    """One latched per-key ordering violation."""

    key: str
    kind: str  # "fifo" | "causal"
    message_id: str
    detail: str

    def render(self) -> str:
        return "lane %s (%s): message %s %s" % (
            self.key,
            self.kind,
            self.message_id,
            self.detail,
        )


class FifoLaneChecker:
    """O(1) per-key FIFO acceptance: contiguous seq per (sender, key).

    The sender side of a lane stamps each row with a per-(key, dst)
    sequence number; at the receiver, every ``(sender, key)`` stream
    must arrive as 0, 1, 2, ...  A gap or inversion is exactly a
    violation of the fifo predicate scoped to that key.
    """

    kind = "fifo"

    def __init__(self) -> None:
        self._expected: Dict[Tuple[int, str], int] = {}

    def on_deliver(
        self,
        message_id: str,
        src: int,
        key: str,
        seq: int,
        vc: Optional[List[int]] = None,
    ) -> Optional[LaneViolation]:
        slot = (src, key)
        expected = self._expected.get(slot, 0)
        self._expected[slot] = max(expected, seq + 1)
        if seq != expected:
            return LaneViolation(
                key=key,
                kind=self.kind,
                message_id=message_id,
                detail="arrived with seq %d, expected %d from p%d"
                % (seq, expected, src),
            )
        return None


class CausalLaneChecker:
    """O(processes) per-key causal acceptance via vector clocks.

    Rows carry the sender's per-key vector clock stamped at send time;
    the standard causal-broadcast delivery condition is checked per
    (key, receiver) so keys never constrain one another.  Because a
    process does not deliver its own sends, the receiver's own clock
    component is exempt (the Birman-Schiper-Stephenson formulation):
    everything the receiver sent is trivially "known" to it.
    """

    kind = "causal"

    def __init__(self, n_processes: int, receiver: int = 0) -> None:
        self.n_processes = n_processes
        self.receiver = receiver
        #: (receiver-local) delivered clock per key.
        self._seen: Dict[str, List[int]] = {}

    def _ready(self, src: int, seen: List[int], vc: List[int]) -> bool:
        if vc[src] != seen[src] + 1:
            return False
        receiver = self.receiver
        return all(
            vc[q] <= seen[q]
            for q in range(self.n_processes)
            if q != src and q != receiver
        )

    def deliverable(self, src: int, key: str, vc: List[int]) -> bool:
        """Whether a row with clock ``vc`` is deliverable *now* (the
        hold-back test of the tagged causal protocol; no state change)."""
        seen = self._seen.get(key)
        if seen is None:
            seen = [0] * self.n_processes
        return self._ready(src, seen, vc)

    def on_deliver(
        self,
        message_id: str,
        src: int,
        key: str,
        seq: int,
        vc: Optional[List[int]] = None,
    ) -> Optional[LaneViolation]:
        if vc is None:
            return LaneViolation(
                key=key,
                kind=self.kind,
                message_id=message_id,
                detail="arrived without a vector clock",
            )
        seen = self._seen.get(key)
        if seen is None:
            seen = [0] * self.n_processes
            self._seen[key] = seen
        violation = None
        if not self._ready(src, seen, vc):
            violation = LaneViolation(
                key=key,
                kind=self.kind,
                message_id=message_id,
                detail="vc %r not deliverable after %r (from p%d)"
                % (vc, list(seen), src),
            )
        for q in range(self.n_processes):
            if vc[q] > seen[q]:
                seen[q] = vc[q]
        return violation


def lane_checker(kind: str, n_processes: int, receiver: int = 0):
    """The live checker for a lane kind (``broken-fifo`` still *checks*
    fifo -- the breakage is on the send path, the checker catches it)."""
    if kind in ("fifo", "broken-fifo"):
        return FifoLaneChecker()
    if kind == "causal":
        return CausalLaneChecker(n_processes, receiver)
    raise ValueError("unknown lane kind %r" % (kind,))


class KeyStats:
    """Per-key delivery counters and sampled latency distributions.

    Latency is sampled one-in-``sample`` (the histogram's insert is the
    single most expensive per-delivery operation at high rates); counts
    are exact always.  Each key's histogram is independent, which is
    what lets the benchmark assert per-key p99s are unaffected by other
    keys' load.
    """

    def __init__(self, sample: int = 4) -> None:
        self.sample = max(1, sample)
        self.delivered: Dict[str, int] = {}
        self._latency: Dict[str, Histogram] = {}
        self._tick = 0

    def on_deliver(self, key: str, latency_seconds: float) -> None:
        self.delivered[key] = self.delivered.get(key, 0) + 1
        self._tick += 1
        if self._tick % self.sample:
            return
        histogram = self._latency.get(key)
        if histogram is None:
            histogram = Histogram("shard.lane.latency")
            self._latency[key] = histogram
        histogram.observe(latency_seconds)

    def latency(self, key: str) -> Optional[Histogram]:
        return self._latency.get(key)

    def to_wire(self, top: int = 64) -> Dict[str, Dict[str, float]]:
        """The busiest ``top`` keys' counters and p50/p99 (milliseconds)."""
        busiest = sorted(
            self.delivered, key=lambda key: -self.delivered[key]
        )[:top]
        body: Dict[str, Dict[str, float]] = {}
        for key in busiest:
            histogram = self._latency.get(key)
            body[key] = {
                "delivered": self.delivered[key],
                "p50_ms": histogram.percentile(50) * 1000.0 if histogram else 0.0,
                "p99_ms": histogram.percentile(99) * 1000.0 if histogram else 0.0,
            }
        return body
