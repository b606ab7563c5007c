"""Concurrency metrics of runs.

Quantifies *how* concurrent an execution was -- useful when comparing
protocols: the logically synchronous protocols buy their guarantee by
destroying concurrency, and these numbers show it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List

from repro.events import Event
from repro.runs.user_run import UserRun


@dataclass(frozen=True)
class RunMetrics:
    """Shape statistics of one user-view run."""

    events: int
    messages: int
    comparable_pairs: int
    concurrent_pairs: int
    longest_chain: int  # height: the longest causal chain of user events
    width: int  # size of the largest antichain lower bound (greedy)
    reordered_channel_pairs: int  # same-channel pairs delivered out of order

    @property
    def concurrency_ratio(self) -> float:
        """Fraction of distinct event pairs that are concurrent: 0 for a
        totally ordered run, approaching 1 for fully independent events."""
        total = self.comparable_pairs + self.concurrent_pairs
        return self.concurrent_pairs / total if total else 0.0

    @property
    def parallelism(self) -> float:
        """Events per chain step (1.0 means fully sequential)."""
        return self.events / self.longest_chain if self.longest_chain else 0.0


def run_metrics(run: UserRun) -> RunMetrics:
    """Compute all metrics from the run's order and its generating pairs."""
    events = run.events()
    n = len(events)
    order = run.partial_order()
    comparable = order.relation_count()

    # Longest chain via longest-path DP over the generating pairs, in a
    # linear extension: a chain of ▷ is a path of generating pairs.
    below: Dict[Event, List[Event]] = {}
    for low, high in order.generating_pairs():
        below.setdefault(high, []).append(low)
    depth: Dict[Event, int] = {}
    for event in order.a_linear_extension():
        depth[event] = 1 + max((depth[p] for p in below.get(event, ())), default=0)
    longest = max(depth.values(), default=0)

    # Events of one depth are pairwise concurrent (order would raise the
    # later one's depth), so the largest level is an antichain: a lower
    # bound on the true width.
    width = max(Counter(depth.values()).values(), default=0)

    # Same-channel delivery inversions (the FIFO reordering count).
    reordered = 0
    messages = run.messages()
    for i, x in enumerate(messages):
        for y in messages[i + 1 :]:
            if x.channel != y.channel:
                continue
            xs, ys = Event.send(x.id), Event.send(y.id)
            xr, yr = Event.deliver(x.id), Event.deliver(y.id)
            if not all(map(run.has_event, (xs, ys, xr, yr))):
                continue
            if run.before(xs, ys) and run.before(yr, xr):
                reordered += 1
            elif run.before(ys, xs) and run.before(xr, yr):
                reordered += 1

    return RunMetrics(
        events=n,
        messages=len(messages),
        comparable_pairs=comparable,
        concurrent_pairs=n * (n - 1) // 2 - comparable,
        longest_chain=longest,
        width=width,
        reordered_channel_pairs=reordered,
    )
