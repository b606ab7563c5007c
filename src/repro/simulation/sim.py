"""A minimal deterministic discrete-event scheduler."""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

Action = Callable[[], None]


class Simulator:
    """Priority-queue event loop over virtual time.

    Ties in time are broken by scheduling order (a monotonically increasing
    sequence number), so a run is a pure function of the scheduled actions.
    """

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Action]] = []
        self._now = 0.0
        self._sequence = 0
        self._executed = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def executed_events(self) -> int:
        return self._executed

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    def schedule(self, delay: float, action: Action) -> None:
        """Run ``action`` ``delay`` time units from now."""
        if delay < 0:
            raise ValueError("cannot schedule into the past (delay=%r)" % delay)
        heapq.heappush(self._queue, (self._now + delay, self._sequence, action))
        self._sequence += 1

    def run(self, max_events: Optional[int] = None) -> int:
        """Process events until the queue drains (or ``max_events``).

        Returns the number of events executed by this call.
        """
        executed_before = self._executed
        while self._queue:
            if max_events is not None and self._executed - executed_before >= max_events:
                break
            self._now, _, action = heapq.heappop(self._queue)
            self._executed += 1
            action()
        return self._executed - executed_before

    def __repr__(self) -> str:
        return "Simulator(now=%.3f, pending=%d, executed=%d)" % (
            self._now,
            len(self._queue),
            self._executed,
        )
