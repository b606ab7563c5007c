"""The RST protocol as it was before its matrix became one flat list.

:class:`NestedCausalRstProtocol` is the nested-matrix
``CausalRstProtocol`` kept verbatim (``SENT`` a list of n rows, the tag
a list of n lists) as a reference.  ``tests/test_rst_flat_matrix.py``
shows the flat protocol behaves exactly as this one, and
``tests/data/wal_v2_golden/record.py`` records its causal-rst run with
it, because that golden's segments hold nested tags.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.events import Message
from repro.protocols.base import Protocol
from repro.simulation.host import HostContext


class NestedCausalRstProtocol(Protocol):
    """The RST matrix protocol for point-to-point causal delivery."""

    name = "causal-rst"
    protocol_class = "tagged"

    def __init__(self) -> None:
        self._sent: Optional[List[List[int]]] = None
        self._delivered: Optional[List[int]] = None
        self._pending: List[Tuple[Message, List[List[int]]]] = []
        self._me: Optional[int] = None

    def _ensure_state(self, ctx: HostContext) -> None:
        if self._sent is None:
            n = ctx.n_processes
            self._sent = [[0] * n for _ in range(n)]
            self._delivered = [0] * n
        self._me = ctx.process_id

    def on_invoke(self, ctx: HostContext, message: Message) -> None:
        self._ensure_state(ctx)
        assert self._sent is not None
        tag = [row[:] for row in self._sent]
        # Tag first, then count this message: the tag describes strictly
        # earlier traffic, which also yields FIFO per channel.
        self._sent[ctx.process_id][message.receiver] += 1
        ctx.release(message, tag=tag)

    def on_user_message(self, ctx: HostContext, message: Message, tag: Any) -> None:
        self._ensure_state(ctx)
        matrix = [list(row) for row in tag]
        self._pending.append((message, matrix))
        self._drain(ctx)

    def _deliverable(self, ctx: HostContext, matrix: List[List[int]]) -> bool:
        assert self._delivered is not None
        me = ctx.process_id
        return all(
            self._delivered[k] >= matrix[k][me] for k in range(ctx.n_processes)
        )

    def _drain(self, ctx: HostContext) -> None:
        assert self._sent is not None and self._delivered is not None
        progress = True
        while progress:
            progress = False
            for index, (message, matrix) in enumerate(self._pending):
                if self._deliverable(ctx, matrix):
                    del self._pending[index]
                    self._delivered[message.sender] += 1
                    n = ctx.n_processes
                    for j in range(n):
                        for k in range(n):
                            if matrix[j][k] > self._sent[j][k]:
                                self._sent[j][k] = matrix[j][k]
                    # Account for the delivered message itself.
                    me = ctx.process_id
                    if matrix[message.sender][me] + 1 > self._sent[message.sender][me]:
                        self._sent[message.sender][me] = matrix[message.sender][me] + 1
                    ctx.deliver(message)
                    progress = True
                    break

    def blocking_reason(self, message_id: str) -> Optional[str]:
        """Name the unsatisfied matrix constraints a buffered message
        waits on (``DELIV[k] < SENT[k][me]`` entries of its tag)."""
        if self._delivered is None or self._me is None:
            return None
        for message, matrix in self._pending:
            if message.id != message_id:
                continue
            gaps = [
                "%d more from P%d (have %d, tag needs %d)"
                % (matrix[k][self._me] - self._delivered[k], k,
                   self._delivered[k], matrix[k][self._me])
                for k in range(len(self._delivered))
                if self._delivered[k] < matrix[k][self._me]
            ]
            return "buffered awaiting " + "; ".join(gaps) if gaps else None
        return None
