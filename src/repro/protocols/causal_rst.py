"""Causal ordering by matrix tagging (Raynal, Schiper & Toueg 1991).

Each process ``Pi`` maintains an ``n x n`` matrix ``SENT`` where entry
``(j, k)`` is ``Pi``'s knowledge of how many messages ``Pj`` has sent to
``Pk``, and a vector ``DELIV`` where ``DELIV[k]`` counts messages from
``Pk`` delivered locally.  A message from ``Pi`` carries the matrix as its
tag; the receiver ``Pj`` delays delivery until ``DELIV[k] >= tag(k, j)``
for every ``k`` -- i.e. until every message the sender knew to be
destined to ``Pj`` has been delivered.

``SENT`` and the tag are one row-major list of ``n * n`` ints: entry
``(j, k)`` sits at index ``j * n + k``, so column ``j`` is the slice
``[j::n]``.  Every per-message step on the matrix is then one C-level
call -- the tag is a slice copy, deliverability compares ``DELIV`` with
one column slice, and the merge is an element-wise ``max`` -- and the
codec spells, and :func:`~repro.simulation.trace.estimate_size` prices,
a flat int list in one step.  A received tag of any other shape is a
:class:`~repro.simulation.host.ProtocolError`.

The tag is pure piggybacked knowledge: no control messages, exactly the
paper's *tagged* class.  (It is also the protocol the paper's related-work
section uses to pose the "would deeper matrices restrict ordering
further?" question that Theorem 1 answers negatively.)
"""

from __future__ import annotations

from operator import ge
from typing import Any, List, Optional, Tuple

from repro.events import Message
from repro.protocols.base import Protocol
from repro.simulation.host import HostContext, ProtocolError

_INT = frozenset({int})


class CausalRstProtocol(Protocol):
    """The RST matrix protocol for point-to-point causal delivery."""

    name = "causal-rst"
    protocol_class = "tagged"

    def __init__(self) -> None:
        self._n = 0
        self._sent: Optional[List[int]] = None
        self._delivered: Optional[List[int]] = None
        self._pending: List[Tuple[Message, List[int]]] = []
        self._me: Optional[int] = None

    def _ensure_state(self, ctx: HostContext) -> None:
        if self._sent is None:
            n = self._n = ctx.n_processes
            self._sent = [0] * (n * n)
            self._delivered = [0] * n
        self._me = ctx.process_id

    def on_invoke(self, ctx: HostContext, message: Message) -> None:
        self._ensure_state(ctx)
        assert self._sent is not None
        tag = self._sent[:]
        # Tag first, then count this message: the tag describes strictly
        # earlier traffic, which also yields FIFO per channel.
        self._sent[ctx.process_id * self._n + message.receiver] += 1
        ctx.release(message, tag=tag)

    def on_user_message(self, ctx: HostContext, message: Message, tag: Any) -> None:
        self._ensure_state(ctx)
        size = self._n * self._n
        if type(tag) is not list or len(tag) != size or not _INT.issuperset(
            map(type, tag)
        ):
            raise ProtocolError(
                "causal-rst tag of %s must be a flat list of n*n = %d ints, got %.80r"
                % (message.id, size, tag)
            )
        self._pending.append((message, tag))
        self._drain(ctx)

    def _deliverable(self, ctx: HostContext, matrix: List[int]) -> bool:
        assert self._delivered is not None
        return all(map(ge, self._delivered, matrix[ctx.process_id :: self._n]))

    def _drain(self, ctx: HostContext) -> None:
        assert self._sent is not None and self._delivered is not None
        progress = True
        while progress:
            progress = False
            for index, (message, matrix) in enumerate(self._pending):
                if self._deliverable(ctx, matrix):
                    del self._pending[index]
                    self._delivered[message.sender] += 1
                    sent = self._sent = list(map(max, self._sent, matrix))
                    # Account for the delivered message itself.
                    own = message.sender * self._n + ctx.process_id
                    if matrix[own] + 1 > sent[own]:
                        sent[own] = matrix[own] + 1
                    ctx.deliver(message)
                    progress = True
                    break

    def blocking_reason(self, message_id: str) -> Optional[str]:
        """Name the unsatisfied matrix constraints a buffered message
        waits on (``DELIV[k] < tag(k, me)`` entries of its tag)."""
        if self._delivered is None or self._me is None:
            return None
        for message, matrix in self._pending:
            if message.id != message_id:
                continue
            column = matrix[self._me :: self._n]
            gaps = [
                "%d more from P%d (have %d, tag needs %d)"
                % (column[k] - self._delivered[k], k, self._delivered[k], column[k])
                for k in range(len(self._delivered))
                if self._delivered[k] < column[k]
            ]
            return "buffered awaiting " + "; ".join(gaps) if gaps else None
        return None
