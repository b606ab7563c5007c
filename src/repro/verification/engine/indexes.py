"""Attribute indexes over the messages a monitor has seen.

The compiled evaluation plans narrow each variable's candidate messages
through these indexes instead of scanning the whole message set: guards
like ``color(y) = red`` or ``sender(x) = sender(y)`` become dictionary
lookups keyed on the guard attribute.  The index is append-only with
:meth:`mark`/:meth:`rewind` snapshots so the model checker's DFS can wind
the match state back when it pops a schedule prefix.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.events import Message

#: Index families a plan may consult (message attribute name -> bucket key).
SENDER = "sender"
RECEIVER = "receiver"
COLOR = "color"
GROUP = "group"


class MessageIndex:
    """Messages bucketed by sender, receiver, colour and group.

    Buckets preserve insertion order, so enumeration through an index is
    as deterministic as enumeration over the full list.  ``rewind`` pops
    the most recently added messages; because every bucket is
    append-only, undoing an addition is a tail ``pop`` per bucket.
    """

    __slots__ = ("_all", "_position", "_buckets")

    def __init__(self) -> None:
        self._all: List[Message] = []
        # message id -> index in ``_all`` (its registration order)
        self._position: Dict[str, int] = {}
        self._buckets: Dict[Tuple[str, object], List[Message]] = {}

    def __len__(self) -> int:
        return len(self._all)

    def __contains__(self, message_id: str) -> bool:
        return message_id in self._position

    def add(self, message: Message) -> None:
        """Register one message in every applicable bucket (idempotent)."""
        if message.id in self._position:
            return
        self._position[message.id] = len(self._all)
        self._all.append(message)
        for attribute, value in self._keys_of(message):
            self._buckets.setdefault((attribute, value), []).append(message)

    @staticmethod
    def _keys_of(message: Message) -> List[Tuple[str, object]]:
        keys: List[Tuple[str, object]] = [
            (SENDER, message.sender),
            (RECEIVER, message.receiver),
        ]
        if message.color is not None:
            keys.append((COLOR, message.color))
        if message.group is not None:
            keys.append((GROUP, message.group))
        return keys

    def message(self, message_id: str) -> Optional[Message]:
        """The registered message with this id, or ``None``."""
        position = self._position.get(message_id)
        return None if position is None else self._all[position]

    def position(self, message: Message) -> int:
        """Where a registered message stands in registration order: the
        order every bucket enumerates in, so candidates drawn from
        elsewhere are sorted on it to be tried in that same order."""
        return self._position[message.id]

    def all_messages(self) -> List[Message]:
        """Every registered message, in registration order (not a copy)."""
        return self._all

    def bucket(self, attribute: str, value: object) -> List[Message]:
        """Messages whose ``attribute`` equals ``value`` (not a copy)."""
        return self._buckets.get((attribute, value), _EMPTY)

    # Snapshots ------------------------------------------------------------

    def mark(self) -> int:
        """A snapshot token: the number of messages registered so far."""
        return len(self._all)

    def rewind(self, token: int) -> None:
        """Forget every message added after ``mark`` returned ``token``."""
        while len(self._all) > token:
            message = self._all.pop()
            del self._position[message.id]
            for key in self._keys_of(message):
                bucket = self._buckets[key]
                popped = bucket.pop()
                assert popped.id == message.id

    def __repr__(self) -> str:
        return "MessageIndex(messages=%d, buckets=%d)" % (
            len(self._all),
            len(self._buckets),
        )


_EMPTY: List[Message] = []
