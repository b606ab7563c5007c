"""Messages and their attributes.

The paper's §4.1 allows forbidden predicates to be *guarded* by message
attributes: the sending process, the receiving process, and an arbitrary
``colour`` attribute (for example "the red marker message").  A
:class:`Message` carries these attributes; predicates consult them through
attribute guards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

# A message identifier.  We use short strings ("m1", "x", ...) so that
# events print in the paper's notation ("m1.s", "x.r*").
MessageId = str


def channel_key(sender: int, receiver: int) -> str:
    """The ordering key of an unkeyed message: its channel, spelled
    ``"p<sender>-p<receiver>"`` (see :attr:`Message.effective_key`)."""
    return "p%d-p%d" % (sender, receiver)


@dataclass(frozen=True)
class Message:
    """A user-level message with ordering-relevant attributes.

    Parameters
    ----------
    id:
        Unique identifier within a run.
    sender:
        Index of the sending process.
    receiver:
        Index of the receiving process.
    color:
        Optional colour tag used by marker/flush specifications
        (for example ``"red"`` for the red marker message).
    group:
        Optional broadcast-group id: the copies of one logical multicast
        share a group (the paper's §7 extension; see
        :mod:`repro.broadcast`).
    payload:
        Opaque application payload; never inspected by the theory.
    ordering_key:
        Optional explicit ordering key (the sharded runtime's unit of
        ordering, :mod:`repro.net.shard`).  When ``None`` the message's
        *effective* key defaults to its channel -- the sender-destination
        pair -- so unkeyed traffic degenerates to per-channel ordering.
    """

    id: MessageId
    sender: int
    receiver: int
    color: Optional[str] = None
    group: Optional[str] = None
    payload: Any = None
    ordering_key: Optional[str] = None

    def __post_init__(self) -> None:
        if self.sender < 0 or self.receiver < 0:
            raise ValueError(
                "process indices must be non-negative, got sender=%d receiver=%d"
                % (self.sender, self.receiver)
            )

    @property
    def channel(self) -> "tuple[int, int]":
        """The ordered channel ``(sender, receiver)`` this message travels on."""
        return (self.sender, self.receiver)

    @property
    def effective_key(self) -> str:
        """The ordering key this message is sequenced under.

        An explicit ``ordering_key`` wins; otherwise the key is derived
        from the channel (``"p<sender>-p<receiver>"``), which makes
        per-key ordering coincide with per-channel (FIFO) ordering for
        unkeyed traffic.
        """
        if self.ordering_key is not None:
            return self.ordering_key
        return channel_key(self.sender, self.receiver)

    def attribute(self, name: str) -> Any:
        """Look up a guard attribute by name.

        Supported names mirror the paper: ``sender`` (``process(x.s)``),
        ``receiver`` (``process(x.r)``) and ``color``; ``key`` exposes
        the sharded runtime's :attr:`effective_key`.
        """
        if name == "sender":
            return self.sender
        if name == "receiver":
            return self.receiver
        if name == "color":
            return self.color
        if name == "group":
            return self.group
        if name == "key":
            return self.effective_key
        raise KeyError("unknown message attribute %r" % (name,))


@dataclass
class MessageTable:
    """A mutable registry of the messages of a run, keyed by id."""

    _messages: Dict[MessageId, Message] = field(default_factory=dict)

    def add(self, message: Message) -> Message:
        if message.id in self._messages:
            raise ValueError("duplicate message id %r" % (message.id,))
        self._messages[message.id] = message
        return message

    def __getitem__(self, message_id: MessageId) -> Message:
        return self._messages[message_id]

    def __contains__(self, message_id: MessageId) -> bool:
        return message_id in self._messages

    def __iter__(self):
        return iter(sorted(self._messages))

    def __len__(self) -> int:
        return len(self._messages)

    def ids(self) -> "list[MessageId]":
        return sorted(self._messages)

    def messages(self) -> "list[Message]":
        return [self._messages[mid] for mid in self.ids()]
