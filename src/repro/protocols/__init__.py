"""Inhibitory protocol implementations, one per class of the paper.

=================  ==========  =====================================
Protocol           Class       Implements
=================  ==========  =====================================
TaglessProtocol    tagless     X_async (do nothing)
FifoProtocol       tagged      FIFO channels (sequence numbers)
CausalRstProtocol  tagged      causal ordering (Raynal-Schiper-Toueg)
CausalSesProtocol  tagged      causal ordering (Schiper-Eggli-Sandoz)
FlushChannelProtocol tagged    F-channel flush orderings
KWeakerCausalProtocol tagged   k-weaker causal ordering (§6)
SyncCoordinatorProtocol general logically synchronous (sequencer)
SyncRendezvousProtocol general  logically synchronous (rendezvous+retry)
GeneratedTaggedProtocol tagged any order-≤1 forbidden predicate
ReliableProtocol   general     ARQ sublayer restoring reliable FIFO
                               channels under any protocol above
=================  ==========  =====================================
"""

from repro.protocols.base import Protocol, make_factory
from repro.protocols.tagless import TaglessProtocol
from repro.protocols.fifo import FifoProtocol
from repro.protocols.causal_rst import CausalRstProtocol
from repro.protocols.causal_ses import CausalSesProtocol
from repro.protocols.flush import FlushChannelProtocol
from repro.protocols.k_weaker import KWeakerCausalProtocol
from repro.protocols.sync_coordinator import SyncCoordinatorProtocol
from repro.protocols.sync_rendezvous import SyncRendezvousProtocol
from repro.protocols.generated import GeneratedTaggedProtocol
from repro.protocols.reliable import ReliableProtocol, make_reliable
from repro.protocols.registry import (
    CatalogueEntry,
    cached_catalogue,
    catalogue,
    catalogue_entry,
    resolve,
)

__all__ = [
    "Protocol",
    "make_factory",
    "CatalogueEntry",
    "cached_catalogue",
    "catalogue",
    "catalogue_entry",
    "resolve",
    "TaglessProtocol",
    "FifoProtocol",
    "CausalRstProtocol",
    "CausalSesProtocol",
    "FlushChannelProtocol",
    "KWeakerCausalProtocol",
    "SyncCoordinatorProtocol",
    "SyncRendezvousProtocol",
    "GeneratedTaggedProtocol",
    "ReliableProtocol",
    "make_reliable",
]
