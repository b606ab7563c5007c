"""The protocol catalogue: one authoritative name -> entry registry.

Every consumer that used to keep its own protocol table -- the model-checker
registry (:mod:`repro.mc.registry`), the ``repro compare`` CLI, the conformance
tests, and the net runtime (:mod:`repro.net`) -- resolves through
:func:`catalogue`, so adding a protocol means adding exactly one entry
here.

Each entry ties together the three things the paper associates with a
protocol: a factory for instances, the protocol *class* it belongs to
(tagless / tagged / general, §5), and the ordering specification it
implements.

:func:`resolve` is the one place a protocol *name* is given meaning: a
catalogue name, its ``reliable-`` variant (the same protocol under the
ARQ sublayer, same specification) or a ``broken-*`` mutation seed (held
to the specification of the protocol it breaks).  ``repro serve``,
``load`` and ``chaos``, the shard fleet, WAL replay and the model
checker all ask here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.protocols.base import Protocol, make_factory

#: The paper's protocol classes (§5): what machinery the implementation
#: is allowed to use.
TAGLESS = "tagless"
TAGGED = "tagged"
GENERAL = "general"

#: ``reliable-<name>`` is ``<name>`` under :mod:`repro.protocols.reliable`.
RELIABLE_PREFIX = "reliable-"

#: The ordering-key lanes of :mod:`repro.net.shard.lanes`, by the name
#: of the specification each one checks per key in O(1).
_SHARD_LANE_KINDS = {"fifo": "fifo", "causal-ordering": "causal"}

#: The mutation seeds of :mod:`repro.mc.mutations`: the catalogue
#: protocol each one breaks (it keeps that protocol's class and is held
#: to its specification -- that is the point of seeding it) and the
#: shard lane that implements the same breakage, if one does.
_MUTATIONS = {
    "broken-fifo": ("fifo", "broken-fifo"),
    "broken-causal-rst": ("causal-rst", None),
}


@dataclass(frozen=True)
class CatalogueEntry:
    """One catalogued protocol: how to build it and what it claims."""

    name: str
    factory: Callable[[int, int], Protocol]
    protocol_class: str
    spec: "object"  # repro.predicates.spec.Specification
    uses_control_messages: bool  # general protocols pay in control traffic
    #: Kind of the shard lane that checks :attr:`spec` per ordering key
    #: (``repro serve --shards``); ``None`` when no lane can.
    shard_lane: Optional[str] = None

    def reliable_factory(self, **arq_params) -> Callable[[int, int], Protocol]:
        """This protocol under the ARQ sublayer (for lossy transports)."""
        from repro.protocols.reliable import make_reliable

        return make_reliable(self.factory, **arq_params)

    def reliable(self) -> "CatalogueEntry":
        """This entry's ``reliable-`` variant (itself if it is one)."""
        if self.name.startswith(RELIABLE_PREFIX):
            return self
        return resolve(RELIABLE_PREFIX + self.name)


def catalogue() -> Dict[str, CatalogueEntry]:
    """The full name -> entry registry (a fresh dict per call)."""
    from repro.predicates.catalog import (
        ASYNC_ORDERING,
        CAUSAL_ORDERING,
        FIFO_ORDERING,
        LOGICALLY_SYNCHRONOUS,
        TWO_WAY_FLUSH,
        k_weaker_causal_spec,
    )
    from repro.protocols.causal_rst import CausalRstProtocol
    from repro.protocols.causal_ses import CausalSesProtocol
    from repro.protocols.fifo import FifoProtocol
    from repro.protocols.flush import FlushChannelProtocol
    from repro.protocols.k_weaker import KWeakerCausalProtocol
    from repro.protocols.sync_coordinator import SyncCoordinatorProtocol
    from repro.protocols.sync_rendezvous import SyncRendezvousProtocol
    from repro.protocols.tagless import TaglessProtocol

    rows: Tuple[Tuple[str, Callable, str, object, bool], ...] = (
        ("tagless", make_factory(TaglessProtocol), TAGLESS, ASYNC_ORDERING, False),
        ("fifo", make_factory(FifoProtocol), TAGGED, FIFO_ORDERING, False),
        ("flush", make_factory(FlushChannelProtocol), TAGGED, TWO_WAY_FLUSH, False),
        (
            "k-weaker(2)",
            make_factory(KWeakerCausalProtocol, 2),
            TAGGED,
            k_weaker_causal_spec(2),
            False,
        ),
        ("causal-rst", make_factory(CausalRstProtocol), TAGGED, CAUSAL_ORDERING, False),
        ("causal-ses", make_factory(CausalSesProtocol), TAGGED, CAUSAL_ORDERING, False),
        (
            "sync-coord",
            make_factory(SyncCoordinatorProtocol),
            GENERAL,
            LOGICALLY_SYNCHRONOUS,
            True,
        ),
        (
            "sync-rdv",
            make_factory(SyncRendezvousProtocol),
            GENERAL,
            LOGICALLY_SYNCHRONOUS,
            True,
        ),
    )
    return {
        name: CatalogueEntry(
            name=name,
            factory=factory,
            protocol_class=protocol_class,
            spec=spec,
            uses_control_messages=uses_control,
            shard_lane=_SHARD_LANE_KINDS.get(spec.name),
        )
        for name, factory, protocol_class, spec, uses_control in rows
    }


@lru_cache(maxsize=1)
def cached_catalogue() -> "Mapping[str, CatalogueEntry]":
    """The registry built once and shared, behind a read-only view.

    :func:`catalogue` rebuilds its dict (and re-imports the spec
    catalog) on every call, which the CLI used to do several times per
    subcommand.  Entries are immutable, so one shared mapping is safe;
    the proxy keeps a careless consumer from mutating the shared copy.
    """
    return MappingProxyType(catalogue())


def catalogue_entry(name: str) -> CatalogueEntry:
    """One entry by name, with a helpful error on a miss."""
    entries = cached_catalogue()
    if name not in entries:
        raise KeyError(
            "unknown catalogue protocol %r; available: %s"
            % (name, ", ".join(sorted(entries)))
        )
    return entries[name]


def resolvable_names() -> List[str]:
    """Every name :func:`resolve` understands, sorted."""
    base = list(cached_catalogue()) + list(_MUTATIONS)
    return sorted(base + [RELIABLE_PREFIX + name for name in base])


@lru_cache(maxsize=None)
def resolve(name: str, **arq_params: Any) -> CatalogueEntry:
    """What a protocol name means: how to build it, and what it claims.

    A ``reliable-`` name is its base entry under the ARQ sublayer --
    default parameters unless ``arq_params`` says otherwise (the model
    checker's finite-tree caps) -- with the same specification: the
    sublayer restores the channel, it does not change the claim.  Its
    acks are control packets.
    """
    reliable = name.startswith(RELIABLE_PREFIX)
    base = name[len(RELIABLE_PREFIX) :] if reliable else name
    if base in _MUTATIONS:
        from repro.mc.mutations import mutation_factories

        breaks, lane = _MUTATIONS[base]
        entry = replace(
            catalogue_entry(breaks),
            name=base,
            factory=mutation_factories()[base],
            shard_lane=lane,
        )
    elif base in cached_catalogue():
        entry = cached_catalogue()[base]
    else:
        raise KeyError(
            "unknown protocol %r; available: %s"
            % (name, ", ".join(resolvable_names()))
        )
    if reliable:
        entry = replace(
            entry,
            name=name,
            factory=entry.reliable_factory(**arq_params),
            uses_control_messages=True,
        )
    return entry
