"""Multicast extension (the paper's §7: "the results in this paper can be
extended to incorporate multicast messages").

A logical broadcast is modelled as a *group* of unicast copies sharing
``Message.group``.  This package provides:

- grouped workload generators,
- broadcast orderings: causal broadcast (still the unicast causal
  predicate) and total-order / atomic broadcast (a *grouped* forbidden
  predicate plus a direct polynomial checker),
- protocols: Birman-Schiper-Stephenson causal broadcast (tagged) and a
  fixed-sequencer total-order broadcast (general -- control messages,
  exactly as the characterization predicts, since a logically
  synchronous run is always totally ordered and total order fails for
  merely causal runs).

Grouped predicates go through ``repro.classify`` like any other: the
predicate graph gives the group-equal variables of one broadcast one
vertex (they share a send), and a cycle also breaks where two sites'
deliveries of one broadcast meet.  ``repro.protocol_for`` answers a
grouped general predicate with the sequencer.
"""

from repro.broadcast.orderings import ATOMIC_BROADCAST, TOTAL_ORDER_VIOLATION
from repro.broadcast.checkers import (
    broadcast_groups,
    check_agreement,
    check_total_order,
    delivery_order_at,
    total_order_cross_check,
)
from repro.broadcast.protocols import (
    CausalBroadcastProtocol,
    CausalMulticastProtocol,
    FifoBroadcastProtocol,
    SequencerBroadcastProtocol,
)
from repro.broadcast.workloads import group_broadcasts, random_multicasts

__all__ = [
    "ATOMIC_BROADCAST",
    "TOTAL_ORDER_VIOLATION",
    "broadcast_groups",
    "delivery_order_at",
    "check_total_order",
    "check_agreement",
    "total_order_cross_check",
    "CausalBroadcastProtocol",
    "CausalMulticastProtocol",
    "FifoBroadcastProtocol",
    "SequencerBroadcastProtocol",
    "group_broadcasts",
    "random_multicasts",
]
