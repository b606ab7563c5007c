"""``repro.net.shard``: a multi-core net runtime sharded by ordering key.

The single-process net runtime (:mod:`repro.net.host`) tops out around
6.7k msgs/s because every message pays the full per-frame codec and
per-event host cost on one core.  This package partitions traffic by
**ordering key** (:attr:`repro.events.Message.effective_key`) onto
worker *processes*:

- :mod:`router <repro.net.shard.router>` -- seed-stable CRC-32 key
  placement (the same key always lands on the same shard);
- :mod:`lanes <repro.net.shard.lanes>` -- per-key O(1) live fifo/causal
  checkers and per-key latency stats (no state shared between keys:
  no cross-key head-of-line blocking);
- :mod:`worker <repro.net.shard.worker>` -- one OS process per shard,
  one asyncio loop, per-tick coalesced inline lane batches and
  shard-labelled metrics;
- :mod:`coordinator <repro.net.shard.coordinator>` -- spawns the fleet,
  runs it through :func:`~repro.net.cluster.drive_run` (the one arc and
  :class:`~repro.net.cluster.NetRunReport` of every cluster run), and
  owns the end-of-run **cross-key membership oracle** that arc calls for
  the specs that escalate to GENERAL across keys (cross-key causality,
  crown-freedom).

The split mirrors the paper's classification: per-key scoped fifo and
causal specs keep order-1 resolved cycles (TAGGED -- checkable locally
with bounded tags, hence live and O(1) inside one shard), while their
cross-key liftings contain 2-crowns (GENERAL -- need global knowledge,
hence the coordinator's merged end-of-run oracle).  See
``tests/test_shard_classification.py`` for the decision-procedure runs
behind that table.
"""

from repro.net.shard.coordinator import (
    ShardCoordinator,
    cross_key_oracle,
    run_sharded,
    run_sharded_sync,
)
from repro.net.shard.lanes import (
    CausalLaneChecker,
    FifoLaneChecker,
    KeyStats,
    LaneViolation,
    lane_checker,
)
from repro.net.shard.router import ShardRouter, shard_for_key
from repro.net.shard.worker import (
    ShardWorker,
    ShardWorkerConfig,
    spawn_worker,
    worker_main,
)

__all__ = [
    "CausalLaneChecker",
    "FifoLaneChecker",
    "KeyStats",
    "LaneViolation",
    "ShardCoordinator",
    "ShardRouter",
    "ShardWorker",
    "ShardWorkerConfig",
    "cross_key_oracle",
    "lane_checker",
    "run_sharded",
    "run_sharded_sync",
    "shard_for_key",
    "spawn_worker",
    "worker_main",
]
