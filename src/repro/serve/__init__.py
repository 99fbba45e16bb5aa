"""The serving engine: sharded filters behind one admission-controlled door.

Turns the durable, concurrency-safe filters of :mod:`repro.persist` and
the reliable transport of :mod:`repro.db` into a request-serving system:

- :mod:`repro.serve.router` — :class:`ShardedSBF`, hash-partitioned
  shards with deterministic assignment, per-shard error accounting,
  snapshot-consistent union-based resharding, a wire manifest, and
  :class:`RollingReshard`, live block-range migration to any shard count
  behind one routing topology;
- :mod:`repro.serve.batch` — :class:`ShardBatcher`, one lock acquisition
  per shard per batch plus vectorised multi-query/multi-insert paths;
- :mod:`repro.serve.engine` — :class:`ServingEngine`, bounded queues,
  typed :class:`Overloaded` admission control with pluggable shedding
  policies, and graceful drain/close that checkpoints durable shards;
- :mod:`repro.serve.metrics` — :class:`MetricsRegistry`, the one scrape
  surface (counters/gauges/latency buckets + attached
  :class:`~repro.db.transport.ChannelStats`);
- :mod:`repro.serve.remote` — :class:`RemoteShard` / :class:`ShardServer`,
  a shard served over :class:`~repro.db.transport.ReliableChannel` frames
  with :class:`~repro.db.transport.DeliveryFailed` degradation and
  partial-failure bulk operations (the shard-handle protocol's
  :class:`~repro.handle.BulkResult`);
- :mod:`repro.serve.procpool` — :class:`ProcessShardPool` /
  :class:`ProcessShard`, the GIL-escaping multi-process shard executor:
  one worker process per shard behind the same wire frames, with
  shared-memory counter segments, crash re-spawn, and pipelined
  fleet-wide bulk operations;
- :mod:`repro.serve.ha` — :class:`ReplicaSet`, quorum reads, hinted
  handoff (:class:`HintLog`), health tracking with ejection/re-admission,
  and :func:`replicated_fleet`;
- :mod:`repro.serve.resilience` — the gray-failure toolkit:
  :class:`Deadline` end-to-end time budgets (:func:`deadline_scope`),
  :class:`RetryBudget` token buckets, :class:`CircuitBreaker` with
  error-rate *and* latency-EWMA trips, and :class:`LatencyTracker`
  percentile windows driving hedged quorum reads;
- :mod:`repro.serve.repair` — anti-entropy: checksum-scan replica counter
  vectors and converge them bit-identically (:func:`repair_replicas`).
"""

from repro.handle import BulkFailure, BulkResult
from repro.serve.batch import ShardBatcher
from repro.serve.engine import (
    ACCEPT,
    REJECT,
    SHED_OLDEST,
    Overloaded,
    ServingEngine,
    reject_new,
    run_requests,
    shed_oldest,
)
from repro.serve.ha import (
    ALL,
    ONE,
    QUORUM,
    HintLog,
    ReplicaSet,
    Unavailable,
    replicated_fleet,
    required_replicas,
)
from repro.serve.metrics import (
    ChannelStats,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ReplicaGauges,
)
from repro.serve.procpool import ProcessShard, ProcessShardPool
from repro.serve.remote import RemoteShard, RemoteShardError, ShardServer
from repro.serve.repair import (
    DEFAULT_REPAIR_BLOCKS,
    RepairReport,
    block_checksums,
    repair_replicas,
)
from repro.serve.resilience import (
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    LatencyTracker,
    RetryBudget,
    current_deadline,
    deadline_scope,
)
from repro.serve.router import MANIFEST_MAGIC, RollingReshard, ShardedSBF

__all__ = [
    "ShardBatcher",
    "ACCEPT",
    "REJECT",
    "SHED_OLDEST",
    "Overloaded",
    "ServingEngine",
    "reject_new",
    "run_requests",
    "shed_oldest",
    "ALL",
    "ONE",
    "QUORUM",
    "HintLog",
    "ReplicaSet",
    "Unavailable",
    "replicated_fleet",
    "required_replicas",
    "ChannelStats",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ReplicaGauges",
    "ProcessShard",
    "ProcessShardPool",
    "BulkFailure",
    "BulkResult",
    "RemoteShard",
    "RemoteShardError",
    "ShardServer",
    "DEFAULT_REPAIR_BLOCKS",
    "RepairReport",
    "block_checksums",
    "repair_replicas",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "LatencyTracker",
    "RetryBudget",
    "current_deadline",
    "deadline_scope",
    "MANIFEST_MAGIC",
    "RollingReshard",
    "ShardedSBF",
]
