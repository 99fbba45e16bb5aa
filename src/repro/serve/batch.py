"""Request batching: one call per shard per batch.

The naive serving path pays, per operation, a canonical-key hash, a
shard-lock acquire/release, ``k`` Python-level hash evaluations, and a
metrics update.  Under a query stream those fixed costs dominate the
actual counter work.  :class:`ShardBatcher` amortises them:

- **coalescing** — a batch of point operations is grouped by owner shard
  and each shard's group is one
  :meth:`~repro.handle.ShardHandle.execute` call, so a shard's fixed cost
  per call is paid once per group: a concurrent shard takes its lock
  once, a durable shard fsyncs once (group commit), a remote or pool
  shard makes one round trip per ``bulk_chunk`` ops;
- **vectorised multi-query / multi-insert** — homogeneous batches call
  each shard's bulk verbs (``insert_many`` / ``query_many``), which hash
  the whole group in one numpy pass and drive the method's bulk kernels
  — every method, every backend, every key type, bit-identical to the
  scalar path by construction.  Durable shards log one ``insert_many``
  WAL record per shard group; remote shards ship it in chunked frames;
  ``query_many`` takes the read side of the shard's lock, so concurrent
  bulk readers overlap;
- **isolation of failures** — a failing operation (e.g. a delete that
  would drive a counter negative, a remote shard whose channel gave up,
  or a key the key rule refuses, which the owner pass routes nowhere)
  is captured *in its result slot* as the exception instance; the rest
  of the batch still executes.  Bulk verbs report per-key failures
  in their :class:`~repro.handle.BulkResult`, which the batcher maps
  back onto submission-order slots.  The engine maps these onto the
  per-request futures.

Results are always returned in submission order, regardless of how the
batch was partitioned across shards.

A rolling reshard changes none of this: until it commits, each old
shard's slot holds a handle that runs the group under that shard's lock
and replays its writes on their new owners
(:class:`~repro.serve.router.RollingReshard`), so a batch keeps its
groups, lock budget and deadline.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.handle import POINT_VERBS, BulkFailure, BulkResult
from repro.hashing.keys import key_batch
from repro.persist import LockTimeout
from repro.serve.metrics import MetricsRegistry
from repro.serve.remote import _retryable
from repro.serve.resilience import DeadlineExceeded, deadline_scope
from repro.serve.router import owner_pass


class ShardBatcher:
    """Batch executor over a :class:`~repro.serve.router.ShardedSBF`.

    Args:
        router: the sharded fleet to execute against.
        metrics: registry to report through (defaults to the router's).
    """

    def __init__(self, router, *,
                 metrics: MetricsRegistry | None = None):
        self.router = router
        self.metrics = metrics = metrics or router.metrics
        # Bound once: a lookup by name takes the registry-wide lock.
        self._ops = metrics.counter("batch.ops")
        self._shard_batches = metrics.counter("batch.shard_batches")
        self._vectorized = metrics.counter("batch.vectorized")
        self._size = metrics.histogram("batch.size",
                                       (1, 4, 16, 64, 256, 1024))

    # -- generic mixed batches --------------------------------------------
    def execute(self, ops: Sequence[tuple], *,
                timeout: float | None = None,
                deadlines: Sequence | None = None) -> list:
        """Run a batch of point operations; results in submission order.

        Each op is a tuple ``(verb, key[, count_or_threshold])`` with verb
        one of ``insert`` / ``delete`` / ``set`` / ``query`` /
        ``contains``.  Query-family ops produce their value in the result
        slot, mutations produce ``None``, and a failing op produces its
        exception *instance* (the batch continues — callers decide whether
        a slot failed with ``isinstance(result, Exception)``).

        *deadlines* is a parallel sequence of per-op
        :class:`~repro.serve.resilience.Deadline` objects (``None``
        entries mean unbounded).  An op already expired at grouping is
        failed in its slot without touching the shard; each shard group
        is one :meth:`~repro.handle.ShardHandle.execute` call carrying its
        members' deadlines, so deadline-aware shard handles (replica
        sets, remote shards) stop retrying when an op's caller stops
        waiting.  A shard group whose lock acquisition fails
        (:class:`LockTimeout`) fails its slots instead of felling the
        whole batch.
        """
        results: list = [None] * len(ops)
        for idx, op in enumerate(ops):
            if not op or op[0] not in POINT_VERBS:
                raise ValueError(f"op {idx} must start with one of "
                                 f"{sorted(POINT_VERBS)}, got {op!r}")
        if deadlines is None:
            deadlines = [None] * len(ops)
        elif len(deadlines) != len(ops):
            raise ValueError(
                f"deadlines must parallel ops: {len(deadlines)} deadlines "
                f"for {len(ops)} ops")
        shards, groups, unroutable = owner_pass(self.router,
                                                [op[1] for op in ops])
        for idx, exc in unroutable.items():
            results[idx] = exc
        live = []
        for shard_id, slots, _ in groups:
            group = []
            for idx in slots.tolist():
                deadline = deadlines[idx]
                if deadline is not None and deadline.expired:
                    # Fail it here rather than dragging its group's lock
                    # timeout to zero: the expired op never reaches a
                    # shard, its shard-mates keep their time budget.
                    try:
                        deadline.check(ops[idx][0], unexecuted=True)
                    except DeadlineExceeded as exc:
                        results[idx] = exc
                    continue
                group.append(idx)
            if group:
                live.append((shard_id, group))
        for shard_id, group in live:
            # The group's lock wait must fit the tightest member deadline:
            # a caller with 5ms left cannot spend 5s queueing for a lock.
            lock_timeout = timeout
            for idx in group:
                if deadlines[idx] is not None:
                    left = max(deadlines[idx].remaining(), 0.0)
                    lock_timeout = left if lock_timeout is None \
                        else min(lock_timeout, left)
            try:
                outcomes = shards[shard_id].execute(
                    [ops[idx] for idx in group],
                    [deadlines[idx] for idx in group], timeout=lock_timeout)
            except (LockTimeout, DeadlineExceeded) as exc:
                for idx in group:
                    results[idx] = exc
                continue
            for idx, outcome in zip(group, outcomes):
                results[idx] = outcome
            self.router.note_shard_ops(shard_id, len(group))
        self._ops.inc(len(ops))
        self._shard_batches.inc(len(live))
        self._size.observe(len(ops))
        return results

    # -- vectorised homogeneous batches -----------------------------------
    def query_many(self, keys: Sequence[object], *,
                   timeout: float | None = None, deadline=None) -> list:
        """Frequency estimates for *keys*, in order, through each shard's
        ``query_many``.  A key that could not be answered — the router
        could not route it, its shard's bulk result failed the slot, or
        the whole group failed — gets the exception *instance* in its
        slot, mirroring :meth:`execute`.  *deadline* bounds the whole
        bulk call — it is scoped around each shard group so
        deadline-aware handles stop mid-batch, and raises
        :class:`~repro.serve.resilience.DeadlineExceeded` (``unexecuted``,
        as it is checked before each group runs) if it expires before the
        batch is done."""
        keys = key_batch(keys)
        if deadline is not None:
            deadline.check("query_many", unexecuted=True)
        shards, groups, unroutable = owner_pass(self.router, keys)
        self._shard_batches.inc(len(groups))
        values = np.zeros(len(keys), dtype=np.int64)
        errors = list(unroutable.items())
        for shard_id, slots, group in groups:
            if deadline is not None:
                deadline.check("query_many", unexecuted=True)
            try:
                with deadline_scope(deadline):
                    outcome = shards[shard_id].query_many(group,
                                                          timeout=timeout)
            except Exception as exc:
                errors.extend((slot, exc) for slot in slots.tolist())
                continue
            values[slots] = outcome.values
            errors.extend((int(slots[f.index]), f.error)
                          for f in outcome.failures)
            self._vectorized.inc(len(slots))
            self.router.note_shard_ops(shard_id, len(slots))
        self._ops.inc(len(keys))
        results = values.tolist()
        for slot, exc in errors:
            results[slot] = exc
        return results

    def insert_many(self, keys: Sequence[object], *,
                    timeout: float | None = None,
                    deadline=None) -> BulkResult:
        """Insert every key once through each shard's ``insert_many``.

        For durable shards that is one WAL record (and one fsync) per
        shard group instead of one per key.  Returns a
        :class:`~repro.handle.BulkResult` over the whole batch: per-key
        failures reported by the shards' bulk results are re-indexed to
        submission order, and a shard group that fails outright (lock
        timeout, channel give-up, the optional *deadline* expiring before
        the group runs — ``unexecuted``) fails its keys in their slots
        instead of felling the batch.  A key the router cannot route
        fails its slot with a non-retryable failure.
        """
        keys = key_batch(keys)
        if deadline is not None:
            deadline.check("insert_many", unexecuted=True)
        shards, groups, unroutable = owner_pass(self.router, keys)
        self._shard_batches.inc(len(groups))
        failures = [BulkFailure(slot, keys[slot], exc, False)
                    for slot, exc in unroutable.items()]
        for shard_id, slots, group in groups:
            try:
                if deadline is not None:
                    deadline.check("insert_many", unexecuted=True)
                with deadline_scope(deadline):
                    outcome = shards[shard_id].insert_many(group,
                                                           timeout=timeout)
            except Exception as exc:
                failures.extend(
                    BulkFailure(slot, keys[slot], exc, _retryable(exc))
                    for slot in slots.tolist())
                continue
            # A shard names its failures by group position; the caller's
            # slot and key object are what the batch reports.
            for failure in outcome.failures:
                slot = int(slots[failure.index])
                failures.append(BulkFailure(slot, keys[slot], failure.error,
                                            failure.retryable))
            self._vectorized.inc(len(slots))
            self.router.note_shard_ops(shard_id, len(slots))
        self._ops.inc(len(keys))
        failures.sort(key=lambda f: f.index)
        return BulkResult(len(keys), failures=failures)
