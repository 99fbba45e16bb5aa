"""Request batching: one lock acquisition per shard per batch.

The naive serving path pays, per operation, a canonical-key hash, a
shard-lock acquire/release, ``k`` Python-level hash evaluations, and a
metrics update.  Under a query stream those fixed costs dominate the
actual counter work.  :class:`ShardBatcher` amortises them:

- **coalescing** — a batch of point operations is grouped by owner shard;
  each shard's group runs inside a single
  :meth:`~repro.handle.ShardHandle.exclusive` section, so the locking
  cost is paid once per shard per batch instead of once per operation;
- **vectorised multi-query / multi-insert** — homogeneous batches call
  each shard's bulk verbs (``insert_many`` / ``query_many``), which hash
  the whole group in one numpy pass and drive the method's bulk kernels
  — every method, every backend, every key type, bit-identical to the
  scalar path by construction.  Durable shards log one ``insert_many``
  WAL record per shard group; remote shards ship it in chunked frames;
  ``query_many`` takes the read side of the shard's lock, so concurrent
  bulk readers overlap;
- **isolation of failures** — a failing operation (e.g. a delete that
  would drive a counter negative, or a remote shard whose channel gave
  up) is captured *in its result slot* as the exception instance; the
  rest of the batch still executes.  Bulk verbs report per-key failures
  in their :class:`~repro.handle.BulkResult`, which the batcher maps
  back onto submission-order slots.  The engine maps these onto the
  per-request futures.

Results are always returned in submission order, regardless of how the
batch was partitioned across shards.

While the router reports :attr:`~ShardedSBF.migrating` (a rolling
reshard), shard grouping is unsound (ownership moves between the grouping
and the lock, and dual-routed writes must hit both fleets), so every
batch falls back to the router's per-operation path, which carries the
migration's flag-flip protocol.  Slower, correct, and temporary by
construction.
"""

from __future__ import annotations

from typing import Sequence

from repro.handle import BulkFailure, BulkResult
from repro.persist import LockTimeout
from repro.serve.metrics import MetricsRegistry
from repro.serve.remote import _retryable
from repro.serve.resilience import DeadlineExceeded, deadline_scope

#: operation verbs accepted by :meth:`ShardBatcher.execute`
VERBS = frozenset({"insert", "delete", "set", "query", "contains"})


class ShardBatcher:
    """Batch executor over a :class:`~repro.serve.router.ShardedSBF`.

    Args:
        router: the sharded fleet to execute against.
        metrics: registry to report through (defaults to the router's).
    """

    def __init__(self, router, *,
                 metrics: MetricsRegistry | None = None):
        self.router = router
        self.metrics = metrics or router.metrics

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
        entries mean unbounded).  Each op runs inside its own
        :func:`~repro.serve.resilience.deadline_scope`, so deadline-aware
        shard handles (replica sets, remote shards) stop retrying when
        that op's caller stops waiting; an op already expired when its
        turn comes is failed in its slot without touching the shard.
        A shard group whose lock acquisition fails (:class:`LockTimeout`)
        fails its slots instead of felling the whole batch.
        """
        results: list = [None] * len(ops)
        for idx, op in enumerate(ops):
            if not op or op[0] not in VERBS:
                raise ValueError(f"op {idx} must start with one of "
                                 f"{sorted(VERBS)}, got {op!r}")
        if deadlines is None:
            deadlines = [None] * len(ops)
        elif len(deadlines) != len(ops):
            raise ValueError(
                f"deadlines must parallel ops: {len(deadlines)} deadlines "
                f"for {len(ops)} ops")
        if self.router.migrating:
            for idx, op in enumerate(ops):
                try:
                    with deadline_scope(deadlines[idx]):
                        results[idx] = _apply(self.router, op)
                except Exception as exc:
                    results[idx] = exc
            self.metrics.counter("batch.ops").inc(len(ops))
            self.metrics.counter("batch.migrating_fallback").inc(len(ops))
            return results
        by_shard: dict[int, list[int]] = {}
        owners = self.router.shard_of_many([op[1] for op in ops])
        for idx, owner in enumerate(owners):
            deadline = deadlines[idx]
            if deadline is not None and deadline.expired:
                # Fail it here rather than dragging its group's lock
                # timeout to zero: the expired op never reaches a shard,
                # its shard-mates keep their time budget.
                try:
                    deadline.check(ops[idx][0], unexecuted=True)
                except DeadlineExceeded as exc:
                    results[idx] = exc
                continue
            by_shard.setdefault(owner, []).append(idx)
        for shard_id in sorted(by_shard):
            group = by_shard[shard_id]
            shard = self.router.shards[shard_id]
            # The group's lock wait must fit the tightest member deadline:
            # a caller with 5ms left cannot spend 5s queueing for a lock.
            lock_timeout = timeout
            for idx in group:
                if deadlines[idx] is not None:
                    left = max(deadlines[idx].remaining(), 0.0)
                    lock_timeout = left if lock_timeout is None \
                        else min(lock_timeout, left)
            try:
                with shard.exclusive(lock_timeout) as raw:
                    for idx in group:
                        try:
                            deadline = deadlines[idx]
                            if deadline is not None:
                                deadline.check(ops[idx][0],
                                               unexecuted=True)
                            with deadline_scope(deadline):
                                results[idx] = _apply(raw, ops[idx])
                        except Exception as exc:
                            results[idx] = exc
            except (LockTimeout, DeadlineExceeded) as exc:
                for idx in group:
                    results[idx] = exc
                continue
            self.router.note_shard_ops(shard_id, len(group))
        self.metrics.counter("batch.ops").inc(len(ops))
        self.metrics.counter("batch.shard_batches").inc(len(by_shard))
        self.metrics.histogram("batch.size", (1, 4, 16, 64, 256, 1024)
                               ).observe(len(ops))
        return results

    # -- vectorised homogeneous batches -----------------------------------
    def query_many(self, keys: Sequence[object], *,
                   timeout: float | None = None, deadline=None) -> list:
        """Frequency estimates for *keys*, in order, through each shard's
        ``query_many``.  A key that could not be answered — its shard's
        bulk result failed the slot, or the whole group failed — gets the
        exception *instance* in its slot, mirroring :meth:`execute`.
        *deadline* bounds the whole bulk call — it is scoped around each
        shard group so deadline-aware handles stop mid-batch, and raises
        :class:`~repro.serve.resilience.DeadlineExceeded` if it expires
        before the batch is done."""
        if deadline is not None:
            deadline.check("query_many")
        results: list = [0] * len(keys)
        if self.router.migrating:
            for slot, key in enumerate(keys):
                try:
                    results[slot] = self.router.query(key)
                except Exception as exc:
                    results[slot] = exc
            self.metrics.counter("batch.ops").inc(len(keys))
            self.metrics.counter("batch.migrating_fallback").inc(len(keys))
            return results
        for shard_id, shard, indices in self._grouped(keys):
            if deadline is not None:
                deadline.check("query_many")
            try:
                with deadline_scope(deadline):
                    outcome = shard.query_many([keys[i] for i in indices],
                                               timeout=timeout).tolist()
            except Exception as exc:
                outcome = [exc] * len(indices)
            else:
                self.metrics.counter("batch.vectorized").inc(len(indices))
                self.router.note_shard_ops(shard_id, len(indices))
            for slot, estimate in zip(indices, outcome):
                results[slot] = estimate
        self.metrics.counter("batch.ops").inc(len(keys))
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
        timeout, channel give-up, the optional *deadline* expiring) fails
        its keys in their slots instead of felling the batch.
        """
        if deadline is not None:
            deadline.check("insert_many")
        failures: list[BulkFailure] = []
        if self.router.migrating:
            for slot, key in enumerate(keys):
                try:
                    self.router.insert(key, 1)
                except Exception as exc:
                    failures.append(
                        BulkFailure(slot, key, exc, _retryable(exc)))
            self.metrics.counter("batch.ops").inc(len(keys))
            self.metrics.counter("batch.migrating_fallback").inc(len(keys))
            return BulkResult(len(keys), failures=failures)
        for shard_id, shard, indices in self._grouped(keys):
            try:
                if deadline is not None:
                    deadline.check("insert_many")
                with deadline_scope(deadline):
                    outcome = shard.insert_many([keys[i] for i in indices],
                                                timeout=timeout)
            except Exception as exc:
                failures.extend(
                    BulkFailure(slot, keys[slot], exc, _retryable(exc))
                    for slot in indices)
                continue
            failures.extend(
                BulkFailure(indices[f.index], f.key, f.error, f.retryable)
                for f in outcome.failures)
            self.metrics.counter("batch.vectorized").inc(len(indices))
            self.router.note_shard_ops(shard_id, len(indices))
        self.metrics.counter("batch.ops").inc(len(keys))
        failures.sort(key=lambda f: f.index)
        return BulkResult(len(keys), failures=failures)

    # -- plumbing ----------------------------------------------------------
    def _grouped(self, keys: Sequence[object]):
        by_shard: dict[int, list[int]] = {}
        for idx, owner in enumerate(self.router.shard_of_many(keys)):
            by_shard.setdefault(owner, []).append(idx)
        self.metrics.counter("batch.shard_batches").inc(len(by_shard))
        for shard_id in sorted(by_shard):
            yield shard_id, self.router.shards[shard_id], by_shard[shard_id]


def _apply(handle, op: tuple):
    """Apply one op tuple through a handle's (or the router's) point
    verbs; returns the op's value (``None`` for mutations)."""
    verb, key = op[0], op[1]
    if verb == "query":
        return handle.query(key)
    if verb == "contains":
        return handle.contains(key, op[2] if len(op) > 2 else 1)
    if verb == "set" and len(op) < 3:
        raise ValueError(f"set op needs a count: {op!r}")
    getattr(handle, verb)(key, op[2] if len(op) > 2 else 1)
    return None
