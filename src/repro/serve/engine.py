"""The serving front end: bounded queues, admission control, graceful drain.

:class:`ServingEngine` is what a request stream actually talks to.  It
accepts point operations, holds them in a bounded queue, and a pump —
either the caller's thread (:meth:`pump` / :meth:`drain`, fully
deterministic, what the tests use) or a background worker
(:meth:`start`) — coalesces them into batches for the
:class:`~repro.serve.batch.ShardBatcher`.

**Completions.**  :meth:`submit` returns the queued request itself, a
slotted completion with the ``Future`` surface callers use (see
:class:`_Request`).  The pump resolves and meters a whole batch at once:
one wake-up of blocked callers and one registry-lock hold per histogram.

**Admission control.**  A serving system protects itself at the *front*
door: once the queue is past its bound, new work is refused with a typed
:class:`Overloaded` (so clients can back off — the serving-side analogue
of the transport's :class:`~repro.db.transport.DeliveryFailed` budget)
rather than queued into unbounded latency.  The decision is a pluggable
policy: :func:`reject_new` (default — refuse arrivals at the bound) or
:func:`shed_oldest` (admit the arrival, fail the *oldest* queued request,
bounding staleness instead of arrival rate); any callable with the same
signature slots in.

**End-to-end deadlines.**  :meth:`submit` takes a ``timeout`` (or a
pre-built :class:`~repro.serve.resilience.Deadline`) covering the whole
request lifetime: queueing, batching, shard/replica work, transport
retries.  The pump fails already-expired requests without executing
them, and the batcher carries the deadline down the stack via
:func:`~repro.serve.resilience.deadline_scope` so every layer stops
working the moment the caller stops waiting.

**Graceful shutdown.**  :meth:`close` stops the worker, drains every
queued request, checkpoints and closes every shard (durable shards run
their WAL/snapshot dance), and fails anything submitted afterwards — an
engine never drops acknowledged work on the floor.

Latency accounting uses the injected clock from the metrics registry
(:mod:`repro.serve.metrics`), so tests measure queueing behaviour with a
fake clock and zero flakiness.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from concurrent import futures
from typing import Callable, Sequence

from repro.core.sbf import COUNT_ERRORS, check_count, check_threshold
from repro.handle import POINT_VERBS
from repro.serve.batch import ShardBatcher
from repro.serve.metrics import MetricsRegistry
from repro.serve.resilience import Deadline, DeadlineExceeded
from repro.serve.router import ShardedSBF

#: admission decisions a policy may return
ACCEPT = "accept"
REJECT = "reject"
SHED_OLDEST = "shed-oldest"


class Overloaded(RuntimeError):
    """The engine refused work to protect its latency bound.

    Attributes:
        depth: queue depth at the moment of refusal.
        limit: the configured queue bound.
    """

    def __init__(self, message: str, depth: int, limit: int):
        super().__init__(message)
        self.depth = depth
        self.limit = limit


def reject_new(depth: int, limit: int, op: tuple) -> str:
    """Default policy: refuse arrivals once the queue is at its bound."""
    return ACCEPT if depth < limit else REJECT


def shed_oldest(depth: int, limit: int, op: tuple) -> str:
    """Load-shedding policy: at the bound, admit the arrival and fail the
    oldest queued request instead (bounds staleness, not arrival rate)."""
    return ACCEPT if depth < limit else SHED_OLDEST


#: a request's outcome before the pump resolves it
_PENDING = object()

#: where a raising done-callback is logged, as ``Future`` logs it
_LOGGER = logging.getLogger("concurrent.futures")


class _Request:
    """One queued request, and the completion :meth:`ServingEngine.submit`
    returns for it.

    It answers what callers ask of a :class:`concurrent.futures.Future`
    (:meth:`done`, :meth:`result`, :meth:`exception`,
    :meth:`add_done_callback`), but it is not one: it has no ``cancel``
    and does not work with ``concurrent.futures.wait`` or
    ``as_completed``.  It holds no lock of its own: the engine resolves
    it with the rest of its batch under the engine's one condition, and
    a resolved request answers without taking any lock.
    """

    __slots__ = ("op", "enqueued_at", "deadline", "_outcome", "_callbacks",
                 "_resolved")

    def __init__(self, op: tuple, enqueued_at: float,
                 deadline: Deadline | None, resolved: threading.Condition):
        self.op = op
        self.enqueued_at = enqueued_at
        self.deadline = deadline
        #: the result, or the exception instance that failed the request
        self._outcome = _PENDING
        self._callbacks: list | None = None
        self._resolved = resolved

    def done(self) -> bool:
        return self._outcome is not _PENDING

    def result(self, timeout: float | None = None):
        """The op's result, waiting up to *timeout* seconds (forever when
        ``None``) for its batch.

        Raises:
            Exception: the one that failed the request.
            concurrent.futures.TimeoutError: still pending at *timeout*.
        """
        outcome = self._outcome
        if outcome is _PENDING:
            outcome = self._wait(timeout)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def exception(self, timeout: float | None = None):
        """The exception that failed the request, or ``None``; waits as
        :meth:`result` does."""
        outcome = self._outcome
        if outcome is _PENDING:
            outcome = self._wait(timeout)
        return outcome if isinstance(outcome, BaseException) else None

    def add_done_callback(self, fn: Callable[["_Request"], object]) -> None:
        """Call ``fn(request)`` once it resolves — at once if it has.  A
        callback that raises is logged and stops nothing else."""
        with self._resolved:
            if self._outcome is _PENDING:
                if self._callbacks is None:
                    self._callbacks = [fn]
                else:
                    self._callbacks.append(fn)
                return
        self._call(fn)

    def _wait(self, timeout: float | None):
        with self._resolved:
            if not self._resolved.wait_for(self.done, timeout):
                raise futures.TimeoutError(
                    f"{self.op[0]} still pending after {timeout}s")
            return self._outcome

    def _call(self, fn: Callable[["_Request"], object]) -> None:
        try:
            fn(self)
        except Exception:
            _LOGGER.exception("exception calling callback for %r", self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self._outcome is _PENDING else "done"
        return f"<request {self.op!r} {state}>"


class ServingEngine:
    """Admission-controlled, batching front end over a sharded fleet.

    Args:
        router: the :class:`~repro.serve.router.ShardedSBF` to serve.
        max_queue: queue-depth bound enforced by the admission policy.
        batch_size: most requests one pump round coalesces into a batch.
        policy: admission policy callable ``(depth, limit, op) -> str``
            returning :data:`ACCEPT`, :data:`REJECT`, or
            :data:`SHED_OLDEST`; defaults to :func:`reject_new`.
        maintenance_every: run :meth:`maintain` once per this many pump
            rounds (including idle rounds, so an idle fleet still probes
            ejected replicas back in).  HA fleets want this; for other
            shards ``tick`` is the protocol's no-op default.
        metrics: registry to report through (defaults to the router's).
    """

    def __init__(self, router: ShardedSBF, *, max_queue: int = 1024,
                 batch_size: int = 64,
                 policy: Callable[[int, int, tuple], str] | None = None,
                 maintenance_every: int = 64,
                 metrics: MetricsRegistry | None = None):
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if maintenance_every < 1:
            raise ValueError(
                f"maintenance_every must be >= 1, got {maintenance_every}")
        self.router = router
        self.metrics = metrics = metrics or router.metrics
        self.batcher = ShardBatcher(router, metrics=metrics)
        # Bound once: a lookup by name takes the registry-wide lock.
        self._accepted = metrics.counter("engine.accepted")
        self._rejected = metrics.counter("engine.rejected_total")
        self._shed = metrics.counter("engine.shed_total")
        self._expired = metrics.counter("engine.deadline_expired_total")
        self._failed = metrics.counter("engine.failed")
        self._served = metrics.counter("engine.served")
        self._maintenance = metrics.counter("engine.maintenance_rounds")
        self._depth = metrics.gauge("engine.queue_depth")
        self._queue_wait = metrics.histogram("engine.queue_wait_seconds")
        self._batch_seconds = metrics.histogram("engine.batch_seconds")
        self._latency = metrics.histogram("engine.latency_seconds")
        self.max_queue = int(max_queue)
        self.batch_size = int(batch_size)
        self.policy = policy or reject_new
        self._queue: deque[_Request] = deque()
        self._lock = threading.Lock()
        #: every request's waiters block on this one condition; the pump
        #: notifies it once per batch it resolves
        self._resolved = threading.Condition(threading.Lock())
        self._closed = False
        self._worker: threading.Thread | None = None
        self._stop = threading.Event()
        self.maintenance_every = int(maintenance_every)
        self._pumps_since_maintenance = 0

    # -- the front door ----------------------------------------------------
    def submit(self, verb: str, key: object, *args,
               timeout: float | None = None,
               deadline: Deadline | None = None) -> _Request:
        """Enqueue one operation; returns its completion (see
        :class:`_Request`).

        *timeout* (seconds on the registry clock) or an explicit
        *deadline* bounds the request end to end: the whole of queueing,
        batching, shard/replica work, and transport retries must fit the
        one budget.  A request whose deadline passes while it is still
        queued is failed with :class:`DeadlineExceeded` *without being
        executed* — the caller stopped waiting, so running it would only
        burn shard time (counted in ``engine.deadline_expired_total``).

        Raises:
            ValueError: the op is malformed — *verb* is not one of
                :data:`~repro.handle.POINT_VERBS`, more than one argument
                follows *key*, or the count or threshold breaks the
                core's count rule (:func:`~repro.core.sbf.check_count`).
                Refused before it is queued or counted, as a remote
                shard refuses it on the wire.
            Overloaded: refused by the admission policy (typed, carries
                depth/limit so clients can back off informedly).
            RuntimeError: the engine is closed.
        """
        if not isinstance(verb, str) or verb not in POINT_VERBS \
                or len(args) > 1:
            raise ValueError(
                f"submit takes (verb, key[, count_or_threshold]) with a "
                f"verb of {sorted(POINT_VERBS)}, got {(verb, key, *args)!r}")
        if args and verb != "query":
            try:
                args = ((check_threshold if verb == "contains"
                         else check_count)(args[0]),)
            except COUNT_ERRORS as exc:
                raise ValueError(
                    f"{exc} in {(verb, key, *args)!r}") from exc
        if timeout is not None:
            if deadline is not None:
                raise ValueError("pass timeout or deadline, not both")
            deadline = Deadline(timeout, clock=self.metrics.clock,
                                label=f"{verb} {key!r}")
        op = (verb, key, *args)
        shed: _Request | None = None
        with self._lock:
            if self._closed:
                raise RuntimeError("engine is closed")
            depth = len(self._queue)
            decision = self.policy(depth, self.max_queue, op)
            if decision == REJECT:
                self._rejected.inc()
                raise Overloaded(
                    f"queue depth {depth} at bound {self.max_queue}; "
                    f"{verb} refused", depth, self.max_queue)
            if decision == SHED_OLDEST and self._queue:
                shed = self._queue.popleft()
            elif decision not in (ACCEPT, SHED_OLDEST):
                raise ValueError(
                    f"admission policy returned {decision!r}; expected "
                    f"one of {ACCEPT!r}, {REJECT!r}, {SHED_OLDEST!r}")
            request = _Request(op, self.metrics.clock(), deadline,
                               self._resolved)
            self._queue.append(request)
            self._depth.set(len(self._queue))
        if shed is not None:
            if shed.deadline is not None and shed.deadline.expired:
                # The victim was already dead on arrival of the shed: its
                # caller stopped waiting while it queued.  That is one
                # event, counted once — a deadline expiry, not a shed
                # (the queue slot was free either way), surfacing as one
                # typed DeadlineExceeded with the unexecuted guarantee.
                self._expired.inc()
                self._failed.inc()
                error: Exception = DeadlineExceeded(
                    f"{shed.op[0]} expired while queued (evicted by a "
                    f"newer arrival)", unexecuted=True)
            else:
                self._shed.inc()
                error = Overloaded(
                    f"shed after {self.max_queue} newer arrivals",
                    self.max_queue, self.max_queue)
            self._resolve([shed], [error])
        self._accepted.inc()
        return request

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    # -- the pump ----------------------------------------------------------
    def pump(self, max_ops: int | None = None) -> int:
        """Process up to one batch of queued requests; returns how many.

        Deterministic single-threaded entry point: callers (and tests)
        interleave submits and pumps however they like.
        """
        budget = self.batch_size if max_ops is None else min(
            max_ops, self.batch_size)
        self._pumps_since_maintenance += 1
        if self._pumps_since_maintenance >= self.maintenance_every:
            self.maintain()
        with self._lock:
            popped = [self._queue.popleft()
                      for _ in range(min(budget, len(self._queue)))]
            self._depth.set(len(self._queue))
        if not popped:
            return 0
        clock = self.metrics.clock
        now = clock()
        self._queue_wait.observe_many([now - r.enqueued_at for r in popped])
        batch: list[_Request] = []
        expired: list[_Request] = []
        for request in popped:
            if request.deadline is not None and request.deadline.expired:
                expired.append(request)
            else:
                batch.append(request)
        failed = 0
        if expired:
            # The callers stopped waiting while these queued; executing
            # them now would burn shard time on answers nobody reads.
            self._expired.inc(len(expired))
            failed = self._resolve(expired, [DeadlineExceeded(
                f"{r.op[0]} expired after queueing "
                f"{now - r.enqueued_at:.4f}s", unexecuted=True)
                for r in expired])
        if batch:
            start = clock()
            try:
                results = self.batcher.execute(
                    [r.op for r in batch],
                    deadlines=[r.deadline for r in batch])
            except Exception as exc:
                # Every popped request must resolve: fail the whole batch
                # rather than strand its requests or kill the worker.
                results = [exc] * len(batch)
            done = clock()
            self._batch_seconds.observe(done - start)
            self._latency.observe_many([done - r.enqueued_at for r in batch])
            failed += self._resolve(batch, results)
            self._served.inc(len(batch))
        if failed:
            self._failed.inc(failed)
        return len(popped)

    def _resolve(self, requests: list[_Request], outcomes) -> int:
        """Resolve each request with its outcome — a result, or the
        exception that failed it: the one way a request completes.

        Every outcome is set and every blocked waiter woken under one hold
        of the engine's condition; the done-callbacks run after, outside
        it.  Returns how many of the requests failed.
        """
        failed = 0
        resolved = self._resolved
        with resolved:
            for request, outcome in zip(requests, outcomes):
                request._outcome = outcome
                if isinstance(outcome, BaseException):
                    failed += 1
            resolved.notify_all()
        for request in requests:
            if request._callbacks is not None:
                for fn in request._callbacks:
                    request._call(fn)
        return failed

    def maintain(self) -> int:
        """Run one maintenance round: tick every shard.

        For :class:`~repro.serve.ha.ReplicaSet` shards a tick probes
        ejected replicas (draining their hint logs on recovery) — the
        engine calling this on a cadence is what makes replica
        re-admission happen without a request ever touching the down
        replica.  Returns the number of shards ticked.
        """
        self._pumps_since_maintenance = 0
        shards = self.router.shards
        for shard in shards:
            shard.tick()
        self._maintenance.inc()
        return len(shards)

    def drain(self) -> int:
        """Pump until the queue is empty; returns total requests served."""
        total = 0
        while True:
            served = self.pump()
            if not served:
                return total
            total += served

    # -- background serving ------------------------------------------------
    def start(self) -> None:
        """Serve from a background worker until :meth:`stop` / :meth:`close`
        (an idle worker polls the queue every millisecond)."""
        if self._worker is not None and self._worker.is_alive():
            return
        self._stop.clear()

        def run() -> None:
            while not self._stop.is_set():
                if not self.pump():
                    time.sleep(0.001)

        self._worker = threading.Thread(target=run, daemon=True,
                                        name="serving-engine")
        self._worker.start()

    def stop(self) -> None:
        """Stop the background worker (queued requests stay queued)."""
        self._stop.set()
        if self._worker is not None:
            self._worker.join(timeout=30)
            self._worker = None

    # -- graceful shutdown -------------------------------------------------
    def close(self) -> dict:
        """Drain, checkpoint and close every shard, and seal the front door.

        A replica set checkpoints its replicas and closes its hint logs
        (an undrained hint survives on disk and replays when the set is
        rebuilt).  Every shard is closed even when a checkpoint or a close
        fails; the first such error is raised once all are closed.
        Returns a small report: requests drained and shards whose
        ``checkpoint()`` produced a cut.  Safe to call twice.
        """
        with self._lock:
            already = self._closed
            self._closed = True
        self.stop()
        drained = self.drain()
        checkpointed = 0
        if not already:
            errors = []
            for shard in self.router.shards:
                try:
                    if shard.checkpoint() is not None:
                        checkpointed += 1
                except Exception as exc:
                    errors.append(exc)
                try:
                    shard.close()
                except Exception as exc:
                    errors.append(exc)
            self.metrics.counter("engine.closed").inc()
            if errors:
                raise errors[0]
        return {"drained": drained, "checkpointed": checkpointed}

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ServingEngine(shards={len(self.router.shards)}, "
                f"queue={self.queue_depth}/{self.max_queue}, "
                f"batch={self.batch_size})")


def run_requests(engine: ServingEngine, ops: Sequence[tuple],
                 ) -> list:
    """Submit *ops* and pump to completion; results in submission order.

    Convenience for scripted workloads (benchmarks, examples): failures
    come back as exception instances in their slots, mirroring
    :meth:`ShardBatcher.execute` — an op :meth:`ServingEngine.submit`
    refuses (overload, a malformed op) included.
    """
    requests = []
    for op in ops:
        try:
            requests.append(engine.submit(*op))
        except (Overloaded, ValueError) as exc:
            refused = _Request(tuple(op), engine.metrics.clock(), None,
                               engine._resolved)
            engine._resolve([refused], [exc])
            requests.append(refused)
            if isinstance(exc, Overloaded):
                engine.pump()
    engine.drain()
    results = []
    for request in requests:
        exc = request.exception()
        results.append(exc if exc is not None else request.result())
    return results
