"""The serving front end: bounded queues, admission control, graceful drain.

:class:`ServingEngine` is what a request stream actually talks to.  It
accepts point operations (:meth:`submit` returns a future), holds them in
a bounded queue, and a pump — either the caller's thread
(:meth:`pump` / :meth:`drain`, fully deterministic, what the tests use)
or a background worker (:meth:`start`) — coalesces them into batches for
the :class:`~repro.serve.batch.ShardBatcher`.

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

import threading
import time
from collections import deque
from concurrent.futures import Future
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


class _Request:
    __slots__ = ("op", "future", "enqueued_at", "deadline")

    def __init__(self, op: tuple, enqueued_at: float,
                 deadline: Deadline | None = None):
        self.op = op
        self.future: Future = Future()
        self.enqueued_at = enqueued_at
        self.deadline = deadline


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
        self._closed = False
        self._worker: threading.Thread | None = None
        self._stop = threading.Event()
        self.maintenance_every = int(maintenance_every)
        self._pumps_since_maintenance = 0

    # -- the front door ----------------------------------------------------
    def submit(self, verb: str, key: object, *args,
               timeout: float | None = None,
               deadline: Deadline | None = None) -> Future:
        """Enqueue one operation; returns a future for its result.

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
            request = _Request(op, self.metrics.clock(), deadline)
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
                shed.future.set_exception(DeadlineExceeded(
                    f"{shed.op[0]} expired while queued (evicted by a "
                    f"newer arrival)", unexecuted=True))
            else:
                self._shed.inc()
                shed.future.set_exception(Overloaded(
                    f"shed after {self.max_queue} newer arrivals",
                    self.max_queue, self.max_queue))
        self._accepted.inc()
        return request.future

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
        batch: list[_Request] = []
        for request in popped:
            self._queue_wait.observe(now - request.enqueued_at)
            if request.deadline is not None and request.deadline.expired:
                # The caller stopped waiting while the request queued;
                # executing it now would burn shard time on an answer
                # nobody reads.
                self._expired.inc()
                self._failed.inc()
                request.future.set_exception(DeadlineExceeded(
                    f"{request.op[0]} expired after queueing "
                    f"{now - request.enqueued_at:.4f}s", unexecuted=True))
            else:
                batch.append(request)
        if not batch:
            return len(popped)
        start = clock()
        try:
            results = self.batcher.execute(
                [r.op for r in batch], deadlines=[r.deadline for r in batch])
        except Exception as exc:
            # Every popped request must resolve: fail the whole batch
            # rather than strand its futures or kill the worker thread.
            results = [exc] * len(batch)
        done = clock()
        self._batch_seconds.observe(done - start)
        for request, result in zip(batch, results):
            self._latency.observe(done - request.enqueued_at)
            if isinstance(result, BaseException):
                self._failed.inc()
                request.future.set_exception(result)
            else:
                request.future.set_result(result)
        self._served.inc(len(batch))
        return len(popped)

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
        rebuilt).  Returns a small report: requests drained and shards
        whose ``checkpoint()`` produced a cut.  Safe to call twice.
        """
        with self._lock:
            already = self._closed
            self._closed = True
        self.stop()
        drained = self.drain()
        checkpointed = 0
        if not already:
            for shard in self.router.shards:
                if shard.checkpoint() is not None:
                    checkpointed += 1
                shard.close()
            self.metrics.counter("engine.closed").inc()
        return {"drained": drained, "checkpointed": checkpointed}

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ServingEngine(shards={self.router.n_shards}, "
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
    futures = []
    for op in ops:
        try:
            futures.append(engine.submit(*op))
        except (Overloaded, ValueError) as exc:
            future: Future = Future()
            future.set_exception(exc)
            futures.append(future)
            if isinstance(exc, Overloaded):
                engine.pump()
    engine.drain()
    results = []
    for future in futures:
        exc = future.exception()
        results.append(exc if exc is not None else future.result())
    return results
