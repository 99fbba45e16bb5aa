"""Multi-process shard executor: one worker process per shard.

CPython serialises compute on the GIL, so an in-process fleet only ever
uses one core no matter how many shards it has.  :class:`ProcessShardPool`
moves each shard's filter into its own worker process and keeps the
existing serving surface in front of it:

- the pool is a transport for the remote-shard protocol: every frame on
  a worker pipe is a request (``RSQ1``) or response (``RSP1``) of a plain
  :class:`~repro.serve.remote.ShardServer`, which each worker runs.  Each
  pool shard *is* a :class:`~repro.serve.remote.RemoteShard` whose
  endpoint is a worker pipe, so its traffic rides the channel legs:
  ``BulkResult`` partial failure, typed error mapping, deadline-aware
  retries and :class:`~repro.db.faults.FaultyNetwork` chaos apply;
- a :class:`~repro.serve.router.ShardedSBF` over the pool's shards
  (exposed as :attr:`ProcessShardPool.router`) routes bit-identically to
  an in-process fleet — same blocked family, same ``block_of % n``
  assignment — so answers match the single-process oracle exactly;
- :meth:`ProcessShardPool.insert_many` / :meth:`~ProcessShardPool.query_many`
  are the *pipelined* bulk paths: one request per owner shard (built as
  ``RemoteShard`` builds its own) is written to every worker pipe before
  any response is read, so workers compute concurrently (this is what
  makes throughput scale with cores, where a per-shard round-trip loop
  would still serialise on the parent).  These requests, and the
  snapshot requests below, go straight down the pipes, never through a
  channel: ``FaultyNetwork`` chaos does not reach them.

A worker's first frame is an ``RSP1`` ``{"ok": true}``; the parent shuts
it down with one empty message (never a sealed frame) and joins it.
Closing the parent's pipe end would not do: a forked worker inherits a
copy and never sees end-of-file.  A closed pool refuses all traffic with
``RuntimeError("process pool is closed")``.

Worker state and crash recovery:

- **shared-memory counters** (``backend="numpy"``, methods ``ms``/``mi``):
  the worker's primary counter array is a ``uint64`` view over a
  :class:`multiprocessing.shared_memory.SharedMemory` segment owned by
  the parent, with the filter's ``total_count`` mirrored into the
  segment header after every request, before its response is sent
  (uint64 counters never widen, so the view stays valid for the
  worker's lifetime).  A killed worker loses *nothing*: the replacement
  attaches the same segment and resumes from the exact counters the
  dead worker last acknowledged;
- **snapshot fallback** (any other method/backend — e.g. Recurring
  Minimum, whose secondary filter and marker bits cannot live in one
  flat segment): the parent keeps the latest
  :func:`~repro.core.serialize.dump_sbf` frame (a ``checkpoint``
  request's answer), refreshed after every mutation while
  :attr:`ProcessShardPool.auto_snapshot` is on (the default), and passes
  it in the replacement worker's spawn spec, which builds its filter
  from it.  A mutation is acknowledged only once that refresh lands: a
  worker that dies between answering and the refresh fails the
  mutation with a retryable ``DeliveryFailed``, since its respawn
  restores the state before it.

Either way an operation in flight when the worker dies surfaces as a
typed, *retryable* :class:`~repro.db.transport.DeliveryFailed` — never a
wrong answer — and the pool re-spawns the worker on its next use,
counting ``engine.worker.<i>.restarts``.

Per-worker health is visible in the shared metrics registry:
``engine.worker.<i>.requests`` / ``failures`` / ``restarts`` counters
and an ``engine.worker.<i>.up`` gauge.
"""

from __future__ import annotations

import struct
import threading
from multiprocessing import get_all_start_methods, get_context, shared_memory
from typing import Sequence

import numpy as np

from repro.core.sbf import SpectralBloomFilter
from repro.core.serialize import load_sbf, open_frame, seal_frame
from repro.db.site import Network
from repro.db.transport import DeliveryFailed
from repro.handle import BulkFailure, BulkResult
from repro.hashing.families import make_family
from repro.serve.metrics import MetricsRegistry
from repro.serve.remote import (REQUEST_MAGIC, RESPONSE_MAGIC, RemoteShard,
                                ShardServer, _answer, _bulk_batch,
                                _bulk_request, _retryable)
from repro.serve.router import ShardedSBF, _check_blocked

#: shared-memory segment layout: int64 total_count, then the counters
_SHM_HEADER = 8

#: methods whose full shard state is the counter vector + total_count —
#: with the numpy backend it lives in shared memory for zero-loss respawn
_SHM_ELIGIBLE_METHODS = ("ms", "mi")

#: request ops after which the parent-held snapshot is stale (an
#: ``execute`` frame counts when one of its entries names a mutation)
_MUTATING_OPS = frozenset({"insert", "delete", "set", "insert_many",
                           "delete_many", "writeblocks"})


def _shm_eligible(spec: dict) -> bool:
    return (spec["backend"] == "numpy"
            and spec["method"] in _SHM_ELIGIBLE_METHODS
            and not spec["method_options"])


def _build_filter(spec: dict, shm) -> SpectralBloomFilter:
    """Build a worker's filter, attaching the shared segment if present,
    else from the parent-held snapshot the spec carries, if any."""
    if shm is None:
        if spec["snapshot"] is not None:
            return load_sbf(spec["snapshot"])
        return SpectralBloomFilter(
            spec["m"], spec["k"], seed=spec["seed"], method=spec["method"],
            hash_family=spec["hash_family"], backend=spec["backend"],
            backend_options=spec["backend_options"] or None,
            method_options=spec["method_options"] or None)
    from repro.storage.backends import NumpyBackend
    backend = NumpyBackend(spec["m"], dtype=np.uint64)
    view = np.ndarray((spec["m"],), dtype=np.uint64, buffer=shm.buf,
                      offset=_SHM_HEADER)
    if spec["fresh"]:
        view[:] = 0
        shm.buf[:_SHM_HEADER] = struct.pack("<q", 0)
    backend._counts = view
    sbf = SpectralBloomFilter(
        spec["m"], spec["k"], seed=spec["seed"], method=spec["method"],
        hash_family=spec["hash_family"], backend=backend,
        method_options=spec["method_options"] or None)
    if not spec["fresh"]:
        sbf.total_count = struct.unpack("<q", bytes(shm.buf[:_SHM_HEADER]))[0]
    return sbf


def _worker_main(conn, spec: dict) -> None:
    """Worker process entry point: serve until the empty shutdown message."""
    shm = None
    if spec.get("shm_name"):
        shm = shared_memory.SharedMemory(name=spec["shm_name"])
    try:
        server = ShardServer(_build_filter(spec, shm))
        conn.send_bytes(seal_frame(RESPONSE_MAGIC, {"ok": True}))
        for frame in iter(conn.recv_bytes, b""):
            response = server.handle_frame(frame)
            if shm is not None:
                shm.buf[:_SHM_HEADER] = struct.pack(
                    "<q", server.handle.total_count)
            conn.send_bytes(response)
    except (KeyboardInterrupt, EOFError, OSError):
        pass  # parent teardown — nobody left to report to
    finally:
        if shm is not None:
            shm.close()
        conn.close()


class _PipeEndpoint:
    """Parent-side transport endpoint: ``handle_frame`` over a worker pipe.

    Slots into :class:`RemoteShard` where the in-process
    :class:`ShardServer` normally sits, so the whole client stack —
    channels, retries, bulk chunking, typed error mapping — is reused
    verbatim.  A broken pipe (the worker died) surfaces as a retryable
    :class:`DeliveryFailed` and flags the worker for re-spawn.
    """

    __slots__ = ("_pool", "_index")

    def __init__(self, pool: "ProcessShardPool", index: int):
        self._pool = pool
        self._index = index

    def handle_frame(self, frame: bytes) -> bytes:
        return self._pool._roundtrip(self._index, frame)


class ProcessShard(RemoteShard):
    """One pool shard: the full RemoteShard surface over a worker process."""

    def __init__(self, pool: "ProcessShardPool", index: int, **kwargs):
        super().__init__(_PipeEndpoint(pool, index), **kwargs)
        self._pool = pool
        self._index = index

    def _call(self, op: str, payload: bytes = b"", **fields):
        result = super()._call(op, payload, **fields)
        if op in _MUTATING_OPS or op == "execute" and any(
                entry[0] in _MUTATING_OPS for entry in fields["ops"]):
            self._pool._note_mutation(self._index)
        return result

    def checkpoint(self):
        """Refresh the parent-held snapshot.  (Shared-memory shards need
        none — the parent's segment *is* the live state.)"""
        self._pool.snapshot_shard(self._index)
        return None


class _Worker:
    """Parent-side book-keeping for one worker process."""

    __slots__ = ("process", "conn", "lock", "alive", "shm", "snapshot")

    def __init__(self):
        self.process = None
        self.conn = None
        self.lock = threading.Lock()
        self.alive = False
        self.shm = None
        self.snapshot = None


class ProcessShardPool:
    """A fleet of single-shard worker processes behind the shard surface.

    Args:
        n_workers: shard/worker count.
        m, k, seed, method, backend, hash_family, backend_options,
            method_options: per-shard filter parameters — every worker
            builds the same geometry, exactly like
            :meth:`ShardedSBF.create`.  *hash_family* must be a name
            (workers rebuild the family from the picklable spec) of a
            blocked family: a fleet routes by block, and any other is
            refused before a worker process starts.
        network: transmission substrate for the traffic frames —
            defaults to a clean :class:`~repro.db.site.Network`; pass a
            :class:`~repro.db.faults.FaultyNetwork` for chaos testing.
        auto_snapshot: keep the parent-held snapshot fresh after every
            acknowledged mutation on shards whose state is *not* in
            shared memory (shared-memory shards never need it).  Turn
            off to trade respawn fidelity for mutation latency.
        auto_revive: re-spawn a dead worker automatically on its next
            use (the default).  Turn off when an external supervisor
            owns restarts: a dead worker's operations then keep failing
            with typed retryable :class:`DeliveryFailed` until
            :meth:`revive_worker` is called.
        metrics: shared registry; per-worker series appear under
            ``engine.worker.<i>.*``.
        channel_options / bulk_chunk: forwarded to each
            :class:`ProcessShard`'s channel legs.

    The pool is a context manager; :meth:`close` drains and joins every
    worker and releases the shared-memory segments.  :attr:`router` is a
    ready-made :class:`ShardedSBF` over the pool's shards for point
    traffic and engine wiring; the pool's own ``*_many`` methods are the
    pipelined bulk paths.
    """

    def __init__(self, n_workers: int, m: int, k: int, *, seed: int = 0,
                 method: str = "ms", backend: str = "numpy",
                 hash_family: str = "blocked",
                 backend_options: dict | None = None,
                 method_options: dict | None = None,
                 network: Network | None = None,
                 auto_snapshot: bool = True,
                 auto_revive: bool = True,
                 metrics: MetricsRegistry | None = None,
                 channel_options: dict | None = None,
                 bulk_chunk: int | None = None):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if not isinstance(hash_family, str):
            raise ValueError(
                "ProcessShardPool needs a hash-family *name* (workers "
                f"rebuild it from the picklable spec), got {hash_family!r}")
        # The routing brain: identical shard assignment to an in-process
        # fleet over the same family (explicit, because a process fleet
        # has no local filter for the router to introspect).
        self.family = make_family(hash_family, int(m), int(k),
                                  seed=int(seed))
        _check_blocked(self.family)
        self._ctx = get_context(
            "fork" if "fork" in get_all_start_methods() else "spawn")
        self.metrics = metrics or MetricsRegistry()
        self.network = network or Network()
        self.auto_snapshot = bool(auto_snapshot)
        self.auto_revive = bool(auto_revive)
        self._spec = {
            "m": int(m), "k": int(k), "seed": int(seed),
            "method": str(method), "backend": str(backend),
            "hash_family": hash_family,
            "backend_options": dict(backend_options or {}),
            "method_options": dict(method_options or {}),
        }
        self._workers = [_Worker() for _ in range(n_workers)]
        self._closed = False
        self.shards: list[ProcessShard] = []
        shard_kwargs = {"network": self.network, "metrics": self.metrics,
                        "client": "pool",
                        "channel_options": channel_options}
        if bulk_chunk is not None:
            shard_kwargs["bulk_chunk"] = bulk_chunk
        try:
            for i in range(n_workers):
                self._spawn(i, fresh=True)
                self.shards.append(ProcessShard(
                    self, i, server_name=f"worker-{i}", **shard_kwargs))
        except BaseException:
            self.close()
            raise
        self.router = ShardedSBF(self.shards, family=self.family,
                                 metrics=self.metrics)

    # -- lifecycle ---------------------------------------------------------
    def _spawn(self, index: int, *, fresh: bool) -> None:
        worker = self._workers[index]
        spec = dict(self._spec, fresh=fresh, snapshot=worker.snapshot)
        if _shm_eligible(self._spec):
            if worker.shm is None:
                worker.shm = shared_memory.SharedMemory(
                    create=True, size=_SHM_HEADER + 8 * self._spec["m"])
            spec["shm_name"] = worker.shm.name
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn, spec),
            name=f"sbf-shard-{index}", daemon=True)
        process.start()
        child_conn.close()
        worker.process = process
        worker.conn = parent_conn
        # Spawn handshake: the worker acks once its filter is built, so a
        # bad spec fails the constructor instead of the first request.
        open_frame(parent_conn.recv_bytes(), RESPONSE_MAGIC)
        worker.alive = True
        self.metrics.gauge(f"engine.worker.{index}.up").set(1)

    def _revive(self, index: int, *, force: bool = False) -> None:
        """Re-spawn a dead worker from the shared segment or the parent-held
        snapshot (caller holds the worker lock)."""
        worker = self._workers[index]
        if worker.alive or self._closed or not (self.auto_revive or force):
            return
        if worker.process is not None:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():  # pragma: no cover - defensive
                worker.process.terminate()
                worker.process.join(timeout=2.0)
        if worker.conn is not None:
            worker.conn.close()
        self._spawn(index, fresh=False)
        self.metrics.counter(f"engine.worker.{index}.restarts").inc()

    def close(self) -> None:
        """Graceful drain: shut every worker down, join, release memory.

        Each worker pipe is strictly request/response under its lock, so
        once the lock is held there is no in-flight work to wait for: the
        worker gets the empty shutdown message and is joined (see the
        module docstring).  Safe to call twice; later traffic is refused.
        """
        self._closed = True
        for index, worker in enumerate(self._workers):
            with worker.lock:
                if worker.alive and worker.process.is_alive():
                    try:
                        worker.conn.send_bytes(b"")
                    except OSError:  # pragma: no cover
                        pass
                worker.alive = False
                if worker.process is not None:
                    worker.process.join(timeout=2.0)
                    if worker.process.is_alive():  # pragma: no cover
                        worker.process.terminate()
                        worker.process.join(timeout=2.0)
                    worker.process = None
                if worker.conn is not None:
                    worker.conn.close()
                    worker.conn = None
                if worker.shm is not None:
                    worker.shm.close()
                    try:
                        worker.shm.unlink()
                    except FileNotFoundError:  # pragma: no cover
                        pass
                    worker.shm = None
                self.metrics.gauge(f"engine.worker.{index}.up").set(0)

    def __enter__(self) -> "ProcessShardPool":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- the pipe ----------------------------------------------------------
    def _delivery_failed(self, index: int, message: str) -> DeliveryFailed:
        """A typed delivery failure carrying the shard's request-channel
        stats (the same object a channel give-up would attach)."""
        return DeliveryFailed(message, self.shards[index].requests.stats)

    def _send_with_revive(self, index: int, frame: bytes) -> None:
        """Write and count one request to worker *index* (lock held).

        A *send* failure means the request never reached the worker, so
        one revive + resend is safe — no operation can double-apply.
        (Failures after the send are the caller's to surface: the worker
        may have applied the operation before dying.)
        """
        self.metrics.counter(f"engine.worker.{index}.requests").inc()
        worker = self._workers[index]
        for attempt in (0, 1):
            if not worker.alive:
                self._revive(index)
            try:
                worker.conn.send_bytes(frame)
                return
            except (OSError, EOFError, BrokenPipeError) as exc:
                self._mark_dead(index)
                if attempt:
                    raise self._delivery_failed(
                        index, f"worker {index} died before accepting the "
                        f"request: {type(exc).__name__}") from exc

    def _roundtrip(self, index: int, frame: bytes) -> bytes:
        """One traffic frame to worker *index* (reviving it if needed)."""
        worker = self._workers[index]
        with worker.lock:
            if self._closed:
                raise RuntimeError("process pool is closed")
            self._send_with_revive(index, frame)
            try:
                return worker.conn.recv_bytes()
            except (OSError, EOFError) as exc:
                self._mark_dead(index)
                raise self._delivery_failed(
                    index, f"worker {index} died mid-request: "
                    f"{type(exc).__name__}") from exc

    def _mark_dead(self, index: int) -> None:
        worker = self._workers[index]
        worker.alive = False
        self.metrics.counter(f"engine.worker.{index}.failures").inc()
        self.metrics.gauge(f"engine.worker.{index}.up").set(0)

    # -- snapshots ---------------------------------------------------------
    def _note_mutation(self, index: int) -> None:
        """Refresh the snapshot a respawn restores.  A failed pull raises
        its retryable :class:`DeliveryFailed`: the mutation the snapshot
        lacks must not be acknowledged (see the module docstring)."""
        if self._workers[index].shm is None and self.auto_snapshot:
            self.snapshot_shard(index)

    def snapshot_shard(self, index: int) -> None:
        """Pull a fresh state snapshot from worker *index* (no-op for
        shared-memory shards, whose live state the parent already owns).
        The ``checkpoint`` request skips the channel legs, so a faulted
        data plane cannot starve the snapshot a respawn needs."""
        worker = self._workers[index]
        if worker.shm is not None:
            return
        with worker.lock:
            if not worker.alive:
                return
            try:
                worker.conn.send_bytes(
                    seal_frame(REQUEST_MAGIC, {"op": "checkpoint"}))
                answer = worker.conn.recv_bytes()
            except (OSError, EOFError) as exc:
                self._mark_dead(index)
                raise self._delivery_failed(
                    index,
                    f"worker {index} died during snapshot") from exc
        worker.snapshot = _answer(self.shards[index].server_name, answer)

    # -- pipelined bulk ----------------------------------------------------
    def insert_many(self, keys: Sequence[object],
                    counts: Sequence[int] | None = None) -> BulkResult:
        """Pipelined fleet-wide bulk insert (see module docstring)."""
        return self._pipelined("insert_many", keys, counts)

    def delete_many(self, keys: Sequence[object],
                    counts: Sequence[int] | None = None) -> BulkResult:
        return self._pipelined("delete_many", keys, counts)

    def query_many(self, keys: Sequence[object]) -> BulkResult:
        """Pipelined fleet-wide bulk query; ``values`` in key order."""
        return self._pipelined("query_many", keys, None)

    def _pipelined(self, op: str, keys: Sequence[object],
                   counts: Sequence[int] | None) -> BulkResult:
        if self._closed:
            raise RuntimeError("process pool is closed")
        keys, counts, valid, failures = _bulk_batch(keys, counts)
        is_query = op == "query_many"
        values = np.zeros(len(keys), dtype=np.int64) if is_query else None
        owners = self.router.shard_of_many([keys[i] for i in valid])
        groups: dict[int, list[int]] = {}
        for idx, owner in zip(valid, owners):
            groups.setdefault(owner, []).append(idx)
        # Every frame is built before any is sent: a call that raises
        # must apply nothing and leave no answer unread on a pipe.
        frames = {}
        for owner, idxs in groups.items():
            fields, payload = _bulk_request(
                [keys[i] for i in idxs], None if is_query else counts[idxs])
            frames[owner] = seal_frame(REQUEST_MAGIC, {"op": op, **fields},
                                       payload)
        # Phase 1: one frame per owner shard, written to every worker
        # pipe before any response is read — the workers overlap their
        # compute.  `sent` tracks pipes with a frame in flight; their
        # locks stay held until phase 2 collects the response.
        sent: list[int] = []
        answers: dict[int, bytes] = {}
        try:
            for owner in sorted(groups):
                idxs = groups[owner]
                worker = self._workers[owner]
                worker.lock.acquire()
                try:
                    self._send_with_revive(owner, frames[owner])
                except Exception as exc:
                    worker.lock.release()
                    if not isinstance(exc, DeliveryFailed):
                        self._mark_dead(owner)
                        exc = self._delivery_failed(
                            owner, f"worker {owner} unavailable: "
                            f"{type(exc).__name__}: {exc}")
                    failures.extend(BulkFailure(i, keys[i], exc, True)
                                    for i in idxs)
                    continue
                sent.append(owner)
            # Phase 2: collect, in send order (each pipe is FIFO).
            for owner in list(sent):
                worker = self._workers[owner]
                try:
                    answers[owner] = worker.conn.recv_bytes()
                except (OSError, EOFError) as exc:
                    self._mark_dead(owner)
                    error = self._delivery_failed(
                        owner, f"worker {owner} died mid-batch: "
                        f"{type(exc).__name__}")
                    failures.extend(BulkFailure(i, keys[i], error, True)
                                    for i in groups[owner])
                finally:
                    worker.lock.release()
                    sent.remove(owner)
        finally:
            for owner in sent:  # pragma: no cover - unexpected error path
                self._workers[owner].lock.release()
        for owner, answer in answers.items():
            idxs = groups[owner]
            try:
                result = _answer(self.shards[owner].server_name, answer)
            except Exception as exc:
                failures.extend(BulkFailure(i, keys[i], exc, _retryable(exc))
                                for i in idxs)
                continue
            if is_query:
                values[idxs] = np.frombuffer(result, dtype="<i8")
                continue
            try:
                self._note_mutation(owner)
            except DeliveryFailed as exc:
                failures.extend(BulkFailure(i, keys[i], exc, True)
                                for i in idxs)
        failures.sort(key=lambda f: f.index)
        return BulkResult(len(keys), values, failures)

    # -- introspection -----------------------------------------------------
    @property
    def n_workers(self) -> int:
        return len(self._workers)

    @property
    def total_count(self) -> int:
        return self.router.total_count

    def worker_alive(self, index: int) -> bool:
        worker = self._workers[index]
        return bool(worker.alive and worker.process is not None
                    and worker.process.is_alive())

    def revive_worker(self, index: int) -> None:
        """Re-spawn worker *index* now (the supervisor hook that pairs
        with ``auto_revive=False``)."""
        with self._workers[index].lock:
            self._revive(index, force=True)

    def kill_worker(self, index: int) -> None:
        """Hard-kill worker *index* (chaos hook: SIGKILL, no cleanup —
        exactly what a crashed or OOM-killed worker looks like)."""
        worker = self._workers[index]
        if worker.process is not None and worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=5.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        up = sum(1 for i in range(self.n_workers) if self.worker_alive(i))
        return (f"ProcessShardPool(workers={self.n_workers}, up={up}, "
                f"method={self._spec['method']!r}, "
                f"backend={self._spec['backend']!r})")
