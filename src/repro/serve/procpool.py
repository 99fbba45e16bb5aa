"""Multi-process shard executor: one worker process per shard.

CPython serialises compute on the GIL, so an in-process fleet only ever
uses one core no matter how many shards it has.  :class:`ProcessShardPool`
moves each shard's filter into its own worker process and keeps the
existing serving surface in front of it:

- every traffic operation travels as the same checksummed
  :func:`~repro.core.serialize.seal_frame` request/response frames a
  :class:`~repro.serve.remote.RemoteShard` uses — in fact each pool shard
  *is* a ``RemoteShard`` whose transport endpoint is a worker pipe, so
  chunked bulk ops, :class:`~repro.serve.remote.BulkResult` partial
  failure, typed error mapping, deadline-aware channel legs and
  :class:`~repro.db.faults.FaultyNetwork` chaos all apply unchanged;
- a :class:`~repro.serve.router.ShardedSBF` over the pool's shards
  (exposed as :attr:`ProcessShardPool.router`) routes bit-identically to
  an in-process fleet — same blocked family, same ``block_of % n``
  assignment — so answers match the single-process oracle exactly;
- :meth:`ProcessShardPool.insert_many` / :meth:`~ProcessShardPool.query_many`
  are the *pipelined* bulk paths: one frame per owner shard is written to
  every worker pipe before any response is read, so workers compute
  concurrently (this is what makes throughput scale with cores, where a
  per-shard round-trip loop would still serialise on the parent);
  integer keys ride a binary fast path (little-endian int64 arrays in
  the frame payload) instead of JSON lists.

Worker state and crash recovery:

- **shared-memory counters** (``backend="numpy"``, methods ``ms``/``mi``):
  the worker's primary counter array is a ``uint64`` view over a
  :class:`multiprocessing.shared_memory.SharedMemory` segment owned by
  the parent, with the filter's ``total_count`` mirrored into the
  segment header after every request (uint64 counters never widen, so
  the view stays valid for the worker's lifetime).  A killed worker
  loses *nothing*: the replacement attaches the same segment and resumes
  from the exact counters the dead worker last acknowledged;
- **snapshot fallback** (any other method/backend — e.g. Recurring
  Minimum, whose secondary filter and marker bits cannot live in one
  flat segment): the parent keeps the latest
  :func:`~repro.core.serialize.dump_sbf` frame, refreshed after every
  acknowledged mutation while :attr:`ProcessShardPool.auto_snapshot` is
  on (the default), and restores the replacement worker from it.

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
from repro.core.serialize import (WireFormatError, load_sbf, open_frame,
                                  seal_frame)
from repro.db.site import Network
from repro.db.transport import DeliveryFailed
from repro.handle import BulkFailure, BulkResult, FilterHandle
from repro.hashing.families import make_family
from repro.persist.wal import SCALAR_KEY_TYPES
from repro.serve.metrics import MetricsRegistry
from repro.serve.remote import (REQUEST_MAGIC, RESPONSE_MAGIC, RemoteShard,
                                ShardServer, _remote_error)
from repro.serve.router import ShardedSBF, _check_blocked

#: pool-administration frames (spawn handshake/snapshot/restore/shutdown)
#: — parent internals that never ride the simulated network
ADMIN_MAGIC = b"RPA1"
ADMIN_RESPONSE_MAGIC = b"RPB1"

#: shared-memory segment layout: int64 total_count, then the counters
_SHM_HEADER = 8

#: methods whose full shard state is the counter vector + total_count —
#: with the numpy backend it lives in shared memory for zero-loss respawn
_SHM_ELIGIBLE_METHODS = ("ms", "mi")

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1

#: request ops after which the parent-held snapshot is stale (an
#: ``execute`` frame counts when one of its entries names a mutation)
_MUTATING_OPS = frozenset({"insert", "delete", "set", "insert_many",
                           "delete_many", "writeblocks"})


def _shm_eligible(spec: dict) -> bool:
    return (spec["backend"] == "numpy"
            and spec["method"] in _SHM_ELIGIBLE_METHODS
            and not spec["method_options"])


def _build_filter(spec: dict, shm) -> SpectralBloomFilter:
    """Build a worker's filter, attaching the shared segment if present."""
    if shm is None:
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


class PoolShardServer(ShardServer):
    """Shard server with the pool's frame extensions.

    Adds the binary bulk fast path (``meta["bin"]``: key/count batches as
    little-endian int64 arrays in the frame payload instead of JSON lists
    — the pipelined pool bulk uses it for integer keys) and binary
    ``query_many`` responses.  Everything else — verbs, error envelopes,
    validation — is the plain :class:`~repro.serve.remote.ShardServer`
    contract, so pool workers stay wire-compatible with every
    :class:`RemoteShard` client.
    """

    def __init__(self, handle):
        super().__init__(handle)
        self._payload = b""
        self._response_payload = b""

    def handle_frame(self, frame: bytes) -> bytes:
        try:
            meta, self._payload = open_frame(frame, REQUEST_MAGIC)
            self._response_payload = b""
            result = self._dispatch(meta)
        except Exception as exc:
            self.requests_failed += 1
            return seal_frame(RESPONSE_MAGIC,
                              {"ok": False, "kind": type(exc).__name__,
                               "error": str(exc)})
        self.requests_served += 1
        return seal_frame(RESPONSE_MAGIC, {"ok": True, "result": result},
                          self._response_payload)

    def _dispatch_bulk(self, op: str, meta: dict):
        n = meta.get("bin")
        if n is None:
            return super()._dispatch_bulk(op, meta)
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise WireFormatError(f"bin must be a count >= 0, got {n!r}")
        width = 8 * n
        expect = width if op == "query_many" else 2 * width
        if len(self._payload) != expect:
            raise WireFormatError(
                f"binary bulk payload is {len(self._payload)} bytes, "
                f"expected {expect} for {n} key(s)")
        keys = np.frombuffer(self._payload[:width], dtype="<i8")
        if op == "query_many":
            values = self.handle.query_many(keys).raise_first().values
            self._response_payload = values.astype("<i8").tobytes()
            return "bin"
        counts = np.frombuffer(self._payload[width:], dtype="<i8")
        if counts.size and int(counts.min()) < 0:
            raise WireFormatError(
                f"bulk op {op!r} needs counts >= 0, got {int(counts.min())}")
        getattr(self.handle, op)(keys, counts).raise_first()
        return n


def _worker_admin(server: PoolShardServer, frame: bytes,
                  ) -> tuple[bool, bytes]:
    """Handle one admin frame; returns ``(shutdown?, response frame)``."""
    try:
        meta, payload = open_frame(frame, ADMIN_MAGIC)
        op = meta.get("op")
        if op == "shutdown":
            return True, seal_frame(ADMIN_RESPONSE_MAGIC, {"ok": True})
        if op == "ping":
            return False, seal_frame(ADMIN_RESPONSE_MAGIC, {"ok": True})
        if op == "snapshot":
            return False, seal_frame(ADMIN_RESPONSE_MAGIC, {"ok": True},
                                     server.handle.checkpoint())
        if op == "restore":
            server.handle = FilterHandle(load_sbf(payload))
            return False, seal_frame(ADMIN_RESPONSE_MAGIC, {"ok": True})
        raise WireFormatError(f"unknown pool admin op {op!r}")
    except Exception as exc:
        return False, seal_frame(
            ADMIN_RESPONSE_MAGIC,
            {"ok": False, "kind": type(exc).__name__, "error": str(exc)})


def _worker_main(conn, spec: dict) -> None:
    """Worker process entry point: serve frames until told to shut down."""
    shm = None
    if spec.get("shm_name"):
        shm = shared_memory.SharedMemory(name=spec["shm_name"])
    try:
        server = PoolShardServer(_build_filter(spec, shm))
        conn.send_bytes(seal_frame(ADMIN_RESPONSE_MAGIC, {"ok": True}))
        while True:
            try:
                frame = conn.recv_bytes()
            except EOFError:
                break
            if frame[:4] == ADMIN_MAGIC:
                done, response = _worker_admin(server, frame)
                conn.send_bytes(response)
                if done:
                    break
                continue
            conn.send_bytes(server.handle_frame(frame))
            if shm is not None:
                shm.buf[:_SHM_HEADER] = struct.pack(
                    "<q", server.handle.total_count)
    except (KeyboardInterrupt, BrokenPipeError, OSError):
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

    def _call(self, op: str, **fields):
        result = super()._call(op, **fields)
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
        spec = dict(self._spec)
        spec["fresh"] = fresh
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
        meta, _ = open_frame(parent_conn.recv_bytes(), ADMIN_RESPONSE_MAGIC)
        if not meta.get("ok"):  # pragma: no cover - defensive
            raise RuntimeError(f"worker {index} failed to start: {meta}")
        worker.alive = True
        self.metrics.gauge(f"engine.worker.{index}.up").set(1)

    def _revive(self, index: int, *, force: bool = False) -> None:
        """Re-spawn a dead worker and restore its state (caller holds the
        worker lock)."""
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
        if worker.shm is None and worker.snapshot is not None:
            meta, _ = self._admin(index, {"op": "restore"}, worker.snapshot)
            if not meta.get("ok"):  # pragma: no cover - defensive
                raise RuntimeError(f"worker {index} failed to restore: "
                                   f"{meta}")
        self.metrics.counter(f"engine.worker.{index}.restarts").inc()

    def close(self) -> None:
        """Graceful drain: shut every worker down, join, release memory.

        Each worker pipe is strictly request/response under its lock, so
        once the lock is held there is no in-flight work to wait for —
        shutdown is sent, acknowledged, and the process joined.  Safe to
        call twice.
        """
        self._closed = True
        for index, worker in enumerate(self._workers):
            with worker.lock:
                if worker.alive and worker.process.is_alive():
                    try:
                        worker.conn.send_bytes(
                            seal_frame(ADMIN_MAGIC, {"op": "shutdown"}))
                        worker.conn.recv_bytes()
                    except (OSError, EOFError):  # pragma: no cover
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
        """Write one frame to worker *index* (caller holds the lock).

        A *send* failure means the request never reached the worker, so
        one revive + resend is safe — no operation can double-apply.
        (Failures after the send are the caller's to surface: the worker
        may have applied the operation before dying.)
        """
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
            self.metrics.counter(f"engine.worker.{index}.requests").inc()
            self._send_with_revive(index, frame)
            try:
                return worker.conn.recv_bytes()
            except (OSError, EOFError) as exc:
                self._mark_dead(index)
                raise self._delivery_failed(
                    index, f"worker {index} died mid-request: "
                    f"{type(exc).__name__}") from exc

    def _admin(self, index: int, meta: dict,
               payload: bytes = b"") -> tuple[dict, bytes]:
        """One admin round trip (caller holds the worker lock, or is the
        single-threaded spawn path)."""
        worker = self._workers[index]
        worker.conn.send_bytes(seal_frame(ADMIN_MAGIC, meta, payload))
        return open_frame(worker.conn.recv_bytes(), ADMIN_RESPONSE_MAGIC)

    def _mark_dead(self, index: int) -> None:
        worker = self._workers[index]
        worker.alive = False
        self.metrics.counter(f"engine.worker.{index}.failures").inc()
        self.metrics.gauge(f"engine.worker.{index}.up").set(0)

    # -- snapshots ---------------------------------------------------------
    def _note_mutation(self, index: int) -> None:
        if self._workers[index].shm is None and self.auto_snapshot:
            try:
                self.snapshot_shard(index)
            except DeliveryFailed:
                # The mutation itself was acknowledged; a worker dying
                # right after is the next operation's problem (metrics
                # already count the failure).
                pass

    def snapshot_shard(self, index: int) -> None:
        """Pull a fresh state snapshot from worker *index* (no-op for
        shared-memory shards, whose live state the parent already owns)."""
        worker = self._workers[index]
        if worker.shm is not None:
            return
        with worker.lock:
            if not worker.alive:
                return
            try:
                meta, payload = self._admin(index, {"op": "snapshot"})
            except (OSError, EOFError) as exc:
                self._mark_dead(index)
                raise self._delivery_failed(
                    index,
                    f"worker {index} died during snapshot") from exc
        if meta.get("ok"):
            worker.snapshot = payload

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
        keys = list(keys)
        n = len(keys)
        if counts is None:
            counts = [1] * n
        else:
            counts = [int(c) for c in counts]
            if len(counts) != n:
                raise ValueError(f"got {n} keys but {len(counts)} counts")
        is_query = op == "query_many"
        values = np.zeros(n, dtype=np.int64) if is_query else None
        failures: list[BulkFailure] = []
        valid: list[int] = []
        for idx, key in enumerate(keys):
            if isinstance(key, SCALAR_KEY_TYPES):
                valid.append(idx)
            else:
                failures.append(BulkFailure(idx, key, TypeError(
                    f"remote-shard keys must be JSON scalars "
                    f"(str/int/float/bool/None), got "
                    f"{type(key).__name__}"), retryable=False))
        owners = self.router.shard_of_many([keys[i] for i in valid])
        groups: dict[int, list[int]] = {}
        for idx, owner in zip(valid, owners):
            groups.setdefault(owner, []).append(idx)
        # Phase 1: one frame per owner shard, written to every worker
        # pipe before any response is read — the workers overlap their
        # compute.  `sent` tracks pipes with a frame in flight; their
        # locks stay held until phase 2 collects the response.
        sent: list[int] = []
        answers: dict[int, object] = {}
        try:
            for owner in sorted(groups):
                idxs = groups[owner]
                frame = self._bulk_frame(
                    op, [keys[i] for i in idxs],
                    None if is_query else [counts[i] for i in idxs])
                worker = self._workers[owner]
                worker.lock.acquire()
                try:
                    self.metrics.counter(
                        f"engine.worker.{owner}.requests").inc()
                    self._send_with_revive(owner, frame)
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
                    answers[owner] = self._delivery_failed(
                        owner, f"worker {owner} died mid-batch: "
                        f"{type(exc).__name__}")
                finally:
                    worker.lock.release()
                    sent.remove(owner)
        finally:
            for owner in sent:  # pragma: no cover - unexpected error path
                self._workers[owner].lock.release()
        for owner, answer in answers.items():
            idxs = groups[owner]
            if isinstance(answer, Exception):
                failures.extend(BulkFailure(i, keys[i], answer, True)
                                for i in idxs)
                continue
            meta, payload = open_frame(answer, RESPONSE_MAGIC)
            if not meta.get("ok"):
                error = _remote_error(f"worker-{owner}", meta.get("kind"),
                                      meta.get("error", "remote failure"))
                failures.extend(BulkFailure(i, keys[i], error, False)
                                for i in idxs)
                continue
            if is_query:
                if meta.get("result") == "bin":
                    got = np.frombuffer(payload, dtype="<i8")
                else:
                    got = np.asarray(meta.get("result"), dtype=np.int64)
                values[idxs] = got
            else:
                self._note_mutation(owner)
        failures.sort(key=lambda f: f.index)
        return BulkResult(n, values, failures)

    def _bulk_frame(self, op: str, keys: list, counts: list | None) -> bytes:
        """Seal one bulk request: binary int64 payload when every key is a
        plain in-range integer, the JSON list form otherwise."""
        if keys and all(type(k) is int and _INT64_MIN <= k <= _INT64_MAX
                        for k in keys):
            payload = np.asarray(keys, dtype="<i8").tobytes()
            if counts is not None:
                payload += np.asarray(counts, dtype="<i8").tobytes()
            return seal_frame(REQUEST_MAGIC, {"op": op, "bin": len(keys)},
                              payload)
        fields = {"op": op, "keys": keys}
        if counts is not None:
            fields["counts"] = counts
        return seal_frame(REQUEST_MAGIC, fields)

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
