"""A concurrency-safe serving handle over (durable) spectral filters.

Python's counter backends are not thread-safe: ``add`` is a read-modify-
write, the String-Array Index shifts neighbouring fields on expansion, and
``total_count`` is a shared accumulator.  :class:`ConcurrentSBF` makes a
filter servable from many threads with **one reader-writer lock per
shard**:

- **shared readers** — ``query`` and ``query_many`` mutate nothing, so
  any number of them hold the read side together;
- **one writer** — every mutation, ``set``, a shard group
  (:meth:`~ConcurrentSBF.execute`), :meth:`~ConcurrentSBF.exclusive`,
  checkpoints and integrity audits hold the write side, alone: the
  wrapped handle's verbs run one at a time (its ``total_count``
  accumulator and write-ahead log append in order), and a checkpoint
  freezes a consistent cut of the counter vector;
- **writer preference** — a waiting writer bars new readers, so a read
  storm cannot starve writes;
- **bounded waits** — a free lock is taken at once, without reading the
  clock; a wait that outlasts its budget raises :class:`LockTimeout` (a
  typed ``TimeoutError``) instead of blocking forever, so a stuck peer
  degrades into a visible, retryable error rather than a deadlocked
  process.

One lock is all the paper's update rules allow: they read counters they
do not write — MI compares all ``k`` counters before raising the minima
(§3.2), RM consults a secondary filter (§3.3), and a String-Array Index
expansion shifts neighbouring fields (§4) — so finer-grained locks over
counter ranges would not be sound.  A thread holds at most one side of
one shard's lock at a time, so no waits-for cycle can form.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.core.sbf import SpectralBloomFilter
from repro.handle import BulkResult, ShardHandle, as_handle


class LockTimeout(TimeoutError):
    """A bounded lock wait expired (the filter stayed consistent)."""


class _SharedLock:
    """A reader-writer lock with writer preference and bounded waits.

    Readers overlap each other; a writer excludes readers and other
    writers.  Acquisition is bounded: a wait longer than its budget
    raises :class:`LockTimeout` and counts it in :attr:`timeouts`.
    """

    __slots__ = ("_cond", "_readers", "_writing", "_writers_waiting",
                 "_clock", "timeouts")

    def __init__(self, clock) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._readers = 0
        self._writing = False
        self._writers_waiting = 0
        self._clock = clock
        self.timeouts = 0

    def _wait(self, blocked, budget: float, side: str) -> None:
        """Under the condition, wait until ``blocked()`` is false."""
        deadline = self._clock() + budget
        while blocked():
            remaining = deadline - self._clock()
            if remaining <= 0 or not self._cond.wait(remaining):
                self.timeouts += 1
                raise LockTimeout(
                    f"could not take the {side} side of the shard lock "
                    f"within {budget:.3f}s")

    def acquire_read(self, budget: float) -> None:
        with self._cond:
            if self._writing or self._writers_waiting:
                self._wait(lambda: self._writing or self._writers_waiting,
                           budget, "read")
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if not self._readers and self._writers_waiting:
                self._cond.notify_all()

    def acquire_write(self, budget: float) -> None:
        with self._cond:
            if self._writing or self._readers:
                self._writers_waiting += 1
                try:
                    self._wait(lambda: self._writing or self._readers,
                               budget, "write")
                finally:
                    self._writers_waiting -= 1
                    # A writer that gave up must wake the readers it barred.
                    if not self._writers_waiting:
                        self._cond.notify_all()
            self._writing = True

    def release_write(self) -> None:
        with self._cond:
            self._writing = False
            self._cond.notify_all()


class ConcurrentSBF(ShardHandle):
    """Thread-safe facade over a local shard handle.

    Args:
        filter: the filter to serve — a plain ``SpectralBloomFilter`` or
            any local handle of the shard-handle protocol, such as a
            ``DurableSBF`` (whose verbs then log to its write-ahead log).
        timeout: default bound, in seconds, on any lock wait.
        clock: seconds-returning callable the lock-wait budgets are
            measured on (the injected-clock convention of
            :mod:`repro.serve.metrics`); defaults to ``time.monotonic``.
            Only a contended acquisition reads it, so an uncontended
            handle reads no clock at all.
    """

    def __init__(self, filter: SpectralBloomFilter | ShardHandle, *,
                 timeout: float = 5.0, clock=None):
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self._handle = as_handle(filter)
        self._sbf: SpectralBloomFilter = self._handle.local_filter()
        self.timeout = float(timeout)
        self.clock = clock or time.monotonic
        self._lock = _SharedLock(self.clock)

    @property
    def lock_timeouts(self) -> int:
        """Lock waits that outlasted their budget."""
        return self._lock.timeouts

    # -- lock plumbing -----------------------------------------------------
    def _budget(self, timeout: float | None) -> float:
        return self.timeout if timeout is None else timeout

    def _write(self, timeout: float | None, verb, *args):
        """Run *verb* under the write side (bounded by *timeout*)."""
        lock = self._lock
        lock.acquire_write(self._budget(timeout))
        try:
            return verb(*args)
        finally:
            lock.release_write()

    def _read(self, timeout: float | None, verb, *args):
        """Run *verb* under the read side (bounded by *timeout*)."""
        lock = self._lock
        lock.acquire_read(self._budget(timeout))
        try:
            return verb(*args)
        finally:
            lock.release_read()

    # -- mutations -----------------------------------------------------
    def insert(self, key: object, count: int = 1, *,
               timeout: float | None = None) -> None:
        """Record *count* occurrences of *key*."""
        self._write(timeout, self._handle.insert, key, count)

    def delete(self, key: object, count: int = 1, *,
               timeout: float | None = None) -> None:
        """Remove *count* occurrences of *key*."""
        self._write(timeout, self._handle.delete, key, count)

    def set(self, key: object, count: int, *,
            timeout: float | None = None) -> None:
        """Force ``f_key := count``.

        A set does not commute with concurrent operations on overlapping
        counters; the write side serialises it, exactly in the order the
        WAL records it.
        """
        self._write(timeout, self._handle.set, key, count)

    # -- bulk operations ---------------------------------------------------
    # One lock acquisition for the whole batch, then the vectorised
    # kernels.
    def insert_many(self, keys, counts=None, *,
                    timeout: float | None = None) -> BulkResult:
        """Apply a whole insert batch atomically w.r.t. other threads."""
        return self._write(timeout, self._handle.insert_many, keys, counts)

    def delete_many(self, keys, counts=None, *,
                    timeout: float | None = None) -> BulkResult:
        """Apply a whole delete batch atomically w.r.t. other threads."""
        return self._write(timeout, self._handle.delete_many, keys, counts)

    def query_many(self, keys, *, timeout: float | None = None,
                   ) -> BulkResult:
        """Vectorised estimates for a batch, on a consistent cut.

        Holds the read side, so concurrent readers overlap; the cut is
        consistent because no writer runs while any reader is inside.
        """
        return self._read(timeout, self._handle.query_many, keys)

    def execute(self, ops, deadlines=None, *,
                timeout: float | None = None) -> list:
        """Run a shard group under one write-side acquisition (bounded by
        *timeout*) through the wrapped handle's own ``execute`` — a
        durable handle's group commit included."""
        return self._write(timeout, self._handle.execute, ops, deadlines)

    # -- reads -----------------------------------------------------------
    def query(self, key: object, *, timeout: float | None = None) -> int:
        """Frequency estimate under the read side."""
        return self._read(timeout, self._handle.query, key)

    @property
    def total_count(self) -> int:
        # One attribute read: a writer updates it in a single store.
        return self._handle.total_count

    @property
    def raw(self) -> ShardHandle:
        """The wrapped handle (unlocked — combine with :meth:`exclusive`)."""
        return self._handle

    @property
    def sbf(self) -> SpectralBloomFilter:
        """The underlying in-memory filter (unlocked — see :meth:`exclusive`)."""
        return self._sbf

    def local_filter(self) -> SpectralBloomFilter:
        return self._sbf

    def respawn(self, sbf: SpectralBloomFilter) -> "ConcurrentSBF":
        return ConcurrentSBF(self._handle.respawn(sbf), timeout=self.timeout,
                             clock=self.clock)

    # -- whole-filter moments ----------------------------------------------
    @contextmanager
    def exclusive(self, timeout: float | None = None,
                  ) -> Iterator[ShardHandle]:
        """Freeze the filter and yield the wrapped handle.

        Holds the write side (bounded by *timeout*), so the caller sees —
        and may mutate — a consistent cut with no other thread in flight.
        This is the one-lock-acquisition-per-batch primitive used by the
        serving layer's batch executor and by snapshot-consistent
        resharding: while the section is open the caller drives the
        wrapped handle's verbs directly, paying the locking cost once
        instead of once per operation.

        Raises:
            LockTimeout: if the write side cannot be had within *timeout*.
        """
        lock = self._lock
        lock.acquire_write(self._budget(timeout))
        try:
            yield self._handle
        finally:
            lock.release_write()

    def checkpoint(self, *, timeout: float | None = None):
        """Freeze a consistent cut and checkpoint the wrapped handle.

        Holds the write side (bounded), so the checkpoint is a
        linearisation point: it reflects every operation that completed
        before it and none that started after.  Durable filters run their
        WAL-sync → snapshot → log-reset dance and return the snapshot
        path; in-memory filters return a checksummed v2 frame of the
        frozen state.
        """
        return self._write(timeout, self._handle.checkpoint)

    def close(self) -> None:
        self._handle.close()

    def check_integrity(self, *, timeout: float | None = None) -> list[str]:
        """Run the structural audit on a frozen cut."""
        return self._write(timeout, self._sbf.check_integrity)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConcurrentSBF({self._sbf!r}, timeout={self.timeout})"
