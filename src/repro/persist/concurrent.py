"""A concurrency-safe serving handle over (durable) spectral filters.

Python's counter backends are not thread-safe: ``add`` is a read-modify-
write, the String-Array Index shifts neighbouring fields on expansion, and
``total_count`` is a shared accumulator.  :class:`ConcurrentSBF` makes a
filter servable from many threads:

- **striped counter locks** — counter index space is partitioned into
  ``stripes`` lock stripes; an insert/delete/query takes only the stripes
  its ``k`` counters map to, so a point read never waits on writes to
  other stripes.  Stripes are always acquired in ascending order, which
  makes deadlock impossible by construction (no cycle in the waits-for
  graph).
- **an apply lock** — the wrapped handle's verbs are not thread-safe
  (``total_count`` is an accumulator, a write-ahead log appends in
  order), so every mutation body runs under one innermost lock, taken
  after the stripes; under the GIL those bodies could not overlap anyway.
- **a single writer lock** — checkpoints (and other whole-filter moments
  such as ``set`` and serialisation) additionally take an exclusive lock
  plus *every* stripe, freezing a consistent cut of the counter vector.
- **bounded-wait acquisition** — every lock acquire carries a deadline;
  exceeding it raises :class:`LockTimeout` (a typed ``TimeoutError``)
  instead of blocking forever, so a stuck peer degrades into a visible,
  retryable error rather than a deadlocked process.
- **a shared read path for bulk queries** — ``query_many`` mutates
  nothing, so batches of it may overlap freely; making each one take the
  writer lock plus every stripe (the old behaviour) serialised the
  hottest read path of the serving layer.  A group-exclusion gate now
  separates *readers* (``query_many``) from *mutators* (every writing
  path): any number of readers run concurrently, any number of mutators
  pass the gate together (the locks above arbitrate them), and the two
  groups never overlap.  Waiting
  mutators bar new readers (writer preference), so a read storm cannot
  starve writes.

Striping is only sound for Minimum Selection over the plain array
backend, where a counter update touches that counter's word and nothing
else.  Everything else degrades to a single stripe, i.e. one big lock —
correct first, parallel where proven:

- methods with cross-counter logic (MI reads all minima before writing;
  RM maintains a secondary filter) couple counters across stripes; and
- compact backends mutate shared structure on *any* write: a
  String-Array Index expansion shifts neighbouring fields (and can
  rebuild the whole index), and a coded-stream update re-encodes a chunk
  holding other counters — so two threads holding disjoint stripes could
  still corrupt counters neither of them locked.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.core.sbf import SpectralBloomFilter
from repro.handle import BulkResult, ShardHandle, as_handle
from repro.storage.backends import ArrayBackend


class LockTimeout(TimeoutError):
    """A bounded lock wait expired (the filter stayed consistent)."""


class _GroupGate:
    """Group mutual exclusion between *readers* and *mutators*.

    Members of the same group overlap freely; members of different
    groups never do.  This is weaker than a read-write lock — mutators
    do not exclude each other (the stripe locks already arbitrate them)
    — which is exactly why a reader entering here can skip the stripe
    locks entirely.  Waiting mutators bar new readers (writer
    preference).  Both entries are bounded: they return ``False`` on
    deadline instead of blocking forever.
    """

    __slots__ = ("_cond", "_readers", "_mutators", "_mutators_waiting",
                 "_clock")

    def __init__(self, clock=None) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._mutators = 0
        self._mutators_waiting = 0
        self._clock = clock or time.monotonic

    def enter_read(self, budget: float) -> bool:
        deadline = self._clock() + budget
        with self._cond:
            while self._mutators or self._mutators_waiting:
                remaining = deadline - self._clock()
                if remaining <= 0 or not self._cond.wait(remaining):
                    return False
            self._readers += 1
            return True

    def exit_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def enter_mutate(self, budget: float) -> bool:
        deadline = self._clock() + budget
        with self._cond:
            self._mutators_waiting += 1
            try:
                while self._readers:
                    remaining = deadline - self._clock()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        return False
            finally:
                # Runs under the condition lock either way; a timed-out
                # mutator must wake readers it was barring.
                self._mutators_waiting -= 1
                if self._mutators_waiting == 0:
                    self._cond.notify_all()
            self._mutators += 1
            return True

    def exit_mutate(self) -> None:
        with self._cond:
            self._mutators -= 1
            if self._mutators == 0:
                self._cond.notify_all()


class ConcurrentSBF(ShardHandle):
    """Thread-safe facade over a local shard handle.

    Args:
        filter: the filter to serve — a plain ``SpectralBloomFilter`` or
            any local handle of the shard-handle protocol, such as a
            ``DurableSBF`` (whose verbs then log to its write-ahead log).
        stripes: number of lock stripes (>= 1).  Forced to 1 unless the
            filter is Minimum Selection over the array backend (see
            module docstring — other method/backend combinations couple
            counters across stripe boundaries).
        timeout: default bound, in seconds, on any lock wait.
        clock: seconds-returning callable the lock-wait budgets are
            measured on (the injected-clock convention of
            :mod:`repro.serve.metrics`); defaults to ``time.monotonic``.
            A simulated clock makes lock-budget arithmetic deterministic
            — on an uncontended handle no wall-clock time is read at all.
    """

    def __init__(self, filter: SpectralBloomFilter | ShardHandle, *,
                 stripes: int = 16, timeout: float = 5.0, clock=None):
        if stripes < 1:
            raise ValueError(f"stripes must be >= 1, got {stripes}")
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self._handle = as_handle(filter)
        self._sbf: SpectralBloomFilter = self._handle.local_filter()
        if self._sbf.method.name != "ms" \
                or not isinstance(self._sbf.counters, ArrayBackend):
            stripes = 1
        self.stripes = stripes
        self.timeout = float(timeout)
        self.clock = clock or time.monotonic
        self._locks = [threading.Lock() for _ in range(stripes)]
        self._writer = threading.Lock()
        # Innermost lock: linearises the wrapped handle's verbs (its
        # total_count accumulator and its log are not thread-safe; the
        # stripes keep same-key readers out) and guards the statistics.
        self._apply_lock = threading.Lock()
        self._gate = _GroupGate(self.clock)
        self.lock_timeouts = 0
        self.operations = 0

    # -- lock plumbing -----------------------------------------------------
    def _stripes_for(self, key: object) -> list[int]:
        return sorted({i % self.stripes for i in self._sbf.indices(key)})

    def _acquire(self, locks: Sequence[threading.Lock],
                 timeout: float | None) -> list[threading.Lock]:
        """Take *locks* in order under one deadline; all-or-nothing."""
        budget = self.timeout if timeout is None else timeout
        deadline = self.clock() + budget
        taken: list[threading.Lock] = []
        for lock in locks:
            remaining = deadline - self.clock()
            if remaining <= 0 or not lock.acquire(timeout=remaining):
                for held in reversed(taken):
                    held.release()
                with self._apply_lock:
                    self.lock_timeouts += 1
                raise LockTimeout(
                    f"could not acquire {len(locks)} lock(s) within "
                    f"{budget:.3f}s (got {len(taken)})")
            taken.append(lock)
        return taken

    @staticmethod
    def _release(taken: list[threading.Lock]) -> None:
        for lock in reversed(taken):
            lock.release()

    def _key_locks(self, key: object) -> list[threading.Lock]:
        return [self._locks[s] for s in self._stripes_for(key)]

    def _all_locks(self) -> list[threading.Lock]:
        return [self._writer, *self._locks]

    def _enter_gate(self, *, read: bool, timeout: float | None) -> None:
        """Join the readers' or mutators' side of the group gate (bounded).

        A mutator entering here holds no stripe locks yet and a reader
        never takes any, so the gate adds no edge to the waits-for graph
        — deadlock stays impossible by construction.
        """
        budget = self.timeout if timeout is None else timeout
        entered = (self._gate.enter_read(budget) if read
                   else self._gate.enter_mutate(budget))
        if not entered:
            with self._apply_lock:
                self.lock_timeouts += 1
            side = "reader" if read else "mutator"
            raise LockTimeout(
                f"could not join the {side} side of the read/write gate "
                f"within {budget:.3f}s")

    def _mutate(self, locks: list[threading.Lock], timeout: float | None,
                n: int, verb, *args):
        """Apply one verb of the wrapped handle as a mutator: the gate's
        mutator side, then *locks* (bounded), then the apply lock."""
        self._enter_gate(read=False, timeout=timeout)
        try:
            taken = self._acquire(locks, timeout)
            try:
                with self._apply_lock:
                    result = verb(*args)
                    self.operations += n
                return result
            finally:
                self._release(taken)
        finally:
            self._gate.exit_mutate()

    # -- mutations -----------------------------------------------------
    def insert(self, key: object, count: int = 1, *,
               timeout: float | None = None) -> None:
        """Record *count* occurrences of *key* under the key's stripes."""
        self._mutate(self._key_locks(key), timeout, 1, self._handle.insert,
                     key, count)

    def delete(self, key: object, count: int = 1, *,
               timeout: float | None = None) -> None:
        """Remove *count* occurrences of *key* under the key's stripes."""
        self._mutate(self._key_locks(key), timeout, 1, self._handle.delete,
                     key, count)

    def set(self, key: object, count: int, *,
            timeout: float | None = None) -> None:
        """Force ``f_key := count``.

        Unlike inserts/deletes, a set does not commute with concurrent
        operations on overlapping counters, so it runs under the writer
        lock plus every stripe — fully serialised, exactly the order the
        WAL records it.
        """
        self._mutate(self._all_locks(), timeout, 1, self._handle.set, key,
                     count)

    # -- bulk operations ---------------------------------------------------
    # Bulk batches touch arbitrary counters, so striping buys nothing:
    # they run under the writer lock plus every stripe — one lock
    # acquisition for the whole batch, then the vectorised kernels.
    def insert_many(self, keys, counts=None, *,
                    timeout: float | None = None) -> BulkResult:
        """Apply a whole insert batch atomically w.r.t. other threads."""
        return self._mutate(self._all_locks(), timeout, len(keys),
                            self._handle.insert_many, keys, counts)

    def delete_many(self, keys, counts=None, *,
                    timeout: float | None = None) -> BulkResult:
        """Apply a whole delete batch atomically w.r.t. other threads."""
        return self._mutate(self._all_locks(), timeout, len(keys),
                            self._handle.delete_many, keys, counts)

    def query_many(self, keys, *, timeout: float | None = None,
                   ) -> BulkResult:
        """Vectorised estimates for a batch, on a consistent cut.

        Rides the shared side of the group gate: it takes *no* stripe
        locks, so any number of concurrent ``query_many`` batches overlap
        — the gate only holds off mutating paths (and is held off by
        them), which is all a read needs.  The cut is consistent because
        no mutator runs while any reader is inside.
        """
        self._enter_gate(read=True, timeout=timeout)
        try:
            return self._handle.query_many(keys)
        finally:
            self._gate.exit_read()

    # -- reads -----------------------------------------------------------
    def query(self, key: object, *, timeout: float | None = None) -> int:
        """Frequency estimate under the key's stripes (a consistent read
        of the key's own counters; unrelated stripes keep moving)."""
        taken = self._acquire(self._key_locks(key), timeout)
        try:
            return self._handle.query(key)
        finally:
            self._release(taken)

    @property
    def total_count(self) -> int:
        with self._apply_lock:
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
        return ConcurrentSBF(self._handle.respawn(sbf), stripes=self.stripes,
                             timeout=self.timeout, clock=self.clock)

    def add_operations(self, n: int) -> None:
        """Credit *n* externally-applied operations to the ops counter.

        Batch executors apply many operations under one :meth:`exclusive`
        section; this keeps :attr:`operations` honest for them.
        """
        with self._apply_lock:
            self.operations += n

    # -- whole-filter moments ----------------------------------------------
    @contextmanager
    def exclusive(self, timeout: float | None = None,
                  ) -> Iterator[ShardHandle]:
        """Freeze the filter and yield the wrapped handle.

        Takes the writer lock plus every stripe (bounded by *timeout*), so
        the caller sees — and may mutate — a consistent cut with no other
        thread in flight.  This is the one-lock-acquisition-per-batch
        primitive used by the serving layer's batch executor and by
        snapshot-consistent resharding: while the section is open the
        caller drives the wrapped handle's verbs directly, paying the
        locking cost once instead of once per operation.

        Raises:
            LockTimeout: if the locks cannot all be had within *timeout*.
        """
        self._enter_gate(read=False, timeout=timeout)
        try:
            taken = self._acquire(self._all_locks(), timeout)
            try:
                yield self._handle
            finally:
                self._release(taken)
        finally:
            self._gate.exit_mutate()

    def checkpoint(self, *, timeout: float | None = None):
        """Freeze a consistent cut and checkpoint the wrapped handle.

        Takes the writer lock plus all stripes (bounded), so the
        checkpoint is a linearisation point: it reflects every operation
        that completed before it and none that started after.  Durable
        filters run their WAL-sync → snapshot → log-reset dance and
        return the snapshot path; in-memory filters return a checksummed
        v2 frame of the frozen state.
        """
        taken = self._acquire(self._all_locks(), timeout)
        try:
            return self._handle.checkpoint()
        finally:
            self._release(taken)

    def close(self) -> None:
        self._handle.close()

    def check_integrity(self, *, timeout: float | None = None) -> list[str]:
        """Run the structural audit on a frozen cut."""
        taken = self._acquire(self._all_locks(), timeout)
        try:
            return self._sbf.check_integrity()
        finally:
            self._release(taken)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ConcurrentSBF({self._sbf!r}, stripes={self.stripes}, "
                f"timeout={self.timeout})")
