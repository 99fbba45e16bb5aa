"""The durable serving handle: WAL-ahead mutations + atomic checkpoints.

:class:`DurableSBF` wraps a :class:`SpectralBloomFilter` so that every
acknowledged mutation survives a process crash:

- mutations are logged to the WAL *before* they touch the in-memory
  filter (write-ahead: a logged-but-unapplied operation is redone by
  replay; the reverse order could acknowledge an operation that no
  recovery can reconstruct), and only once the core's own check for the
  verb has accepted them (the count rule, the delete and set guards), so
  the log never holds a record that replay would refuse;
- :meth:`checkpoint` forces the log down, writes an atomic snapshot
  carrying the last logged sequence number, then resets the log —
  recovery loads the snapshot and replays only newer records, so a crash
  anywhere inside the checkpoint dance falls back to the previous
  snapshot plus the still-intact log;
- :meth:`open` is the crash-recovery entry point: point it at a
  directory and it either recovers the persisted state or starts fresh
  from *factory*; the log is read once, by recovery, whose scan the
  reopened appender continues from;
- :meth:`execute` is group commit: a shard group's mutations each log
  their own record, and the fsyncs the policy owes collapse into one,
  taken before any op of the group is acknowledged.

Keys must be JSON scalars (the WAL's key discipline); reads are plain
pass-throughs.  It speaks the shard-handle protocol
(:mod:`repro.handle`), and is the one place WAL logging happens.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.sbf import SpectralBloomFilter, check_count, check_counts
from repro.handle import BulkResult, ShardHandle
from repro.persist.crashsim import FileIO
from repro.persist.recovery import WAL_NAME, RecoveryReport, recover
from repro.persist.snapshot import SnapshotStore
from repro.persist.wal import ScanResult, WriteAheadLog


class DurableSBF(ShardHandle):
    """A SpectralBloomFilter whose acknowledged mutations survive crashes.

    Build fresh ones around an empty filter, or use :meth:`open` to
    recover whatever a previous process persisted.

    Args:
        sbf: the in-memory filter to serve from (must reflect exactly the
            state persisted under *directory* — :meth:`open` guarantees
            this).
        directory: durability directory (WAL + snapshots).
        fsync: WAL fsync policy — ``"always"`` / int N / ``"checkpoint"``.
        io: filesystem layer (a :class:`~repro.persist.crashsim.CrashIO`
            under test).
        retain: snapshot generations to keep.
        scan: recovery's scan of the WAL, which the appender continues
            from instead of reading the log again (recovery wiring).
    """

    def __init__(self, sbf: SpectralBloomFilter, directory: str, *,
                 fsync: object = "always", io: FileIO | None = None,
                 retain: int = 2, scan: ScanResult | None = None):
        self.sbf = sbf
        self.directory = str(directory)
        self.io = io or FileIO()
        self.io.makedirs(self.directory)
        self.snapshots = SnapshotStore(self.directory, io=self.io,
                                       retain=retain)
        self.wal = WriteAheadLog(f"{self.directory}/{WAL_NAME}",
                                 fsync=fsync, io=self.io, scan=scan)
        self.last_recovery: RecoveryReport | None = None
        self.checkpoints = 0

    @classmethod
    def open(cls, directory: str, *,
             factory: Callable[[], SpectralBloomFilter] | None = None,
             fsync: object = "always", io: FileIO | None = None,
             retain: int = 2, strict: bool = True) -> "DurableSBF":
        """Recover (or initialise) the filter persisted under *directory*.

        With no persisted state, *factory* builds the initial filter; with
        persisted state, recovery rebuilds it (and *factory* must describe
        the same configuration, since WAL replay depends on it).
        """
        io = io or FileIO()
        store = SnapshotStore(directory, io=io, retain=retain)
        has_state = bool(store.generations()) or io.exists(
            f"{directory}/{WAL_NAME}")
        if has_state:
            sbf, report = recover(directory, factory=factory, io=io,
                                  strict=strict)
            handle = cls(sbf, directory, fsync=fsync, io=io, retain=retain,
                         scan=report.scan)
            handle.last_recovery = report
            return handle
        if factory is None:
            raise ValueError(
                f"{directory!r} holds no persisted filter and no factory "
                f"was given to create one")
        return cls(factory(), directory, fsync=fsync, io=io, retain=retain)

    # -- mutations (write-ahead; the core's check runs before logging) ---
    def insert(self, key: object, count: int = 1) -> int:
        """Durably record *count* occurrences of *key*; returns the WAL seq."""
        count = check_count(count)
        if count == 0:
            return self.wal.last_seq
        seq = self.wal.log_insert(key, count)
        self.sbf.insert(key, count)
        return seq

    def delete(self, key: object, count: int = 1) -> int:
        """Durably remove *count* occurrences of *key*; returns the WAL seq."""
        count = self.sbf.check_delete(key, count)
        if count == 0:
            return self.wal.last_seq
        seq = self.wal.log_delete(key, count)
        self.sbf.delete(key, count)
        return seq

    def set(self, key: object, count: int) -> int:
        """Durably force ``f_key := count``; returns the WAL seq.

        Logged as a ``set`` record and applied by the core reduction that
        replay also uses, so recovered state matches served state.
        """
        count = self.sbf.check_set(key, count)
        seq = self.wal.log_set(key, count)
        self.sbf.set(key, count)
        return seq

    # -- bulk mutations (one WAL record per batch) -----------------------
    def insert_many(self, keys: Sequence, counts=None, *,
                    timeout: float | None = None) -> BulkResult:
        """Durably record a whole batch.

        The batch is logged as a single ``insert_many`` record — one
        append, one CRC, one fsync — *before* the in-memory filter moves
        (write-ahead), then applied through the vectorised bulk kernels.
        The count rule and the log's key check run first, so an invalid
        batch raises before either the log or the filter changes.
        """
        keys = keys.tolist() if isinstance(keys, np.ndarray) else list(keys)
        counts = check_counts(counts, len(keys))
        if keys:
            self.wal.log_insert_many(keys, counts.tolist())
            self.sbf.insert_many(keys, counts)
        return BulkResult(len(keys))

    def delete_many(self, keys: Sequence, counts=None, *,
                    timeout: float | None = None) -> BulkResult:
        """Durably remove a whole batch, all-or-nothing: the core bulk
        delete guard runs before logging."""
        keys = keys.tolist() if isinstance(keys, np.ndarray) else list(keys)
        counts = check_counts(counts, len(keys))
        if keys:
            self.sbf.check_delete_many(keys, counts)
            self.wal.log_delete_many(keys, counts.tolist())
            self.sbf.delete_many(keys, counts)
        return BulkResult(len(keys))

    # -- group commit ------------------------------------------------------
    def execute(self, ops: Sequence[tuple], deadlines=None, *,
                timeout: float | None = None) -> list:
        """Run a shard group with one fsync (group commit).

        Every mutation is validated, logged as its own record and applied
        exactly as its point verb would, so records, bytes and recovery
        are unchanged; only the fsyncs the policy owes collapse into at
        most one (:meth:`WriteAheadLog.group`), taken before this returns
        — so before any op of the group is acknowledged.  If that fsync
        fails, every applied mutation's slot gets its error (none of them
        may be acknowledged); nothing is raised.
        """
        results = None
        try:
            with self.wal.group():
                results = super().execute(ops, deadlines, timeout=timeout)
        except Exception as exc:
            if results is None:
                raise
            for idx, outcome in enumerate(results):
                if outcome is None:          # an applied mutation
                    results[idx] = exc
        return results

    # -- reads -----------------------------------------------------------
    def query(self, key: object) -> int:
        return self.sbf.query(key)

    def query_many(self, keys: Sequence, *,
                   timeout: float | None = None) -> BulkResult:
        return BulkResult(len(keys), self.sbf.query_many(keys))

    @property
    def total_count(self) -> int:
        return self.sbf.total_count

    def local_filter(self) -> SpectralBloomFilter:
        return self.sbf

    # -- durability points -------------------------------------------------
    def checkpoint(self) -> str:
        """Write an atomic snapshot and reset the log; returns its path.

        Also the fsync point of the ``"checkpoint"`` WAL policy.  Crash
        ordering: the log is synced *before* the snapshot (so the snapshot
        never reflects an operation the log could lose), and reset *after*
        the rename (a crash in between leaves old records the snapshot
        already covers — replay skips them by sequence number).
        """
        self.wal.sync()
        path = self.snapshots.save(self.sbf, self.wal.last_seq)
        self.wal.reset()
        self.checkpoints += 1
        return path

    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "DurableSBF":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DurableSBF({self.sbf!r}, dir={self.directory!r}, "
                f"last_seq={self.wal.last_seq})")
