"""ARIES-lite recovery: newest good snapshot + intact WAL suffix.

:func:`recover` rebuilds a filter from a durability directory:

1. load the newest snapshot that passes its checksum, falling back a
   generation per failure (:meth:`SnapshotStore.load_latest`);
2. replay every intact WAL record with ``seq`` past the snapshot's,
   stopping at the first torn/corrupt record — a damaged record and
   everything after it are *never* applied;
3. truncate the damaged tail so the reopened log is clean;
4. audit the rebuilt filter with ``check_integrity()`` before handing
   it back.

The guarantee is prefix consistency: whatever byte the crash hit, the
recovered filter equals replaying some prefix of the acknowledged
operation sequence — at least every operation that was fsynced, at most
every operation that was attempted.

Replay runs at bulk speed.  The log is scanned once; the report carries
that scan, so :class:`~repro.persist.DurableSBF` opens its appender on
it without reading the file again.  Every method's bulk kernel leaves
exactly the state of its scalar loop over the same sequence
(``tests/test_bulk.py``: Minimum Selection adds commute, the Minimal
Increase and Recurring Minimum kernels reproduce the sequential order),
so a run of consecutive ``insert`` records replays as one
``insert_many`` and a run of ``delete`` records as one ``delete_many``.
``set`` records, bulk records and short runs replay one record at a time
through :func:`apply_record`.  A bulk call that refuses its run has
applied nothing (the all-or-nothing contract), and the run then replays
record by record, so the :class:`RecoveryError` names the record that
failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.sbf import SpectralBloomFilter
from repro.persist.crashsim import FileIO
from repro.persist.snapshot import SnapshotStore
from repro.persist.wal import (
    OP_DELETE,
    OP_DELETE_MANY,
    OP_INSERT,
    OP_INSERT_MANY,
    OP_SET,
    ScanResult,
    WALRecord,
    replay,
)

#: default WAL filename inside a durability directory
WAL_NAME = "wal.log"

#: bounds of a same-verb run replayed as one bulk call.  Below
#: ``_MIN_RUN`` records the scalar loop is cheaper (a bulk call's fixed
#: cost is worth about 50 scalar inserts of str keys under MS or MI);
#: ``_MAX_RUN`` caps the key and count lists a run holds at once.
_MIN_RUN = 64
_MAX_RUN = 8192


class RecoveryError(RuntimeError):
    """Recovery could not produce a trustworthy filter."""


@dataclass
class RecoveryReport:
    """What recovery found and did (for logs, tests, and monitoring)."""

    snapshot_generation: int | None = None
    snapshot_seq: int = 0
    snapshots_rejected: list[str] = field(default_factory=list)
    records_replayed: int = 0
    last_seq: int = 0
    torn_tail: str | None = None
    truncated_at: int | None = None
    integrity_issues: list[str] = field(default_factory=list)
    #: the WAL scan replay made, describing the log as recovery left it
    #: (a reopened appender continues from it)
    scan: ScanResult | None = None

    @property
    def used_snapshot(self) -> bool:
        return self.snapshot_generation is not None


def apply_record(sbf: SpectralBloomFilter, record: WALRecord) -> None:
    """Apply one WAL record to a filter.

    ``set`` records are key-level (``f_key := count``) and replay through
    :meth:`SpectralBloomFilter.set` — the same reduction the serving
    handle performed, so replay retraces the exact live mutations.
    """
    if record.op == OP_INSERT:
        sbf.insert(record.key, record.count)
    elif record.op == OP_DELETE:
        sbf.delete(record.key, record.count)
    elif record.op == OP_INSERT_MANY:
        # Replays through the same bulk kernels that served the batch, so
        # the recovered counters are bit-identical to the served ones.
        sbf.insert_many(record.key, record.count)
    elif record.op == OP_DELETE_MANY:
        sbf.delete_many(record.key, record.count)
    elif record.op == OP_SET:
        sbf.set(record.key, record.count)
    else:  # unreachable: replay() rejects unknown op codes
        raise RecoveryError(f"unknown WAL op {record.op}")


def _replay_records(sbf: SpectralBloomFilter,
                    records: list[WALRecord]) -> None:
    """Apply *records* in order, each same-verb run of point inserts or
    deletes as one bulk call (see the module docstring)."""
    i, n = 0, len(records)
    while i < n:
        op = records[i].op
        j = i + 1
        if op == OP_INSERT or op == OP_DELETE:
            stop = min(n, i + _MAX_RUN)
            while j < stop and records[j].op == op:
                j += 1
        run = records[i:j]
        i = j
        if len(run) >= _MIN_RUN:
            bulk = sbf.insert_many if op == OP_INSERT else sbf.delete_many
            try:
                bulk([r.key for r in run], [r.count for r in run])
                continue
            except ValueError:
                pass    # refused whole: find the record that fails
        for record in run:
            try:
                apply_record(sbf, record)
            except ValueError as exc:
                raise RecoveryError(
                    f"WAL record seq={record.seq} ({record.op_name} "
                    f"{record.key!r} x{record.count}) cannot be applied "
                    f"— the log and snapshot diverge: {exc}") from exc


def recover(directory: str, *,
            factory: Callable[[], SpectralBloomFilter] | None = None,
            io: FileIO | None = None,
            strict: bool = True,
            ) -> tuple[SpectralBloomFilter, RecoveryReport]:
    """Rebuild the filter persisted under *directory*.

    Args:
        directory: the durability directory (snapshots + WAL).
        factory: builds the empty filter when no snapshot exists yet (a
            crash before the first checkpoint); must produce the same
            configuration the WAL was written against.  Without it, a
            snapshot is required.
        io: filesystem layer (a :class:`~repro.persist.crashsim.CrashIO`
            under test).
        strict: raise :class:`RecoveryError` if the rebuilt filter fails
            ``check_integrity()`` (set False to get the filter plus the
            issues in the report — e.g. for Minimal Increase filters whose
            clamped deletions legitimately bend the sum invariant).

    Returns:
        ``(filter, report)``.

    Raises:
        RecoveryError: no snapshot and no *factory*, or (with *strict*)
            the recovered filter fails its integrity audit.
    """
    io = io or FileIO()
    store = SnapshotStore(directory, io=io)
    report = RecoveryReport()
    loaded = store.load_latest()
    if loaded is not None:
        sbf, snap_seq, generation, rejected = loaded
        report.snapshot_generation = generation
        report.snapshot_seq = snap_seq
        report.snapshots_rejected = rejected
    elif factory is not None:
        sbf = factory()
        snap_seq = 0
    else:
        raise RecoveryError(
            f"no usable snapshot under {directory!r} and no factory to "
            f"build an empty filter")

    wal_path = f"{directory}/{WAL_NAME}"
    records, scan = replay(wal_path, io=io, after_seq=snap_seq)
    _replay_records(sbf, records)
    report.records_replayed = len(records)
    report.last_seq = max(scan.last_seq, snap_seq)
    report.scan = scan
    if scan.reason is not None:
        report.torn_tail = scan.reason
        report.truncated_at = scan.good_end
        io.truncate(wal_path, scan.good_end)

    report.integrity_issues = sbf.check_integrity()
    if strict and report.integrity_issues:
        raise RecoveryError(
            "recovered filter failed its integrity audit: "
            + "; ".join(report.integrity_issues))
    return sbf, report
