"""Append-only write-ahead log of filter operations.

Record layout (little-endian)::

    record := length:u32 | seq:u64 | op:u8 | body | crc32:u32

``length`` counts everything after itself (``seq`` through ``crc32``), so
a reader can skip records without parsing bodies; the CRC covers ``seq``
through ``body``.  Sequence numbers are assigned by the log, start at 1,
and increase strictly — across checkpoint resets too — so a snapshot
taken at sequence ``S`` tells recovery exactly which records to replay
(``seq > S``).

Torn-write discipline: a crash can leave at most a *suffix* of the file
damaged.  :func:`replay` therefore stops at the first record that is
incomplete, fails its CRC, or breaks sequence monotonicity, and reports
the byte offset of the last good record so the caller can truncate the
tail.  A corrupt record is **never** yielded; everything before it is
provably intact.

Fsync policy (the classic durability/throughput dial):

- ``"always"`` — fsync after every append; an acknowledged operation is
  durable even through an immediate power cut.
- ``N`` (int) — fsync every *N* appends; bounds loss to the last ``N-1``
  acknowledged operations.
- ``"checkpoint"`` — fsync only at checkpoints (and explicit
  :meth:`sync` calls); fastest, loses up to a whole checkpoint interval.

Group commit: inside :meth:`WriteAheadLog.group` every operation still
appends its own record, but the fsyncs the policy owes collapse into at
most one, taken as the block exits — so a caller that acknowledges the
group's operations only after the block (as
:meth:`~repro.persist.DurableSBF.execute` does) keeps the policy's
promise at one fsync per group.

Bodies are JSON, so logged keys must be JSON scalars (``str``/``int``/
``float``/``bool``/``None``) — the natural key types of a serving system;
:meth:`log_insert` rejects anything else up front rather than letting a
non-round-tripping key poison replay.
"""

from __future__ import annotations

import json
import os.path
import struct
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.persist.crashsim import FileIO

#: operation codes stored in WAL records
OP_INSERT = 1
OP_DELETE = 2
OP_SET = 3
#: bulk operations: the body is ``[keys, counts]`` (two equal-length
#: lists) instead of ``[key, count]`` — one record, one fsync, one
#: sequence number for a whole batch.
OP_INSERT_MANY = 4
OP_DELETE_MANY = 5

OP_NAMES = {OP_INSERT: "insert", OP_DELETE: "delete", OP_SET: "set",
            OP_INSERT_MANY: "insert_many", OP_DELETE_MANY: "delete_many"}

#: ops whose body carries a key/count *batch* rather than a single pair
BULK_OPS = frozenset({OP_INSERT_MANY, OP_DELETE_MANY})

_LEN = struct.Struct("<I")
_SEQ_OP = struct.Struct("<QB")
_CRC = struct.Struct("<I")
#: bytes of a record that are not body: seq(8) + op(1) + crc(4)
_OVERHEAD = _SEQ_OP.size + _CRC.size

#: key types that round-trip through JSON bodies unchanged; shared with
#: the app-layer checkpoints (e.g. the sliding window's buffer items)
SCALAR_KEY_TYPES = (str, int, float, bool, type(None))


class WALError(ValueError):
    """A write-ahead log file is structurally unusable (not merely torn)."""


@dataclass(frozen=True)
class WALRecord:
    """One decoded log record.

    For bulk ops (:data:`OP_INSERT_MANY` / :data:`OP_DELETE_MANY`),
    ``key`` holds the *list* of keys and ``count`` the matching list of
    counts.
    """

    seq: int
    op: int
    key: object
    count: object
    #: byte offset of the record's start in the file
    offset: int
    #: total encoded size in bytes
    size: int

    @property
    def op_name(self) -> str:
        return OP_NAMES.get(self.op, f"op{self.op}")


@dataclass(frozen=True)
class ScanResult:
    """Outcome of walking a WAL file from the front.

    ``good_end`` is the offset one past the last intact record; anything
    beyond it is a torn or corrupt tail (``reason`` says why it stopped,
    ``None`` for a clean end-of-file).
    """

    last_seq: int
    records: int
    good_end: int
    reason: str | None


def _encode(seq: int, op: int, key: object, count: int) -> bytes:
    body = json.dumps([key, count], sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    inner = _SEQ_OP.pack(seq, op) + body
    crc = zlib.crc32(inner) & 0xFFFFFFFF
    return _LEN.pack(len(inner) + _CRC.size) + inner + _CRC.pack(crc)


def _iter_records(data: bytes) -> Iterator[WALRecord]:
    """Yield intact records; raise ``_Stop`` at the first damaged one."""
    offset = 0
    prev_seq = 0
    total = len(data)
    while offset < total:
        if offset + _LEN.size > total:
            raise _Stop(offset, "torn length prefix")
        (length,) = _LEN.unpack_from(data, offset)
        if length < _OVERHEAD:
            raise _Stop(offset, f"record length {length} below minimum")
        end = offset + _LEN.size + length
        if end > total:
            raise _Stop(offset, f"torn record body ({end - total} bytes "
                                 f"missing)")
        inner = data[offset + _LEN.size:end - _CRC.size]
        (stored_crc,) = _CRC.unpack_from(data, end - _CRC.size)
        if stored_crc != (zlib.crc32(inner) & 0xFFFFFFFF):
            raise _Stop(offset, "checksum mismatch")
        seq, op = _SEQ_OP.unpack_from(inner)
        if seq <= prev_seq:
            raise _Stop(offset, f"sequence regression ({seq} after "
                                 f"{prev_seq})")
        if op not in OP_NAMES:
            raise _Stop(offset, f"unknown op code {op}")
        try:
            body = json.loads(inner[_SEQ_OP.size:].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _Stop(offset, f"corrupt body: {exc}")
        if not isinstance(body, list) or len(body) != 2:
            raise _Stop(offset, f"malformed body {body!r}")
        if op in BULK_OPS:
            keys, counts = body
            if (not isinstance(keys, list) or not isinstance(counts, list)
                    or len(keys) != len(counts)
                    or any(not isinstance(c, int) or isinstance(c, bool)
                           or c < 0 for c in counts)):
                raise _Stop(offset, f"malformed bulk body at seq {seq}")
        elif not isinstance(body[1], int) or isinstance(body[1], bool):
            raise _Stop(offset, f"malformed body {body!r}")
        yield WALRecord(seq=seq, op=op, key=body[0], count=body[1],
                        offset=offset, size=end - offset)
        prev_seq = seq
        offset = end


class _Stop(Exception):
    """Internal: scanning hit the damaged tail at ``offset``."""

    def __init__(self, offset: int, reason: str):
        super().__init__(reason)
        self.offset = offset
        self.reason = reason


def replay(path: str, *, io: FileIO | None = None,
           after_seq: int = 0) -> tuple[list[WALRecord], ScanResult]:
    """Read every intact record with ``seq > after_seq``.

    Returns the records plus a :class:`ScanResult` describing where the
    intact prefix ends.  Corrupt or torn records are never returned, and
    nothing after the first damaged byte is trusted (a later record with
    a valid CRC could be a stale leftover from a recycled file).
    """
    io = io or FileIO()
    if not io.exists(path):
        return [], ScanResult(last_seq=after_seq, records=0, good_end=0,
                              reason=None)
    with io.open(path, "rb") as handle:
        data = handle.read()
    records: list[WALRecord] = []
    last_seq = 0
    good_end = 0
    reason = None
    try:
        for record in _iter_records(data):
            last_seq = record.seq
            good_end = record.offset + record.size
            if record.seq > after_seq:
                records.append(record)
    except _Stop as stop:
        good_end = stop.offset
        reason = stop.reason
    return records, ScanResult(last_seq=max(last_seq, after_seq),
                               records=len(records), good_end=good_end,
                               reason=reason)


class WriteAheadLog:
    """Appender half of the log (reading is :func:`replay`'s job).

    Opening an existing file scans it, truncates any torn tail (the file
    may be the survivor of a crash), and continues the sequence numbering
    after the last intact record.  Appends are thread-safe: a lock orders
    concurrent writers, so the on-disk record order is a linearisation of
    the acknowledged operations.

    Args:
        path: log file location.
        fsync: ``"always"`` (default), an int *N* for every-N-appends, or
            ``"checkpoint"`` — see the module docstring for the trade-off.
        io: filesystem layer (a :class:`~repro.persist.crashsim.CrashIO`
            under test).
        next_seq: first sequence number to assign; defaults to one past
            whatever the existing file ends with.  Pass a value after an
            external recovery decided the true horizon (e.g. a snapshot
            newer than the log).
    """

    def __init__(self, path: str, *, fsync: object = "always",
                 io: FileIO | None = None, next_seq: int | None = None):
        self.path = str(path)
        self.io = io or FileIO()
        self._policy_every = self._parse_policy(fsync)
        self.fsync_policy = fsync
        self._lock = threading.Lock()
        self._since_sync = 0
        #: thread inside :meth:`group` (its owed fsyncs wait for the exit)
        self._grouping: int | None = None
        self._sync_owed = False
        self.appends = 0
        existed = self.io.exists(self.path)
        _, scan = replay(self.path, io=self.io)
        if scan.reason is not None or (
                self.io.exists(self.path)
                and self.io.file_size(self.path) > scan.good_end):
            self.io.truncate(self.path, scan.good_end)
        seq = scan.last_seq + 1
        if next_seq is not None:
            if next_seq <= scan.last_seq:
                raise WALError(
                    f"next_seq {next_seq} would reuse sequence numbers "
                    f"(log already ends at {scan.last_seq})")
            seq = next_seq
        self.next_seq = seq
        self._file = self.io.open(self.path, "ab")
        if not existed:
            # A freshly created file is only durable once its directory
            # entry is — otherwise a power cut can drop the whole file,
            # losing appends already acknowledged under fsync="always".
            self.io.fsync_dir(os.path.dirname(self.path) or ".")

    @staticmethod
    def _parse_policy(fsync: object) -> int:
        """Normalise the policy to 'fsync every N appends' (0 = never)."""
        if fsync == "always":
            return 1
        if fsync == "checkpoint":
            return 0
        if isinstance(fsync, int) and not isinstance(fsync, bool) \
                and fsync >= 1:
            return fsync
        raise ValueError(
            f"fsync policy must be 'always', 'checkpoint', or a positive "
            f"int, got {fsync!r}")

    # -- appending -------------------------------------------------------
    def _append(self, op: int, key: object, count: int) -> int:
        if not isinstance(key, SCALAR_KEY_TYPES):
            raise TypeError(
                f"WAL keys must be JSON scalars (str/int/float/bool/None), "
                f"got {type(key).__name__}")
        if not isinstance(count, int) or isinstance(count, bool):
            raise TypeError(f"count must be an int, got {count!r}")
        return self._write(op, key, count)

    def _write(self, op: int, key: object, count) -> int:
        """Append one validated record; fsync when the policy says so."""
        with self._lock:
            seq = self.next_seq
            self._file.write(_encode(seq, op, key, count))
            self.next_seq = seq + 1
            self.appends += 1
            self._since_sync += 1
            if self._policy_every and self._since_sync >= self._policy_every:
                if self._grouping == threading.get_ident():
                    self._sync_owed = True
                else:
                    self.io.fsync(self._file)
                    self._since_sync = 0
        return seq

    def log_insert(self, key: object, count: int = 1) -> int:
        """Append an insert record; returns its sequence number."""
        return self._append(OP_INSERT, key, count)

    def log_delete(self, key: object, count: int = 1) -> int:
        """Append a delete record; returns its sequence number."""
        return self._append(OP_DELETE, key, count)

    def log_set(self, key: object, count: int) -> int:
        """Append a set-frequency record (``f_key := count``)."""
        if count < 0:
            raise ValueError(f"set count must be >= 0, got {count}")
        return self._append(OP_SET, key, count)

    def _append_bulk(self, op: int, keys: list, counts: list) -> int:
        if len(keys) != len(counts):
            raise ValueError(
                f"got {len(keys)} keys but {len(counts)} counts")
        for key in keys:
            if not isinstance(key, SCALAR_KEY_TYPES):
                raise TypeError(
                    f"WAL keys must be JSON scalars (str/int/float/bool/"
                    f"None), got {type(key).__name__}")
        for count in counts:
            if not isinstance(count, int) or isinstance(count, bool) \
                    or count < 0:
                raise ValueError(
                    f"bulk counts must be ints >= 0, got {count!r}")
        return self._write(op, keys, counts)

    def log_insert_many(self, keys: list, counts: list) -> int:
        """Append one record covering a whole insert batch.

        A batch is durable (or lost) as a unit: one record, one CRC, one
        fsync — the amortisation that makes bulk ingest worth logging.
        """
        return self._append_bulk(OP_INSERT_MANY, keys, counts)

    def log_delete_many(self, keys: list, counts: list) -> int:
        """Append one record covering a whole delete batch."""
        return self._append_bulk(OP_DELETE_MANY, keys, counts)

    # -- durability points -------------------------------------------------
    @contextmanager
    def group(self) -> Iterator["WriteAheadLog"]:
        """Group commit for the calling thread's appends inside the block.

        Each append still writes its own record, but the fsyncs the
        policy owes wait for the block's exit and collapse into one (none
        under ``"checkpoint"``, none if no append was due one).  That
        fsync raising means no append of the block may be acknowledged.
        Appends from other threads keep their own fsyncs; one thread at a
        time may hold a group open.
        """
        self._grouping = threading.get_ident()
        try:
            yield self
        finally:
            self._grouping = None
            if self._sync_owed:
                self._sync_owed = False
                self.sync()

    def sync(self) -> None:
        """Force everything appended so far to disk, whatever the policy."""
        with self._lock:
            self.io.fsync(self._file)
            self._since_sync = 0

    def reset(self) -> None:
        """Discard all records (their effects are in a durable snapshot).

        Sequence numbering continues — snapshots reference absolute
        sequence numbers, so they must never be reused.
        """
        with self._lock:
            self._file.close()
            with self.io.open(self.path, "wb") as handle:
                self.io.fsync(handle)
            self._file = self.io.open(self.path, "ab")
            self._since_sync = 0

    def close(self) -> None:
        if not self._file.closed:
            self.io.fsync(self._file)
            self._file.close()

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently appended record."""
        return self.next_seq - 1

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
