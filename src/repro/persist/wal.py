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
incomplete, fails its CRC, breaks sequence monotonicity, carries an
unknown op code, or whose body does not decode to its op's shape (a JSON
scalar key, or for bulk ops a list of them, and int counts), and reports
the byte offset of the last good record so the caller can truncate the
tail.  A corrupt record is **never** yielded; everything before it is
provably intact.

One scan per open: a scan yields the records *and* the
:class:`ScanResult` (where the intact prefix ends, the last sequence
number), and recovery hands that result to the appender it opens, so a
log is read once however many parties need its prefix.  The scan keeps
every check but pays little per record: bodies decode through the C
JSON scanner (falling back to :func:`json.loads`, and so to its exact
semantics, wherever the scanner alone refuses a body), and records are
tuples.

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

Bodies are JSON, so logged keys must be JSON scalars: every append runs
the key rule (:func:`~repro.hashing.keys.check_key`) rather than letting
a non-round-tripping key poison replay.  Counts are not checked here: the
log's writers (:class:`~repro.persist.DurableSBF`, the hint queue) log
only what the core's count rule (:func:`~repro.core.sbf.check_count`)
and the verb's own guard have already accepted.
"""

from __future__ import annotations

import json
import os.path
import struct
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from repro.hashing.keys import JSON_SCALARS, check_key, check_keys
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


#: the C scanner :func:`json.loads` runs underneath its wrappers
_scan_json = json.JSONDecoder().scan_once
#: the record body encoder, built once: ``json.dumps`` given any of
#: these arguments builds an encoder per call.  Bulk bodies carry their
#: int64 arrays as lists.
_BODY = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                         default=np.ndarray.tolist)


class WALRecord(NamedTuple):
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
    body = _BODY.encode([key, count]).encode("utf-8")
    inner = _SEQ_OP.pack(seq, op) + body
    crc = zlib.crc32(inner) & 0xFFFFFFFF
    return _LEN.pack(len(inner) + _CRC.size) + inner + _CRC.pack(crc)


def _decode_body(raw: bytes) -> object:
    """Decode a record body exactly as ``json.loads`` would.

    The scanner alone accepts a body that is one JSON value with nothing
    around it — every body the log writes.  Anything else (surrounding
    whitespace, trailing data, no value at all) goes to ``json.loads``,
    which accepts or refuses it with its own semantics and messages.
    """
    text = raw.decode("utf-8")
    try:
        body, end = _scan_json(text, 0)
        if end == len(text):
            return body
    except (StopIteration, ValueError):
        pass
    return json.loads(text)


def _scan(data: bytes, after_seq: int = 0,
          ) -> tuple[list[WALRecord], ScanResult]:
    """Parse a log image: the intact records with ``seq > after_seq``,
    plus where the intact prefix ends.

    Checks every record in order — length, CRC, sequence monotonicity,
    op code, body decode, body shape — and stops at the first that fails.
    The loop binds its per-record calls to locals: a log holds tens of
    thousands of records, each a few microseconds of work.
    """
    records: list[WALRecord] = []
    keep, make = records.append, WALRecord._make
    unpack_len, unpack_crc = _LEN.unpack_from, _CRC.unpack_from
    unpack_seq_op, crc32 = _SEQ_OP.unpack_from, zlib.crc32
    offset = prev_seq = 0
    total = len(data)
    reason = None
    while offset < total:
        if offset + _LEN.size > total:
            reason = "torn length prefix"
            break
        (length,) = unpack_len(data, offset)
        if length < _OVERHEAD:
            reason = f"record length {length} below minimum"
            break
        start = offset + _LEN.size          # seq | op | body | crc
        end = start + length
        if end > total:
            reason = f"torn record body ({end - total} bytes missing)"
            break
        crc_at = end - _CRC.size
        if unpack_crc(data, crc_at)[0] != crc32(data[start:crc_at]):
            reason = "checksum mismatch"
            break
        seq, op = unpack_seq_op(data, start)
        if seq <= prev_seq:
            reason = f"sequence regression ({seq} after {prev_seq})"
            break
        if op not in OP_NAMES:
            reason = f"unknown op code {op}"
            break
        try:
            body = _decode_body(data[start + _SEQ_OP.size:crc_at])
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            reason = f"corrupt body: {exc}"
            break
        if type(body) is not list or len(body) != 2:
            reason = f"malformed body {body!r}"
            break
        key, count = body
        if op in BULK_OPS:
            if (type(key) is not list or type(count) is not list
                    or len(key) != len(count)
                    or any(not isinstance(k, JSON_SCALARS) for k in key)
                    or any(type(c) is not int or c < 0 for c in count)):
                reason = f"malformed bulk body at seq {seq}"
                break
        elif type(count) is not int or not isinstance(key, JSON_SCALARS):
            reason = f"malformed body {body!r}"
            break
        if seq > after_seq:
            keep(make((seq, op, key, count, offset, end - offset)))
        prev_seq = seq
        offset = end
    return records, ScanResult(last_seq=max(prev_seq, after_seq),
                               records=len(records), good_end=offset,
                               reason=reason)


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
        return _scan(handle.read(), after_seq)


class WriteAheadLog:
    """Appender half of the log (reading is :func:`replay`'s job).

    Opening an existing file takes its scan — the caller's, or its own —
    truncates any torn tail (the file may be the survivor of a crash),
    and continues the sequence numbering after the last intact record.
    Appends are thread-safe: a lock orders concurrent writers, so the
    on-disk record order is a linearisation of the acknowledged
    operations.

    Args:
        path: log file location.
        fsync: ``"always"`` (default), an int *N* for every-N-appends, or
            ``"checkpoint"`` — see the module docstring for the trade-off.
        io: filesystem layer (a :class:`~repro.persist.crashsim.CrashIO`
            under test).
        scan: the :func:`replay` result of this file as it stands (a
            reader that just scanned it, such as recovery), so the file
            is not read a second time; by default the log scans it.
    """

    def __init__(self, path: str, *, fsync: object = "always",
                 io: FileIO | None = None, scan: ScanResult | None = None):
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
        if scan is None:
            _, scan = replay(self.path, io=self.io)
        if existed and self.io.file_size(self.path) > scan.good_end:
            self.io.truncate(self.path, scan.good_end)
        self.next_seq = scan.last_seq + 1
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

    # -- appending (counts arrive checked by the core's count rule) -------
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
        return self._write(OP_INSERT, check_key(key), count)

    def log_delete(self, key: object, count: int = 1) -> int:
        """Append a delete record; returns its sequence number."""
        return self._write(OP_DELETE, check_key(key), count)

    def log_set(self, key: object, count: int) -> int:
        """Append a set-frequency record (``f_key := count``)."""
        return self._write(OP_SET, check_key(key), count)

    def log_insert_many(self, keys, counts) -> int:
        """Append one record covering a whole insert batch.

        A batch is durable (or lost) as a unit: one record, one CRC, one
        fsync — the amortisation that makes bulk ingest worth logging.
        """
        return self._write(OP_INSERT_MANY, check_keys(keys), counts)

    def log_delete_many(self, keys, counts) -> int:
        """Append one record covering a whole delete batch."""
        return self._write(OP_DELETE_MANY, check_keys(keys), counts)

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
