"""Crash-consistent persistence for spectral filters.

Everything the in-memory SBF stack lacks to serve as a durable system:

- :mod:`repro.persist.wal` — sequence-numbered, CRC-trailed write-ahead
  log with a configurable fsync policy;
- :mod:`repro.persist.snapshot` — atomic, generation-numbered checkpoints
  (write-temp → fsync → rename) over the serialize-v2 frame;
- :mod:`repro.persist.recovery` — ARIES-lite ``recover()``: newest good
  snapshot, replay of the intact WAL suffix, torn-tail truncation,
  integrity audit;
- :mod:`repro.persist.durable` — :class:`DurableSBF`, the write-ahead
  serving handle tying the three together;
- :mod:`repro.persist.concurrent` — :class:`ConcurrentSBF`, one
  reader-writer lock per shard with bounded waits for multi-threaded
  serving;
- :mod:`repro.persist.crashsim` — deterministic filesystem fault
  injection (torn writes, lost renames/fsyncs), the disk sibling of
  :mod:`repro.db.faults`.
"""

from repro.persist.concurrent import ConcurrentSBF, LockTimeout
from repro.persist.crashsim import (
    CrashIO,
    FileIO,
    SimulatedCrash,
    flip_bit,
    torn_write,
)
from repro.persist.durable import DurableSBF
from repro.persist.recovery import (
    RecoveryError,
    RecoveryReport,
    recover,
)
from repro.persist.snapshot import (
    SnapshotError,
    SnapshotStore,
    atomic_write_bytes,
    read_frame_file,
)
from repro.persist.wal import (
    OP_DELETE,
    OP_DELETE_MANY,
    OP_INSERT,
    OP_INSERT_MANY,
    OP_SET,
    ScanResult,
    WALRecord,
    WriteAheadLog,
    replay,
)

__all__ = [
    "ConcurrentSBF",
    "LockTimeout",
    "CrashIO",
    "FileIO",
    "SimulatedCrash",
    "flip_bit",
    "torn_write",
    "DurableSBF",
    "RecoveryError",
    "RecoveryReport",
    "recover",
    "SnapshotError",
    "SnapshotStore",
    "atomic_write_bytes",
    "read_frame_file",
    "OP_INSERT",
    "OP_DELETE",
    "OP_INSERT_MANY",
    "OP_DELETE_MANY",
    "OP_SET",
    "ScanResult",
    "WALRecord",
    "WriteAheadLog",
    "replay",
]
