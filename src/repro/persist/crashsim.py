"""Deterministic filesystem fault injection (the disk sibling of
:mod:`repro.db.faults`).

The durability layer never touches :mod:`os` directly: every file open,
fsync, and rename goes through a :class:`FileIO` object.  The default
instance performs the real system calls; :class:`CrashIO` is a drop-in
replacement that kills the "process" at an arbitrary point in the write
schedule — after a chosen number of bytes have reached the file, or at a
chosen fsync or rename call — by writing only the prefix that would have
hit the disk and then raising :class:`SimulatedCrash`.

Because the budget is a *byte offset into the total write stream*, a test
can first run a workload against a plain :class:`FileIO` to learn how many
bytes it writes, then re-run it once per offset and prove that
:func:`repro.persist.recovery.recover` restores a prefix-consistent filter
from **every** possible torn write — the filesystem analogue of the chaos
suite's exhaustive fault schedules.

Crash semantics modelled:

- *torn write*: ``crash_after_bytes=B`` lets exactly ``B`` further bytes
  reach files (across all of them, in write order), then crashes.  A
  record straddling the boundary is left half-written, exactly like a
  power cut mid-``write(2)``.
- *lost rename*: ``crash_before_replace=n`` crashes on the *n*-th
  ``replace`` call before it happens (the new file never appears);
  ``crash_after_replace=n`` crashes just after (the rename is durable but
  whatever bookkeeping follows never runs).  ``os.replace`` itself is
  atomic, so these two cases are the only observable outcomes.
- *lost fsync*: ``crash_on_fsync=n`` crashes on the *n*-th fsync call,
  before it takes effect.

All counters (``bytes_written``, ``fsync_calls``, ``replace_calls``) are
maintained by the base class too, so a clean run doubles as the schedule
probe for the exhaustive matrix.
"""

from __future__ import annotations

import os


class SimulatedCrash(RuntimeError):
    """The injected process death.

    Test harnesses catch this where a real deployment would lose the
    process; everything the workload did afterwards is, by construction,
    unacknowledged.
    """


class FileIO:
    """Real filesystem operations, instrumented with write-schedule counters.

    Attributes:
        bytes_written: total bytes handed to ``write`` across all files.
        fsync_calls: number of :meth:`fsync` invocations.
        replace_calls: number of :meth:`replace` invocations.
    """

    def __init__(self):
        self.bytes_written = 0
        self.fsync_calls = 0
        self.replace_calls = 0

    # -- hooks subclasses override --------------------------------------
    def _admit(self, nbytes: int) -> int:
        """How many of the next *nbytes* may reach the file (all, here)."""
        return nbytes

    def _before_fsync(self) -> None:
        pass

    def _around_replace(self) -> None:
        pass

    def _after_replace(self) -> None:
        pass

    # -- operations ------------------------------------------------------
    def open(self, path: str, mode: str = "rb") -> "_TrackedFile":
        """Open *path*; writes through the handle obey the crash budget."""
        return _TrackedFile(open(path, mode), self)

    def fsync(self, fileobj) -> None:
        """Flush and fsync an open :meth:`open` handle."""
        self.fsync_calls += 1
        self._before_fsync()
        fileobj.flush()
        os.fsync(fileobj.fileno())

    def replace(self, src: str, dst: str) -> None:
        """Atomically rename *src* over *dst* (``os.replace``)."""
        self.replace_calls += 1
        self._around_replace()
        os.replace(src, dst)
        self._after_replace()

    def fsync_dir(self, path: str) -> None:
        """fsync a directory so a rename inside it is itself durable."""
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def listdir(self, path: str) -> list[str]:
        return os.listdir(path)

    def remove(self, path: str) -> None:
        os.remove(path)

    def makedirs(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    def file_size(self, path: str) -> int:
        return os.path.getsize(path)

    def truncate(self, path: str, size: int) -> None:
        """Cut *path* down to *size* bytes (recovery's torn-tail removal)."""
        with open(path, "r+b") as handle:
            handle.truncate(size)
            handle.flush()
            os.fsync(handle.fileno())


class _TrackedFile:
    """A file handle whose writes are metered (and possibly cut short)."""

    def __init__(self, raw, io: FileIO):
        self._raw = raw
        self._io = io

    def write(self, data: bytes) -> int:
        admitted = self._io._admit(len(data))
        if admitted >= len(data):
            self._io.bytes_written += len(data)
            return self._raw.write(data)
        # Torn write: the prefix reaches the file, then the process dies.
        if admitted:
            self._io.bytes_written += admitted
            self._raw.write(data[:admitted])
        self._raw.flush()
        self._raw.close()
        raise SimulatedCrash(
            f"crashed after {self._io.bytes_written} total bytes "
            f"({admitted}/{len(data)} of the final write)")

    def read(self, *args):
        return self._raw.read(*args)

    def flush(self):
        self._raw.flush()

    def fileno(self):
        return self._raw.fileno()

    @property
    def closed(self):
        return self._raw.closed

    def close(self):
        self._raw.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class CrashIO(FileIO):
    """A :class:`FileIO` that dies at a configured point in the schedule.

    Args:
        crash_after_bytes: let exactly this many further bytes reach files
            (in write order, across all files), then raise
            :class:`SimulatedCrash` — leaving the current write torn.
        crash_on_fsync: raise on the n-th (1-based) fsync call, before it
            takes effect.
        crash_before_replace: raise on the n-th replace call before the
            rename happens.
        crash_after_replace: raise on the n-th replace call just after the
            rename happened.

    Exactly reproducible: the same configuration against the same workload
    crashes at the same instruction.
    """

    def __init__(self, *, crash_after_bytes: int | None = None,
                 crash_on_fsync: int | None = None,
                 crash_before_replace: int | None = None,
                 crash_after_replace: int | None = None):
        super().__init__()
        for name, value in (("crash_after_bytes", crash_after_bytes),
                            ("crash_on_fsync", crash_on_fsync),
                            ("crash_before_replace", crash_before_replace),
                            ("crash_after_replace", crash_after_replace)):
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        self.crash_after_bytes = crash_after_bytes
        self.crash_on_fsync = crash_on_fsync
        self.crash_before_replace = crash_before_replace
        self.crash_after_replace = crash_after_replace

    def _admit(self, nbytes: int) -> int:
        if self.crash_after_bytes is None:
            return nbytes
        remaining = self.crash_after_bytes - self.bytes_written
        return nbytes if remaining >= nbytes else max(0, remaining)

    def _before_fsync(self) -> None:
        if self.crash_on_fsync is not None \
                and self.fsync_calls >= self.crash_on_fsync:
            raise SimulatedCrash(
                f"crashed on fsync call #{self.fsync_calls}")

    def _around_replace(self) -> None:
        if self.crash_before_replace is not None \
                and self.replace_calls >= self.crash_before_replace:
            raise SimulatedCrash(
                f"crashed before replace call #{self.replace_calls}")

    def _after_replace(self) -> None:
        if self.crash_after_replace is not None \
                and self.replace_calls >= self.crash_after_replace:
            raise SimulatedCrash(
                f"crashed after replace call #{self.replace_calls}")


def torn_write(path: str, data: bytes, crash_at: int) -> None:
    """Write only ``data[:crash_at]`` to *path* — a hand-rolled torn write.

    Convenience for tests that corrupt an existing file directly instead
    of driving a workload through :class:`CrashIO`.
    """
    if not 0 <= crash_at <= len(data):
        raise ValueError(
            f"crash_at must be within [0, {len(data)}], got {crash_at}")
    with open(path, "wb") as handle:
        handle.write(data[:crash_at])


def flip_bit(path: str, bit: int) -> None:
    """Flip one bit of an existing file in place (silent media corruption)."""
    with open(path, "r+b") as handle:
        handle.seek(bit // 8)
        byte = handle.read(1)
        if not byte:
            raise ValueError(f"bit {bit} is past the end of {path}")
        handle.seek(bit // 8)
        handle.write(bytes([byte[0] ^ (1 << (bit % 8))]))
