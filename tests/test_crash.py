"""Exhaustive crash-schedule matrix over the persistence layer.

For a fixed workload, a probe run against an instrumented (but perfect)
:class:`FileIO` learns the complete write schedule: total bytes written,
fsync calls, replace (rename) calls.  Each test then re-runs the workload
once per crash point — every byte offset of every write, every rename,
every fsync — and proves the ARIES-lite contract:

- ``recover()`` returns a filter whose counters equal replaying some
  *prefix* of the acknowledged operation sequence;
- the prefix covers at least every operation acknowledged before the
  crash (with ``fsync="always"``);
- the recovered filter passes ``check_integrity()``;
- no torn or corrupt record is ever applied.

All schedules are deterministic, so a failure reproduces exactly.
"""

import pytest

from repro.core.sbf import SpectralBloomFilter
from repro.persist import (
    CrashIO,
    DurableSBF,
    FileIO,
    SimulatedCrash,
    recover,
)

pytestmark = pytest.mark.crash


def factory():
    return SpectralBloomFilter(64, 3, seed=7)


#: mixed workload: inserts, deletes, and a key-level set
OPS = [
    ("insert", "alpha", 3),
    ("insert", "beta", 1),
    ("delete", "alpha", 1),
    ("set", "gamma", 5),
    ("insert", "delta", 2),
    ("delete", "beta", 1),
    ("set", "gamma", 2),
    ("insert", "alpha", 4),
]


def apply_reference(sbf, op, key, count):
    if op == "insert":
        sbf.insert(key, count)
    elif op == "delete":
        sbf.delete(key, count)
    else:  # set — the same delta reduction the durable handle performs
        current = sbf.query(key)
        if count > current:
            sbf.insert(key, count - current)
        elif count < current:
            sbf.delete(key, current - count)


def reference_states():
    """Counter vectors after every prefix of OPS (index = prefix length)."""
    sbf = factory()
    states = [sbf.counters.to_list()]
    for op, key, count in OPS:
        apply_reference(sbf, op, key, count)
        states.append(sbf.counters.to_list())
    return states


def drive(io, directory, checkpoint_after=()):
    """Run OPS through a durable handle; returns ops acknowledged.

    Crashes propagate to the caller; ``acked`` counts only operations
    that returned successfully before the crash.
    """
    acked = 0
    handle = DurableSBF.open(directory, factory=factory, io=io)
    for i, (op, key, count) in enumerate(OPS):
        getattr(handle, op)(key, count)
        acked += 1
        if i in checkpoint_after:
            handle.checkpoint()
    return acked


def probe_schedule(tmp_path, checkpoint_after=()):
    io = FileIO()
    drive(io, str(tmp_path / "probe"), checkpoint_after)
    return io


def assert_prefix_consistent(directory, acked, refs, label):
    sbf, report = recover(directory, factory=factory, io=FileIO())
    got = sbf.counters.to_list()
    matches = [p for p, ref in enumerate(refs) if ref == got]
    assert matches, (
        f"[{label}] recovered counters match no prefix of the workload "
        f"(acked={acked})")
    assert any(p >= acked for p in matches), (
        f"[{label}] recovered state lost acknowledged operations: "
        f"prefixes {matches} < acked {acked}")
    assert sbf.check_integrity() == [], (
        f"[{label}] recovered filter failed its integrity audit")
    return sbf, report


class TestExhaustiveWALCrashes:
    def test_every_byte_offset_recovers_to_an_acked_prefix(self, tmp_path):
        refs = reference_states()
        total = probe_schedule(tmp_path).bytes_written
        assert total > 0
        for offset in range(total + 1):
            directory = str(tmp_path / f"b{offset}")
            io = CrashIO(crash_after_bytes=offset)
            acked = 0
            try:
                acked = drive(io, directory)
            except SimulatedCrash:
                acked = _acked_from(directory)
            assert_prefix_consistent(directory, acked, refs,
                                     f"crash_after_bytes={offset}")

    def test_acked_equals_durable_under_fsync_always(self, tmp_path):
        """With fsync='always', the recovered prefix is exactly the
        acknowledged prefix — nothing acknowledged is lost, nothing
        unacknowledged leaks in unless its record hit the disk whole."""
        refs = reference_states()
        total = probe_schedule(tmp_path).bytes_written
        for offset in range(0, total + 1, 7):
            directory = str(tmp_path / f"e{offset}")
            io = CrashIO(crash_after_bytes=offset)
            try:
                drive(io, directory)
                acked = len(OPS)
            except SimulatedCrash:
                acked = _acked_from(directory)
            sbf, _ = recover(directory, factory=factory, io=FileIO())
            got = sbf.counters.to_list()
            # fsync=always: an acked op is durable; at most the one
            # in-flight (never acked) op may additionally have survived.
            candidates = refs[acked:min(acked + 2, len(refs))]
            assert got in candidates


def _acked_from(directory):
    """Lower-bound the acknowledged-op count of a crashed run from disk.

    With ``fsync="always"`` an operation is acknowledged only after its
    record is complete and synced, so every complete on-disk record — in
    the log or covered by a snapshot — corresponds to an operation the
    crashed process either acknowledged or was about to acknowledge
    (the record hit the disk whole, the return never ran).  Both must
    survive recovery, so counting them is the conservative direction.
    """
    from repro.persist import SnapshotStore, replay
    records, _ = replay(f"{directory}/wal.log", io=FileIO())
    gens = SnapshotStore(directory, io=FileIO()).generations()
    snapshot_seq = gens[-1][1] if gens else 0
    last = max([r.seq for r in records], default=0)
    return max(last, snapshot_seq)


class TestExhaustiveCheckpointCrashes:
    CHECKPOINTS = (2, 5)

    def test_every_byte_offset_with_checkpoints(self, tmp_path):
        refs = reference_states()
        total = probe_schedule(tmp_path, self.CHECKPOINTS).bytes_written
        for offset in range(total + 1):
            directory = str(tmp_path / f"c{offset}")
            io = CrashIO(crash_after_bytes=offset)
            acked = 0
            try:
                acked = drive(io, directory, self.CHECKPOINTS)
            except SimulatedCrash:
                acked = _acked_from(directory)
            assert_prefix_consistent(directory, acked, refs,
                                     f"ckpt crash_after_bytes={offset}")

    def test_every_rename_crash(self, tmp_path):
        refs = reference_states()
        replaces = probe_schedule(tmp_path, self.CHECKPOINTS).replace_calls
        assert replaces == len(self.CHECKPOINTS)
        for n in range(1, replaces + 1):
            for kind in ("before", "after"):
                directory = str(tmp_path / f"r{kind}{n}")
                io = CrashIO(**{f"crash_{kind}_replace": n})
                acked = 0
                try:
                    acked = drive(io, directory, self.CHECKPOINTS)
                except SimulatedCrash:
                    acked = _acked_from(directory)
                sbf, report = assert_prefix_consistent(
                    directory, acked, refs, f"replace {kind} #{n}")
                # A crashed snapshot write must never lose data: the WAL
                # still covers everything, so recovery is exact.
                expected = reference_states()[acked]
                assert sbf.counters.to_list() == expected, (
                    f"rename crash ({kind} #{n}) lost operations")

    def test_every_fsync_crash(self, tmp_path):
        refs = reference_states()
        fsyncs = probe_schedule(tmp_path, self.CHECKPOINTS).fsync_calls
        for n in range(1, fsyncs + 1):
            directory = str(tmp_path / f"f{n}")
            io = CrashIO(crash_on_fsync=n)
            acked = 0
            try:
                acked = drive(io, directory, self.CHECKPOINTS)
            except SimulatedCrash:
                acked = _acked_from(directory)
            assert_prefix_consistent(directory, acked, refs,
                                     f"fsync #{n}")


#: ops per ``execute`` call in the group-commit schedules
GROUP = 3


def drive_grouped(io, directory):
    """Run OPS through ``execute``, GROUP ops a call; returns the ops
    ``execute`` acknowledged.  A simulated crash inside a group lands in
    its slots, and then no op of that group may be acknowledged."""
    handle = DurableSBF.open(directory, factory=factory, io=io)
    acked = 0
    for lo in range(0, len(OPS), GROUP):
        outcomes = handle.execute(OPS[lo:lo + GROUP])
        failed = [isinstance(o, Exception) for o in outcomes]
        if any(failed):
            assert all(failed), outcomes
            return acked
        acked += len(outcomes)
    return acked


class TestGroupCommitCrashes:
    """The same contract when ``execute`` does the acknowledging: a crash
    inside a group recovers the pre-group state plus a prefix of the
    group's records."""

    def _assert_recovers_a_group_prefix(self, directory, acked, label):
        sbf, _ = recover(directory, factory=factory, io=FileIO())
        assert sbf.counters.to_list() in reference_states()[
            acked:acked + GROUP + 1], f"[{label}] acked={acked}"
        assert sbf.check_integrity() == [], label

    def test_acked_equals_durable_under_fsync_always(self, tmp_path):
        probe = FileIO()
        assert drive_grouped(probe, str(tmp_path / "probe")) == len(OPS)
        for offset in range(probe.bytes_written + 1):
            directory = str(tmp_path / f"g{offset}")
            acked = drive_grouped(CrashIO(crash_after_bytes=offset),
                                  directory)
            self._assert_recovers_a_group_prefix(
                directory, acked, f"crash_after_bytes={offset}")

    def test_every_fsync_crash_inside_a_group(self, tmp_path):
        probe = FileIO()
        drive_grouped(probe, str(tmp_path / "probe"))
        # One fsync per group: every group here holds a mutation.
        assert probe.fsync_calls == -(-len(OPS) // GROUP)
        for n in range(1, probe.fsync_calls + 1):
            directory = str(tmp_path / f"gf{n}")
            acked = drive_grouped(CrashIO(crash_on_fsync=n), directory)
            assert acked == (n - 1) * GROUP
            self._assert_recovers_a_group_prefix(directory, acked,
                                                 f"fsync #{n}")


class TestCorruptRecordsNeverApplied:
    def test_mid_log_bit_flip_recovers_the_clean_prefix(self, tmp_path):
        from repro.persist import flip_bit, replay
        refs = reference_states()
        directory = str(tmp_path / "flip")
        drive(FileIO(), directory)
        wal_path = f"{directory}/wal.log"
        records, _ = replay(wal_path)
        # Corrupt the body of the 4th record: recovery must stop at 3 ops.
        victim = records[3]
        flip_bit(wal_path, (victim.offset + victim.size - 6) * 8)
        sbf, report = recover(directory, factory=factory, io=FileIO())
        assert sbf.counters.to_list() == refs[3]
        assert report.records_replayed == 3
        assert report.torn_tail is not None
        # The damaged tail was truncated: a reopen is clean.
        records_after, scan = replay(wal_path)
        assert len(records_after) == 3 and scan.reason is None

    def test_recovery_is_idempotent(self, tmp_path):
        """Recovering twice (crash during recovery's truncation, then
        again) converges to the same state."""
        directory = str(tmp_path / "idem")
        io = CrashIO(crash_after_bytes=probe_schedule(tmp_path)
                     .bytes_written * 2 // 3)
        try:
            drive(io, directory)
        except SimulatedCrash:
            pass
        first, _ = recover(directory, factory=factory, io=FileIO())
        second, _ = recover(directory, factory=factory, io=FileIO())
        assert first.counters.to_list() == second.counters.to_list()
