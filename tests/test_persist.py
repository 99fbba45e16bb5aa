"""Unit tests for the crash-consistent persistence layer.

The exhaustive crash-schedule matrices live in ``test_crash.py`` (marker
``crash``); this file covers the building blocks: WAL record discipline,
fsync policies, atomic snapshots with generation fallback, recovery
plumbing, the durable handle, and the app-layer wiring.
"""

import json
import os
import random
import struct
import zlib

import numpy as np
import pytest

from repro.core.sbf import SpectralBloomFilter
from repro.core.serialize import WireFormatError, open_frame, seal_frame
from repro.apps.sliding_window import SlidingWindowSBF
from repro.apps.summary_cache import build_mesh
from repro.persist import (
    ConcurrentSBF,
    CrashIO,
    DurableSBF,
    FileIO,
    RecoveryError,
    SimulatedCrash,
    SnapshotStore,
    WriteAheadLog,
    atomic_write_bytes,
    flip_bit,
    recover,
    replay,
    torn_write,
)
from repro.persist import recovery
from repro.persist.wal import (
    OP_DELETE,
    OP_DELETE_MANY,
    OP_INSERT,
    OP_INSERT_MANY,
    OP_SET,
    _encode,
)
from repro.serve import HintLog
from test_bulk import full_state


def factory():
    return SpectralBloomFilter(128, 4, seed=7)


def raw_record(seq: int, op: int, body: bytes) -> bytes:
    """A CRC-valid record around an arbitrary body (no JSON checks)."""
    inner = struct.pack("<QB", seq, op) + body
    return (struct.pack("<I", len(inner) + 4) + inner
            + struct.pack("<I", zlib.crc32(inner)))


class RecordingIO(FileIO):
    """A FileIO that records which directories were fsynced and which
    files were opened for reading."""

    def __init__(self):
        super().__init__()
        self.dir_fsyncs: list[str] = []
        self.reads: list[str] = []

    def fsync_dir(self, path: str) -> None:
        self.dir_fsyncs.append(path)
        super().fsync_dir(path)

    def open(self, path: str, mode: str = "rb"):
        if "r" in mode:
            self.reads.append(path)
        return super().open(path, mode)


# ----------------------------------------------------------------------
# write-ahead log
# ----------------------------------------------------------------------
class TestWAL:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            assert wal.log_insert("a", 3) == 1
            assert wal.log_delete("a", 1) == 2
            assert wal.log_set("b", 5) == 3
        records, scan = replay(path)
        assert [(r.op_name, r.key, r.count) for r in records] == [
            ("insert", "a", 3), ("delete", "a", 1), ("set", "b", 5)]
        assert scan.last_seq == 3 and scan.reason is None
        assert scan.good_end == os.path.getsize(path)

    def test_key_types_round_trip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        keys = ["text", 42, -7, 3.5, True, None]
        with WriteAheadLog(path) as wal:
            for key in keys:
                wal.log_insert(key)
        records, _ = replay(path)
        assert [r.key for r in records] == keys

    @pytest.mark.parametrize("key, count", [
        ("text", 1), ("ünï ☃ \U0001f600", 2), (-7, 3), (3.5, 1),
        (True, 1), (None, 1), (["x", 2, None], [1, 2, 3]),
        (np.arange(5, dtype=np.int64), np.array([1, 2, 3, 1, 1]))])
    def test_record_body_is_the_json_dumps_form(self, key, count):
        body = json.dumps([key, count], sort_keys=True,
                          separators=(",", ":"),
                          default=np.ndarray.tolist).encode("utf-8")
        record = _encode(9, OP_INSERT, key, count)
        assert record[13:-4] == body        # after len, seq and op; CRC

    def test_point_and_bulk_log_recovers_equal(self, tmp_path):
        handle = DurableSBF.open(str(tmp_path), factory=factory)
        reference = factory()
        for target in (handle, reference):
            target.insert("ünï", 2)
            target.insert(42)
            target.insert_many(np.arange(6, dtype=np.int64),
                               np.array([1, 2, 3, 1, 2, 3]))
            target.insert_many(["a", "b", "ünï"], [3, 1, 1])
            target.delete_many(np.array([0, 5]), [1, 2])
            target.delete("a")
            target.set("b", 4)
        handle.close()
        recovered, report = recover(str(tmp_path), factory=factory)
        assert report.records_replayed == 7
        assert full_state(recovered) == full_state(reference)

    def test_non_scalar_key_rejected_before_logging(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            with pytest.raises(TypeError):
                wal.log_insert(("tuple", "key"))
        records, scan = replay(path)
        assert records == [] and scan.reason is None

    def test_reopen_continues_sequence(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            wal.log_insert("a")
            wal.log_insert("b")
        with WriteAheadLog(path) as wal:
            assert wal.log_insert("c") == 3
        records, _ = replay(path)
        assert [r.seq for r in records] == [1, 2, 3]

    def test_torn_tail_is_detected_and_truncated_on_reopen(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            wal.log_insert("a", 3)
            wal.log_insert("b", 2)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 3)
        records, scan = replay(path)
        assert [r.key for r in records] == ["a"]
        assert scan.reason is not None
        # Reopening heals the file and reuses nothing.
        with WriteAheadLog(path) as wal:
            assert wal.log_insert("c") == 2
        records, scan = replay(path)
        assert [r.key for r in records] == ["a", "c"]
        assert scan.reason is None

    def test_bit_flip_stops_replay_before_corrupt_record(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            wal.log_insert("a", 1)
            second_start = os.path.getsize(path)
            wal.log_insert("b", 1)
            wal.log_insert("c", 1)
        flip_bit(path, (second_start + 6) * 8)
        records, scan = replay(path)
        # The corrupt record and everything after it are never yielded.
        assert [r.key for r in records] == ["a"]
        assert scan.good_end == second_start
        assert "checksum" in scan.reason or "sequence" in scan.reason \
            or "corrupt" in scan.reason or "length" in scan.reason \
            or "torn" in scan.reason or "unknown" in scan.reason \
            or "malformed" in scan.reason

    def test_fsync_policies(self, tmp_path):
        io_always = FileIO()
        wal = WriteAheadLog(str(tmp_path / "a.log"), fsync="always",
                            io=io_always)
        for i in range(4):
            wal.log_insert(i)
        wal.close()
        assert io_always.fsync_calls >= 4

        io_n = FileIO()
        wal = WriteAheadLog(str(tmp_path / "n.log"), fsync=4, io=io_n)
        for i in range(8):
            wal.log_insert(i)
        appends_synced = io_n.fsync_calls
        wal.close()
        assert appends_synced == 2  # every 4 appends

        io_ckpt = FileIO()
        wal = WriteAheadLog(str(tmp_path / "c.log"), fsync="checkpoint",
                            io=io_ckpt)
        for i in range(8):
            wal.log_insert(i)
        assert io_ckpt.fsync_calls == 0
        wal.sync()
        assert io_ckpt.fsync_calls == 1
        wal.close()

    def test_new_log_fsyncs_its_directory_entry(self, tmp_path):
        # Without the directory fsync, a power cut can drop the freshly
        # created file — losing appends acknowledged under fsync="always".
        io = RecordingIO()
        with WriteAheadLog(str(tmp_path / "wal.log"), io=io):
            pass
        assert io.dir_fsyncs == [str(tmp_path)]
        # Reopening an existing log needs no new directory entry.
        reopen_io = RecordingIO()
        with WriteAheadLog(str(tmp_path / "wal.log"), io=reopen_io):
            pass
        assert reopen_io.dir_fsyncs == []

    def test_bad_policy_rejected(self, tmp_path):
        for bad in ("sometimes", 0, -2, True, 1.5):
            with pytest.raises(ValueError):
                WriteAheadLog(str(tmp_path / "x.log"), fsync=bad)

    def test_reset_keeps_sequence_monotonic(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path) as wal:
            wal.log_insert("a")
            wal.log_insert("b")
            wal.reset()
            assert wal.log_insert("c") == 3
        records, _ = replay(path)
        assert [(r.seq, r.key) for r in records] == [(3, "c")]


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------
class TestSnapshots:
    def test_save_load_round_trip(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        sbf = factory()
        sbf.insert("a", 3)
        sbf.insert("b", 1)
        store.save(sbf, seq=17)
        loaded, seq, gen, rejected = store.load_latest()
        assert (seq, gen, rejected) == (17, 1, [])
        assert loaded.counters.to_list() == sbf.counters.to_list()
        assert loaded.query("a") == 3

    def test_generations_increase_and_prune(self, tmp_path):
        store = SnapshotStore(str(tmp_path), retain=2)
        sbf = factory()
        for seq in (1, 2, 3, 4):
            sbf.insert(f"k{seq}")
            store.save(sbf, seq=seq)
        gens = store.generations()
        assert [g for g, _, _ in gens] == [3, 4]

    def test_prune_never_counts_corrupt_generations(self, tmp_path):
        # With generations [1=good, 2=corrupt], saving generation 3 must
        # not delete gen 1: it is the only decodable fallback, and the
        # retain=2 window is "current plus fallback" in *valid* snapshots.
        store = SnapshotStore(str(tmp_path), retain=2)
        sbf = factory()
        sbf.insert("a", 2)
        store.save(sbf, seq=1)
        path2 = store.save(sbf, seq=2)
        flip_bit(path2, 200)
        sbf.insert("b")
        path3 = store.save(sbf, seq=3)
        assert [g for g, _, _ in store.generations()] == [1, 2, 3]
        # If gen 3 then rots too, recovery still reaches the good gen 1.
        flip_bit(path3, 200)
        loaded, seq, gen, rejected = store.load_latest()
        assert (seq, gen) == (1, 1)
        assert len(rejected) == 2
        assert loaded.query("a") == 2

    def test_atomic_write_fsyncs_directory_after_rename(self, tmp_path):
        io = RecordingIO()
        atomic_write_bytes(str(tmp_path / "state.bin"), b"payload", io=io)
        assert io.dir_fsyncs == [str(tmp_path)]

    def test_corrupt_newest_falls_back_a_generation(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        sbf = factory()
        sbf.insert("a", 2)
        store.save(sbf, seq=1)
        sbf.insert("b", 5)
        path2 = store.save(sbf, seq=2)
        flip_bit(path2, 123)
        loaded, seq, gen, rejected = store.load_latest()
        assert gen == 1 and seq == 1
        assert rejected == [os.path.basename(path2)]
        assert loaded.query("a") == 2 and loaded.query("b") == 0

    def test_all_generations_corrupt_returns_none(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        sbf = factory()
        path = store.save(sbf, seq=1)
        flip_bit(path, 99)
        assert store.load_latest() is None

    def test_renamed_snapshot_is_rejected(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        sbf = factory()
        path = store.save(sbf, seq=5)
        # An operator "helpfully" renames the file to a different seq.
        os.rename(path, str(tmp_path / "snap-00000001-9.sbf"))
        assert store.load_latest() is None

    def test_tmp_leftover_is_ignored(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        sbf = factory()
        sbf.insert("a")
        store.save(sbf, seq=1)
        (tmp_path / "snap-00000002.tmp").write_bytes(b"half a snapsho")
        loaded, seq, gen, _ = store.load_latest()
        assert (seq, gen) == (1, 1)

    def test_atomic_write_crash_before_replace_leaves_target_intact(
            self, tmp_path):
        path = str(tmp_path / "state.bin")
        atomic_write_bytes(path, b"generation one")
        io = CrashIO(crash_before_replace=1)
        with pytest.raises(SimulatedCrash):
            atomic_write_bytes(path, b"generation two", io=io)
        assert open(path, "rb").read() == b"generation one"


# ----------------------------------------------------------------------
# recovery
# ----------------------------------------------------------------------
class TestRecovery:
    def test_wal_only_recovery(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal.log"))
        wal.log_insert("a", 3)
        wal.log_insert("b", 1)
        wal.log_delete("a", 1)
        wal.log_set("c", 4)
        wal.close()
        sbf, report = recover(str(tmp_path), factory=factory)
        assert (sbf.query("a"), sbf.query("b"), sbf.query("c")) == (2, 1, 4)
        assert not report.used_snapshot
        assert report.records_replayed == 4
        assert report.integrity_issues == []

    def test_snapshot_plus_wal_suffix(self, tmp_path):
        handle = DurableSBF.open(str(tmp_path), factory=factory)
        handle.insert("a", 3)
        handle.checkpoint()
        handle.insert("b", 2)
        handle.close()
        sbf, report = recover(str(tmp_path), factory=factory)
        assert report.used_snapshot and report.snapshot_seq == 1
        assert report.records_replayed == 1
        assert sbf.query("a") == 3 and sbf.query("b") == 2

    def test_with_form_closes_the_wal(self, tmp_path):
        # README's documented form: leaving the block closes the WAL, and
        # recovery finds the snapshot plus the one record after it.
        with DurableSBF.open(str(tmp_path), factory=factory,
                             fsync="always") as handle:
            handle.insert("needle", 3)
            handle.checkpoint()
            handle.insert("hay")
        assert handle.wal._file.closed
        sbf, report = recover(str(tmp_path))
        assert sbf.query("needle") == 3 and sbf.query("hay") >= 1
        assert report.used_snapshot and report.records_replayed == 1

    def test_no_state_and_no_factory_raises(self, tmp_path):
        with pytest.raises(RecoveryError):
            recover(str(tmp_path))

    def test_torn_tail_is_truncated(self, tmp_path):
        wal_path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(wal_path)
        wal.log_insert("a", 1)
        wal.log_insert("b", 1)
        wal.close()
        size = os.path.getsize(wal_path)
        with open(wal_path, "r+b") as f:
            f.truncate(size - 2)
        sbf, report = recover(str(tmp_path), factory=factory)
        assert sbf.query("a") == 1 and sbf.query("b") == 0
        assert report.torn_tail is not None
        assert os.path.getsize(wal_path) == report.truncated_at

    def test_set_records_replay_to_live_state(self, tmp_path):
        handle = DurableSBF.open(str(tmp_path), factory=factory)
        handle.insert("x", 10)
        handle.set("x", 4)
        handle.set("y", 7)
        handle.set("x", 0)
        live = handle.sbf.counters.to_list()
        handle.close()
        sbf, _ = recover(str(tmp_path), factory=factory)
        assert sbf.counters.to_list() == live

    def test_recovery_audits_integrity(self, tmp_path):
        handle = DurableSBF.open(str(tmp_path), factory=factory)
        handle.insert("a", 3)
        path = handle.checkpoint()
        handle.close()
        assert recover(str(tmp_path), factory=factory)[1].integrity_issues \
            == []


# ----------------------------------------------------------------------
# parsing a log, and replaying it in same-verb runs
# ----------------------------------------------------------------------
class TestParse:
    @pytest.mark.parametrize("opener", ["recover", "open"])
    def test_non_scalar_key_stops_the_scan(self, tmp_path, opener):
        # A CRC-valid record whose key is not a JSON scalar is malformed
        # input from disk: it ends the intact prefix like any bad body,
        # never reaching a filter (whose hashing raises TypeError on it).
        good = _encode(1, OP_INSERT, "a", 1)
        (tmp_path / "wal.log").write_bytes(
            good + _encode(2, OP_INSERT, ["x", 1], 1)
            + _encode(3, OP_INSERT, "b", 1))
        if opener == "recover":
            sbf, report = recover(str(tmp_path), factory=factory)
        else:
            handle = DurableSBF.open(str(tmp_path), factory=factory)
            sbf, report = handle.sbf, handle.last_recovery
            assert handle.insert("c") == 2
            handle.close()
        assert (sbf.query("a"), sbf.query("b")) == (1, 0)
        assert report.torn_tail.startswith("malformed body")
        assert report.truncated_at == len(good)

    def test_hint_queue_stops_at_a_non_scalar_key(self, tmp_path):
        path = tmp_path / "r.hints"
        path.write_bytes(_encode(1, OP_INSERT, "a", 1)
                         + _encode(2, OP_INSERT, ["x", 1], 1))
        hints = HintLog(str(path))
        assert len(hints) == 1
        hints.close()

    @pytest.mark.parametrize("keys", [[["x"], "y"], ["y", {"x": 1}]])
    def test_bulk_record_with_a_non_scalar_key_stops_the_scan(
            self, tmp_path, keys):
        path = tmp_path / "wal.log"
        path.write_bytes(_encode(1, OP_INSERT, "a", 1)
                         + _encode(2, OP_INSERT_MANY, keys, [1, 1]))
        records, scan = replay(str(path))
        assert [r.key for r in records] == ["a"]
        assert scan.reason == "malformed bulk body at seq 2"

    def test_body_that_is_not_one_json_value_stops_the_scan(self, tmp_path):
        path = tmp_path / "wal.log"
        good = _encode(1, OP_INSERT, "a", 1)
        path.write_bytes(good + raw_record(2, OP_INSERT, b'["b",1],["c",1]')
                         + _encode(3, OP_INSERT, "d", 1))
        records, scan = replay(str(path))
        assert [r.key for r in records] == ["a"]
        assert scan.reason.startswith("corrupt body")
        assert scan.good_end == len(good)

    def test_body_decodes_as_json_loads_would(self, tmp_path):
        # json.loads accepts surrounding whitespace; so does the log.
        path = tmp_path / "wal.log"
        path.write_bytes(raw_record(1, OP_INSERT, b' ["e",1] ')
                         + raw_record(2, OP_SET, b'["f",\n 2]'))
        records, scan = replay(str(path))
        assert [(r.seq, r.op_name, r.key, r.count) for r in records] == [
            (1, "insert", "e", 1), (2, "set", "f", 2)]
        assert scan.reason is None

    def test_open_reads_the_log_once(self, tmp_path):
        handle = DurableSBF.open(str(tmp_path), factory=factory)
        handle.insert("a", 2)
        handle.delete("a")
        handle.close()
        with open(tmp_path / "wal.log", "ab") as f:
            f.write(b"torn")
        wal_path = f"{tmp_path}/wal.log"
        io = RecordingIO()
        reopened = DurableSBF.open(str(tmp_path), factory=factory, io=io)
        assert io.reads.count(wal_path) == 1
        assert reopened.last_recovery.torn_tail is not None
        assert os.path.getsize(wal_path) == \
            reopened.last_recovery.truncated_at
        assert reopened.insert("b") == 3
        reopened.close()

        hint_path = str(tmp_path / "r.hints")
        hints = HintLog(hint_path)
        hints.append("insert", "k", 1)
        hints.append_many("delete", ["k"], [1])
        hints.close()
        io = RecordingIO()
        reopened_hints = HintLog(hint_path, io=io)
        assert len(reopened_hints) == 2
        assert io.reads.count(hint_path) == 1
        reopened_hints.close()

    def test_a_drain_never_reads_the_hint_queue_back(self, tmp_path):
        hint_path = str(tmp_path / "r.hints")
        io = RecordingIO()
        hints = HintLog(hint_path, io=io)
        for i in range(40):
            hints.append("insert", f"k{i}", 1 + i % 3)
        hints.append_many("delete", ["k0", "k1"], [1, 1])
        applied = []

        def apply(verb, key, count):
            if len(applied) == 25:
                raise ConnectionError("replica went away")
            applied.append((verb, key, count))

        with pytest.raises(ConnectionError):
            hints.drain(apply)
        assert len(applied) == 25 and len(hints) == 17
        assert hint_path not in io.reads
        hints.append("set", "k5", 0)       # appends continue the sequence
        hints.close()
        reopened = HintLog(hint_path)
        assert len(reopened) == 18
        pending = []
        reopened.drain(lambda *hint: pending.append(hint))
        assert pending[0] == ("insert", "k25", 2) \
            and pending[-1] == ("set", "k5", 0)
        records, scan = replay(hint_path)
        assert records == [] and scan.reason is None
        reopened.close()


#: JSON-scalar keys of every type a log carries
REPLAY_KEYS = (["s-%d" % i for i in range(40)] + [-i for i in range(1, 30)]
               + [2**64 + i for i in range(10)] + [-(2**70), 0.5, -2.75,
                                                   1e300, True, False, None])


def write_mixed_log(path: str, method: str, rng: random.Random) -> None:
    """A log of all five verbs: point inserts and deletes in runs of 1 to
    400 records (shuffled, so some runs merge), single ``set`` records and
    small bulk records.  Each op is checked against a live filter first,
    as a durable handle does, so every record applies."""
    live = SpectralBloomFilter(512, 4, method=method, backend="numpy",
                               hash_family="blocked", seed=11)
    schedule = ([("insert", n) for n in (1, 2, 63, 64, 65, 150, 300)]
                + [("delete", n) for n in (1, 5, 64, 100, 200)]
                + [("set", 1)] * 4 + [("insert_many", 1)] * 3
                + [("delete_many", 1)] * 3)
    rng.shuffle(schedule)
    present: list = []          # inserted and not yet deleted
    with WriteAheadLog(path, fsync="checkpoint") as wal:
        for verb, length in [("insert", 400)] + schedule:
            for _ in range(length):
                count = rng.choice([1, 1, 1, 2, 3])
                try:        # a refused op is never logged
                    if verb == "insert":
                        key = rng.choice(REPLAY_KEYS)
                        live.insert(key, count)
                        wal.log_insert(key, count)
                        present.extend([key] * count)
                    elif verb == "delete":
                        key = present.pop(rng.randrange(len(present)))
                        live.delete(key, 1)
                        wal.log_delete(key, 1)
                    elif verb == "set":
                        key = rng.choice(REPLAY_KEYS)
                        live.set(key, count)
                        wal.log_set(key, count)
                    elif verb == "insert_many":
                        keys = rng.choices(REPLAY_KEYS, k=20)
                        live.insert_many(keys, [count] * 20)
                        wal.log_insert_many(keys, [count] * 20)
                    else:
                        keys = [present.pop(rng.randrange(len(present)))
                                for _ in range(5)]
                        live.delete_many(keys, [1] * 5)
                        wal.log_delete_many(keys, [1] * 5)
                except ValueError:
                    continue


class TestBatchedReplay:
    @pytest.mark.parametrize("max_run", [None, 100])
    @pytest.mark.parametrize("method", ["ms", "mi", "rm", "trm"])
    def test_recovery_equals_record_by_record_replay(
            self, tmp_path, monkeypatch, method, max_run):
        if max_run is not None:         # split long runs, some below min
            monkeypatch.setattr(recovery, "_MAX_RUN", max_run)
        make = lambda: SpectralBloomFilter(512, 4, method=method,
                                           backend="numpy",
                                           hash_family="blocked", seed=11)
        write_mixed_log(str(tmp_path / "wal.log"), method,
                        random.Random(1803))
        records, _ = replay(str(tmp_path / "wal.log"))
        assert {r.op for r in records} == {
            OP_INSERT, OP_DELETE, OP_SET, OP_INSERT_MANY, OP_DELETE_MANY}
        reference = make()
        for record in records:
            recovery.apply_record(reference, record)
        recovered, report = recover(str(tmp_path), factory=make,
                                    strict=method != "mi")
        assert report.records_replayed == len(records)
        assert full_state(recovered) == full_state(reference)
        assert recovered.counters.raw.dtype == reference.counters.raw.dtype

    @pytest.mark.parametrize("min_run", [1, recovery._MIN_RUN])
    def test_refused_run_names_the_record_that_fails(
            self, tmp_path, monkeypatch, min_run):
        # min_run=1 sends the five deletes through one refused bulk call
        # first; either way the error names the third delete.
        monkeypatch.setattr(recovery, "_MIN_RUN", min_run)

        def holding_two():
            sbf = factory()
            sbf.insert("a", 2)
            sbf.insert_many(["b", "c"])
            return sbf
        with WriteAheadLog(str(tmp_path / "wal.log")) as wal:
            for key in ("a", "a", "a", "b", "c"):
                wal.log_delete(key)
        with pytest.raises(RecoveryError, match=r"seq=3 \(delete 'a'"):
            recover(str(tmp_path), factory=holding_two)


# ----------------------------------------------------------------------
# the durable handle
# ----------------------------------------------------------------------
class TestDurableSBF:
    def test_acknowledged_ops_survive_restart(self, tmp_path):
        handle = DurableSBF.open(str(tmp_path), factory=factory)
        handle.insert("a", 3)
        handle.insert("b")
        handle.delete("a")
        handle.close()
        reopened = DurableSBF.open(str(tmp_path), factory=factory)
        assert reopened.query("a") == 2 and reopened.query("b") == 1
        assert reopened.last_recovery.records_replayed == 3
        # Sequence numbering continues where the log left off.
        assert reopened.insert("c") == 4

    def test_checkpoint_resets_wal_and_recovery_prefers_snapshot(
            self, tmp_path):
        handle = DurableSBF.open(str(tmp_path), factory=factory)
        for i in range(10):
            handle.insert(f"k{i}")
        handle.checkpoint()
        assert os.path.getsize(str(tmp_path / "wal.log")) == 0
        handle.insert("tail")
        handle.close()
        reopened = DurableSBF.open(str(tmp_path), factory=factory)
        assert reopened.last_recovery.snapshot_seq == 10
        assert reopened.last_recovery.records_replayed == 1
        assert reopened.query("tail") == 1

    def test_invalid_delete_never_poisons_the_log(self, tmp_path):
        handle = DurableSBF.open(str(tmp_path), factory=factory)
        handle.insert("a", 1)
        with pytest.raises(ValueError):
            handle.delete("a", 5)
        handle.close()
        sbf, report = recover(str(tmp_path), factory=factory)
        assert sbf.query("a") == 1
        assert report.records_replayed == 1

    def test_refused_set_never_reaches_the_log(self, tmp_path):
        # A set whose reduction the delete guard refuses: `key` repeats a
        # counter position, so lowering it from 2 to 0 would drive that
        # counter to -2.  The core's set guard runs before logging.
        def small():
            return SpectralBloomFilter(64, 3, method="ms", backend="array",
                                       seed=5)
        probe = small()
        key = next(k for k in range(10_000)
                   if len(set(probe.indices(k))) == 2)
        twice = max(set(probe.indices(key)), key=probe.indices(key).count)
        once = next(i for i in probe.indices(key) if i != twice)
        other = next(k for k in range(10_000, 20_000)
                     if once in probe.indices(k)
                     and twice not in probe.indices(k))
        handle = DurableSBF.open(str(tmp_path), factory=small)
        handle.insert(key)
        handle.insert(other)
        wal = (tmp_path / "wal.log").read_bytes()
        with pytest.raises(ValueError, match="negative"):
            handle.set(key, 0)
        assert (tmp_path / "wal.log").read_bytes() == wal
        assert handle.query(key) == 2 and handle.sbf.check_integrity() == []
        handle.close()
        reopened = DurableSBF.open(str(tmp_path), factory=small)
        assert reopened.query(key) == 2 and reopened.total_count == 2
        assert reopened.last_recovery.records_replayed == 2
        reopened.close()

    @pytest.mark.parametrize("op", [
        ("insert", "x", 2 ** 64), ("insert_many", ["a", "b"], [2 ** 63, 1]),
        ("insert", "x", 1.5), ("set", "x", True), ("delete", "x", -1),
        ("insert_many", ["a", "b"], [1, "2"])],
        ids=["past-uint64", "bulk-past-int64", "float", "bool", "negative",
             "bulk-str"])
    def test_counts_the_core_refuses_never_reach_the_log(self, tmp_path, op):
        def wide():
            return SpectralBloomFilter(128, 4, seed=7, backend="numpy")
        handle = DurableSBF.open(str(tmp_path), factory=wide)
        handle.insert("x", 3)
        wal = (tmp_path / "wal.log").read_bytes()
        with pytest.raises((TypeError, ValueError, OverflowError)) as caught:
            getattr(handle, op[0])(op[1], op[2])
        with pytest.raises(type(caught.value)):
            getattr(wide(), op[0])(op[1], op[2])   # the core's own refusal
        assert (tmp_path / "wal.log").read_bytes() == wal
        assert handle.total_count == 3
        handle.close()
        reopened = DurableSBF.open(str(tmp_path), factory=wide)
        assert reopened.query("x") == 3 and reopened.total_count == 3
        assert reopened.wal.next_seq == 2
        reopened.close()

    @pytest.mark.parametrize("op", [
        ("insert", "bad\ud800"), ("insert_many", ["x", "y\udc80"]),
        ("delete", b"x"), ("set", (1, 2), 1),
        ("delete_many", np.array([[1, 2]]))],
        ids=["surrogate", "bulk-surrogate", "bytes", "tuple", "2-d"])
    def test_keys_the_rule_refuses_never_reach_the_log(self, tmp_path, op):
        handle = DurableSBF.open(str(tmp_path), factory=factory)
        handle.insert("x", 3)
        wal = (tmp_path / "wal.log").read_bytes()
        with pytest.raises((TypeError, ValueError)):
            getattr(handle, op[0])(*op[1:])
        assert (tmp_path / "wal.log").read_bytes() == wal
        assert handle.total_count == 3
        handle.close()
        reopened = DurableSBF.open(str(tmp_path), factory=factory)
        assert reopened.query("x") == 3 and reopened.total_count == 3
        reopened.close()

    def test_a_total_past_int64_never_reaches_the_log(self, tmp_path):
        def wide():
            return SpectralBloomFilter(4096, 4, seed=7, backend="numpy")
        handle = DurableSBF.open(str(tmp_path), factory=wide)
        handle.insert("x", 2 ** 62)
        wal = (tmp_path / "wal.log").read_bytes()
        for verb, args in (("insert", ("x", 2 ** 62)),
                           ("insert_many", (["y", "z"], [2 ** 61, 2 ** 61])),
                           ("set", ("y", 2 ** 62))):
            with pytest.raises(OverflowError, match="total_count"):
                getattr(handle, verb)(*args)
        assert (tmp_path / "wal.log").read_bytes() == wal
        assert handle.query_many(["x", "y"]).values.tolist() == [2 ** 62, 0]
        handle.close()
        reopened = DurableSBF.open(str(tmp_path), factory=wide)
        assert reopened.total_count == 2 ** 62
        reopened.close()

    def test_numpy_keys_are_logged_as_their_values(self, tmp_path):
        handle = DurableSBF.open(str(tmp_path), factory=factory)
        handle.insert(np.int64(5), 2)
        handle.insert_many(np.arange(3), [1, 1, 1])
        handle.insert_many(np.array([2 ** 63 + 1], dtype=np.uint64))
        handle.delete(np.int64(0))
        live = handle.query_many([5, 0, 1, 2, 2 ** 63 + 1]).values.tolist()
        assert live == [2, 0, 1, 1, 1]
        handle.close()
        reopened = DurableSBF.open(str(tmp_path), factory=factory)
        assert reopened.query_many([5, 0, 1, 2, 2 ** 63 + 1]).values.tolist() \
            == live
        reopened.close()

    def test_numpy_counts_are_logged_as_ints(self, tmp_path):
        handle = DurableSBF.open(str(tmp_path), factory=factory)
        handle.insert("a", np.int64(3))
        handle.set("b", np.uint8(2))
        handle.insert_many(["c", "d"], [np.int32(1), np.int64(4)])
        handle.delete_many(np.array(["c"]), np.uint16(1))
        assert type(handle.total_count) is int and handle.total_count == 9
        handle.checkpoint()                 # JSON snapshot of int counts
        handle.close()
        reopened = DurableSBF.open(str(tmp_path), factory=factory)
        assert [reopened.query(k) for k in "abcd"] == [3, 2, 0, 4]
        assert type(reopened.total_count) is int
        reopened.close()

    def test_open_without_state_requires_factory(self, tmp_path):
        with pytest.raises(ValueError):
            DurableSBF.open(str(tmp_path))

    def test_rm_method_round_trips(self, tmp_path):
        def rm_factory():
            return SpectralBloomFilter(128, 4, seed=3, method="rm")
        handle = DurableSBF.open(str(tmp_path), factory=rm_factory)
        for key, count in [("a", 5), ("b", 2), ("c", 1)]:
            handle.insert(key, count)
        handle.delete("a", 2)
        handle.checkpoint()
        handle.insert("d", 7)
        live = {key: handle.query(key) for key in "abcd"}
        handle.close()
        reopened = DurableSBF.open(str(tmp_path), factory=rm_factory)
        assert {key: reopened.query(key) for key in "abcd"} == live
        assert reopened.sbf.check_integrity() == []


class FailingFsyncIO(FileIO):
    """A FileIO whose fsync raises an I/O error while ``failing``."""

    failing = False

    def _before_fsync(self) -> None:
        if self.failing:
            raise OSError(5, "simulated fsync failure")


class TestGroupCommit:
    @pytest.mark.parametrize("wrap", [False, True])
    def test_always_fsyncs_once_per_group_with_a_mutation(self, tmp_path,
                                                          wrap):
        io = FileIO()
        durable = DurableSBF.open(str(tmp_path), factory=factory, io=io)
        handle = ConcurrentSBF(durable) if wrap else durable
        base = io.fsync_calls
        assert handle.execute([("insert", "a", 2), ("query", "a"),
                               ("insert", "b"), ("delete", "a"),
                               ("set", "c", 3)]) \
            == [None, 2, None, None, None]
        assert io.fsync_calls == base + 1
        # Acknowledged means durable: a recovery that runs now, with the
        # handle still open, finds every op of the group.
        sbf, report = recover(str(tmp_path), factory=factory)
        assert [sbf.query(k) for k in "abc"] == [1, 1, 3]
        assert report.records_replayed == 4       # one record per mutation
        # Queries only, or a refused mutation only: nothing to sync.
        assert handle.execute([("query", "a"), ("contains", "b", 1)]) \
            == [1, True]
        refused = handle.execute([("delete", "zzz", 5)])
        assert isinstance(refused[0], ValueError)
        assert io.fsync_calls == base + 1
        # Point verbs outside execute keep one fsync per append.
        handle.insert("d")
        handle.delete("d")
        assert io.fsync_calls == base + 3
        durable.close()

    @pytest.mark.parametrize("policy", [1, 3, 4, "checkpoint"])
    def test_owed_fsyncs_collapse_into_at_most_one(self, tmp_path, policy):
        io = FileIO()
        handle = DurableSBF.open(str(tmp_path), factory=factory, io=io,
                                 fsync=policy)
        every = 0 if policy == "checkpoint" else policy
        base, since, expected = io.fsync_calls, 0, 0
        for n in (1, 1, 2, 5, 1, 3, 7, 2):
            handle.execute([("insert", f"k{i}") for i in range(n)]
                           + [("query", "k0")])
            since += n
            if every and since >= every:
                expected, since = expected + 1, 0
            assert io.fsync_calls - base == expected, (policy, n)
        handle.checkpoint()
        assert io.fsync_calls - base > expected
        handle.close()

    def test_failed_group_fsync_fails_every_applied_mutation(self, tmp_path):
        io = FailingFsyncIO()
        handle = DurableSBF.open(str(tmp_path), factory=factory, io=io)
        io.failing = True
        outcomes = handle.execute([("insert", "a"), ("query", "a"),
                                   ("delete", "nope", 3), ("set", "b", 2)])
        assert isinstance(outcomes[0], OSError)
        assert isinstance(outcomes[3], OSError)
        assert outcomes[1] == 1                     # reads keep their value
        assert isinstance(outcomes[2], ValueError)  # and refusals their own
        io.failing = False
        handle.insert("c")                           # the log still works
        handle.close()
        sbf, _ = recover(str(tmp_path), factory=factory)
        assert [sbf.query(k) for k in "abc"] == [1, 2, 1]


# ----------------------------------------------------------------------
# frame helpers
# ----------------------------------------------------------------------
class TestFrameHelpers:
    def test_seal_open_round_trip(self):
        frame = seal_frame(b"RXT1", {"x": 1}, b"payload")
        meta, payload = open_frame(frame, b"RXT1")
        assert meta == {"x": 1} and payload == b"payload"

    def test_reserved_magics_rejected(self):
        for magic in (b"RSB2", b"RBF2", b"RSB1", b"RBF1"):
            with pytest.raises(ValueError):
                seal_frame(magic, {}, b"")
        with pytest.raises(ValueError):
            seal_frame(b"LONGMAGIC", {}, b"")

    def test_open_frame_detects_corruption(self):
        frame = bytearray(seal_frame(b"RXT1", {"x": 1}, b"payload"))
        frame[-6] ^= 0x40
        with pytest.raises(WireFormatError):
            open_frame(bytes(frame), b"RXT1")


# ----------------------------------------------------------------------
# app wiring: sliding window
# ----------------------------------------------------------------------
class TestDurableSlidingWindow:
    def test_checkpoint_restore_round_trip(self, tmp_path):
        window = SlidingWindowSBF(5, 256, 4, method="rm", seed=3)
        window.extend(["a", "b", "a", "c", "d", "e", "a"])
        window.checkpoint(str(tmp_path))
        restored = SlidingWindowSBF.restore(str(tmp_path))
        assert restored.window == window.window
        assert len(restored) == len(window)
        for key in "abcdef":
            assert restored.query(key) == window.query(key)
        # The restored window keeps sliding correctly.
        evicted = restored.push("f")
        assert evicted == "a"  # the oldest buffered item, restored in order
        assert restored.query("f") >= 1
        assert restored.true_count("a") == 1

    def test_checkpoint_rejects_non_scalar_buffer_items(self, tmp_path):
        # A tuple is hashable (the window accepts it) but serializes to a
        # JSON list, so a checkpoint would restore into a window that
        # later crashes at eviction — reject it before writing the frame.
        window = SlidingWindowSBF(4, 128, 4)
        window.push(("a", 1))
        with pytest.raises(TypeError, match="JSON scalars"):
            window.checkpoint(str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_restore_rejects_torn_checkpoint(self, tmp_path):
        window = SlidingWindowSBF(3, 128, 4, seed=1)
        window.extend(["x", "y"])
        path = window.checkpoint(str(tmp_path))
        data = open(path, "rb").read()
        torn_write(path, data, len(data) // 2)
        with pytest.raises(WireFormatError):
            SlidingWindowSBF.restore(str(tmp_path))

    def test_restore_rejects_inconsistent_buffer(self, tmp_path):
        window = SlidingWindowSBF(3, 128, 4, seed=1)
        window.extend(["x", "y"])
        from repro.core.serialize import dump_sbf
        frame = seal_frame(b"RSW1", {"window": 3, "method": "rm",
                                     "buffer": ["x", "y", "z"]},
                           dump_sbf(window.sbf))
        atomic_write_bytes(str(tmp_path / "window.ckpt"), frame)
        with pytest.raises(ValueError):
            SlidingWindowSBF.restore(str(tmp_path))

    def test_crash_mid_checkpoint_keeps_previous_checkpoint(self, tmp_path):
        window = SlidingWindowSBF(4, 128, 4, seed=2)
        window.extend(["a", "b"])
        window.checkpoint(str(tmp_path))
        window.extend(["c", "d"])
        io = CrashIO(crash_before_replace=1)
        with pytest.raises(SimulatedCrash):
            window.checkpoint(str(tmp_path), io=io)
        restored = SlidingWindowSBF.restore(str(tmp_path))
        assert list(restored._buffer) == ["a", "b"]


# ----------------------------------------------------------------------
# app wiring: summary cache warm restarts
# ----------------------------------------------------------------------
class TestSummaryPersistence:
    def _mesh(self, root):
        return build_mesh(["p1", "p2", "p3"], m=512, k=3, spectral=True,
                          summary_root=root)

    def test_summaries_survive_restart(self, tmp_path):
        mesh = self._mesh(str(tmp_path))
        mesh[0].store("obj-x")
        mesh[0].store("obj-x")
        mesh[1].store("obj-y")
        for proxy in mesh:
            proxy.publish()
        assert mesh[2].lookup("obj-x")[0] == "p1"

        # Restart: fresh proxies, same directories, no publishes yet.
        reborn = self._mesh(str(tmp_path))
        reborn[0].store("obj-x")
        reborn[0].store("obj-x")
        reborn[1].store("obj-y")
        assert sorted(reborn[2].summaries_recovered) == ["p1", "p2"]
        assert reborn[2].lookup("obj-x")[0] == "p1"
        assert reborn[2].summaries_rejected == 0

    def test_corrupt_persisted_summary_is_rejected_not_trusted(
            self, tmp_path):
        mesh = self._mesh(str(tmp_path))
        mesh[0].store("obj-x")
        for proxy in mesh:
            proxy.publish()
        victim = str(tmp_path / "p3" / "p1.summary")
        flip_bit(victim, 64)
        reborn = self._mesh(str(tmp_path))
        assert "p1" not in reborn[2].peer_summaries
        assert reborn[2].summaries_rejected >= 1

    def test_memory_only_by_default(self, tmp_path):
        mesh = build_mesh(["a", "b"], m=256, k=3)
        mesh[0].store("o")
        for proxy in mesh:
            proxy.publish()
        assert mesh[1].peer_summaries  # works without any directory
