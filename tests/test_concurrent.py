"""Multi-threaded stress tests for the concurrency-safe serving handle.

The acceptance contract: >= 8 threads of mixed insert/delete/query traffic
plus concurrent checkpoints finish with *exact* final counter sums (every
thread's contribution fully applied, none lost to a race) and zero
deadlocks or lock timeouts; and the bounded-wait acquisition raises a
typed :class:`LockTimeout` instead of hanging when the shard's lock
genuinely cannot be had.  Tests hold one side of that lock through
``handle._lock`` to stage contention.
"""

import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core.sbf import SpectralBloomFilter
from repro.core.serialize import load_sbf
from repro.persist import ConcurrentSBF, DurableSBF, LockTimeout, recover

THREADS = 8
ROUNDS = 60


def _mixed_workload(handle, thread_id, errors, barrier):
    """Deterministic per-thread traffic: insert 2, query, delete 1 → every
    surviving key nets exactly +1 per round."""
    try:
        barrier.wait(timeout=30)
        for round_no in range(ROUNDS):
            key = f"t{thread_id}-r{round_no}"
            handle.insert(key, 2)
            assert handle.query(key) >= 2
            handle.delete(key, 1)
            handle.query(f"t{(thread_id + 1) % THREADS}-r{round_no}")
    except BaseException as exc:  # propagate to the main thread
        errors.append(exc)


def _run_threads(target, args_for):
    errors: list[BaseException] = []
    barrier = threading.Barrier(THREADS + 1)
    threads = [threading.Thread(target=target, args=args_for(i, errors,
                                                             barrier))
               for i in range(THREADS)]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=30)
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive(), "worker thread deadlocked"
    if errors:
        raise errors[0]
    return errors


@contextmanager
def _held_by_peer(handle, side):
    """Hold the *side* (``"read"``/``"write"``) of *handle*'s lock from
    another thread for the duration of the block."""
    taken, leave = threading.Event(), threading.Event()

    def peer():
        getattr(handle._lock, f"acquire_{side}")(5.0)
        taken.set()
        leave.wait(30)
        getattr(handle._lock, f"release_{side}")()

    thread = threading.Thread(target=peer)
    thread.start()
    assert taken.wait(10), "peer never took the lock"
    try:
        yield
    finally:
        leave.set()
        thread.join(timeout=10)
        assert not thread.is_alive(), "peer never released the lock"


def _wait_for_waiting_writer(handle):
    deadline = time.monotonic() + 5
    while handle._lock._writers_waiting == 0:
        assert time.monotonic() < deadline, "writer never queued"
        time.sleep(0.005)


def _expected_filter(m, k, seed):
    expected = SpectralBloomFilter(m, k, seed=seed)
    for thread_id in range(THREADS):
        for round_no in range(ROUNDS):
            expected.insert(f"t{thread_id}-r{round_no}", 1)
    return expected


class TestConcurrentStress:
    def test_mixed_traffic_exact_final_state(self):
        handle = ConcurrentSBF(SpectralBloomFilter(2048, 4, seed=11),
                               timeout=30.0)
        _run_threads(_mixed_workload,
                     lambda i, errors, barrier: (handle, i, errors, barrier))
        expected = _expected_filter(2048, 4, 11)
        assert handle.total_count == THREADS * ROUNDS
        assert handle._sbf.counters.to_list() \
            == expected.counters.to_list()
        assert handle.check_integrity() == []
        assert handle.lock_timeouts == 0

    def test_mixed_traffic_with_concurrent_checkpoints(self, tmp_path):
        durable = DurableSBF.open(
            str(tmp_path), fsync="checkpoint",
            factory=lambda: SpectralBloomFilter(2048, 4, seed=11))
        handle = ConcurrentSBF(durable, timeout=30.0)

        stop = threading.Event()
        checkpoint_errors: list[BaseException] = []

        def checkpointer():
            try:
                while not stop.is_set():
                    handle.checkpoint()
                    time.sleep(0.002)
            except BaseException as exc:
                checkpoint_errors.append(exc)

        ckpt_thread = threading.Thread(target=checkpointer)
        ckpt_thread.start()
        try:
            _run_threads(_mixed_workload,
                         lambda i, errors, barrier: (handle, i, errors,
                                                     barrier))
        finally:
            stop.set()
            ckpt_thread.join(timeout=60)
        assert not ckpt_thread.is_alive(), "checkpointer deadlocked"
        if checkpoint_errors:
            raise checkpoint_errors[0]

        expected = _expected_filter(2048, 4, 11)
        assert handle.total_count == THREADS * ROUNDS
        assert handle._sbf.counters.to_list() \
            == expected.counters.to_list()
        assert handle.check_integrity() == []
        assert handle.lock_timeouts == 0
        assert durable.checkpoints >= 1

        # And the durable state equals the served state after a final
        # checkpoint: a restart loses nothing.
        handle.checkpoint()
        durable.close()
        recovered, _ = recover(str(tmp_path))
        assert recovered.counters.to_list() == expected.counters.to_list()

    def test_disjoint_stripe_writers_lose_no_update(self):
        # Writers on disjoint keys all call the wrapped filter's verbs,
        # whose total_count is a shared accumulator; a tiny switch
        # interval makes a lost read-modify-write show here.
        handle = ConcurrentSBF(SpectralBloomFilter(4096, 4, seed=3),
                               timeout=30.0)

        def writer(thread_id, errors, barrier):
            try:
                barrier.wait(timeout=30)
                for i in range(200):
                    handle.insert(f"w{thread_id}-{i}", 2)
            except BaseException as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_threads(writer, lambda i, errors, barrier:
                         (i, errors, barrier))
        finally:
            sys.setswitchinterval(interval)
        assert handle.total_count == THREADS * 200 * 2
        assert handle.check_integrity() == []

    def test_concurrent_sets_are_serialised(self):
        handle = ConcurrentSBF(SpectralBloomFilter(1024, 4, seed=5),
                               timeout=30.0)
        errors: list[BaseException] = []
        barrier = threading.Barrier(THREADS)

        def setter(thread_id):
            try:
                barrier.wait(timeout=30)
                for round_no in range(ROUNDS):
                    handle.set("shared", (thread_id * ROUNDS + round_no)
                               % 7 + 1)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=setter, args=(i,))
                   for i in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert not errors
        # Whatever interleaving won, the filter is exactly "one key set to
        # some value in [1, 7]" — sets never compound or tear.
        value = handle.query("shared")
        assert 1 <= value <= 7
        assert handle.total_count == value
        assert handle.check_integrity() == []

    def test_exclusive_and_audits_see_consistent_cuts(self):
        # MS keeps the counter sum at exactly k * N; a cut taken between
        # an insert's counter writes and its total_count store breaks it.
        handle = ConcurrentSBF(SpectralBloomFilter(2048, 4, seed=6),
                               timeout=30.0)
        stop = threading.Event()
        torn: list = []

        def auditor():
            try:
                while not stop.is_set():
                    with handle.exclusive() as raw:
                        sbf = raw.local_filter()
                        if sum(sbf.counters) != sbf.k * raw.total_count:
                            torn.append("exclusive")
                    torn.extend(handle.check_integrity())
            except BaseException as exc:
                torn.append(exc)

        audit_thread = threading.Thread(target=auditor)
        audit_thread.start()
        try:
            _run_threads(_mixed_workload,
                         lambda i, errors, barrier: (handle, i, errors,
                                                     barrier))
        finally:
            stop.set()
            audit_thread.join(timeout=60)
        assert not audit_thread.is_alive(), "auditor deadlocked"
        assert torn == []
        assert handle.total_count == THREADS * ROUNDS
        assert handle.lock_timeouts == 0


class TestBoundedWaits:
    def test_blocked_stripe_raises_typed_timeout(self):
        handle = ConcurrentSBF(SpectralBloomFilter(512, 4, seed=2),
                               timeout=0.05)
        with _held_by_peer(handle, "write"):
            with pytest.raises(LockTimeout):
                handle.insert("anything")
            with pytest.raises(TimeoutError):  # the typed alias holds
                handle.query("anything")
        assert handle.lock_timeouts == 2
        # The filter stayed consistent: the failed ops applied nothing.
        assert handle.total_count == 0
        handle.insert("anything")  # and the handle still works
        assert handle.query("anything") == 1

    def test_writer_lock_timeout_on_checkpoint(self):
        handle = ConcurrentSBF(SpectralBloomFilter(512, 4, seed=2),
                               timeout=0.05)
        with _held_by_peer(handle, "write"):
            with pytest.raises(LockTimeout):
                handle.checkpoint()
        frame = handle.checkpoint()
        assert load_sbf(frame).m == 512

    def test_reader_blocks_exclusive_and_checkpoint(self):
        handle = ConcurrentSBF(SpectralBloomFilter(512, 4, seed=2),
                               timeout=0.05)
        handle.insert("k", 2)
        with _held_by_peer(handle, "read"):
            with pytest.raises(LockTimeout):
                with handle.exclusive():
                    pytest.fail("exclusive() entered beside a reader")
            with pytest.raises(LockTimeout):
                handle.checkpoint()
        assert handle.lock_timeouts == 2
        with handle.exclusive() as raw:
            assert raw.query("k") == 2
        assert load_sbf(handle.checkpoint()).query("k") == 2

    def test_per_call_timeout_override(self):
        handle = ConcurrentSBF(SpectralBloomFilter(512, 4, seed=2),
                               timeout=60.0)
        with _held_by_peer(handle, "write"):
            start = time.monotonic()
            with pytest.raises(LockTimeout):
                handle.insert("k", timeout=0.01)
            assert time.monotonic() - start < 30

    def test_free_lock_needs_no_budget_and_reads_no_clock(self):
        # A free lock is taken at once: a zero budget suffices, and the
        # clock — which only measures waits — is never read.
        def clock():
            raise AssertionError("an uncontended handle read the clock")

        handle = ConcurrentSBF(SpectralBloomFilter(1024, 4, seed=1),
                               clock=clock)
        for _ in range(100):
            handle.insert("k", timeout=0.0)
        handle.insert_many(["a", "b"], timeout=0.0)
        handle.set("s", 3, timeout=0.0)
        handle.delete("s", 1, timeout=0.0)
        assert handle.query("k", timeout=0.0) == 100
        assert list(handle.query_many(["a", "s"], timeout=0.0)) == [1, 2]
        with handle.exclusive(0.0) as raw:
            raw.insert("x")
        handle.checkpoint(timeout=0.0)
        assert handle.check_integrity(timeout=0.0) == []
        assert handle.total_count == 105
        assert handle.lock_timeouts == 0


class TestMethodDegradation:
    """Methods and backends whose updates read counters they do not
    write stay exact under the one shard lock."""

    def test_non_ms_methods_serialise_on_one_stripe(self):
        handle = ConcurrentSBF(
            SpectralBloomFilter(1024, 4, seed=9, method="rm"))
        _run_threads(_mixed_workload,
                     lambda i, errors, barrier: (handle, i, errors, barrier))
        assert handle.total_count == THREADS * ROUNDS
        assert handle.check_integrity() == []

    def test_compact_backend_mixed_traffic_exact_final_state(self):
        handle = ConcurrentSBF(
            SpectralBloomFilter(1024, 4, seed=9, backend="compact"),
            timeout=30.0)
        _run_threads(_mixed_workload,
                     lambda i, errors, barrier: (handle, i, errors, barrier))
        assert handle.total_count == THREADS * ROUNDS
        assert handle.lock_timeouts == 0
        assert handle.check_integrity() == []

    def test_bad_construction_arguments(self):
        sbf = SpectralBloomFilter(64, 2, seed=0)
        with pytest.raises(ValueError):
            ConcurrentSBF(sbf, timeout=0)


class TestSharedReadPath:
    """The lock's read side: readers overlap; writers exclude them."""

    def _loaded_handle(self):
        handle = ConcurrentSBF(
            SpectralBloomFilter(2048, 4, seed=4, backend="numpy"))
        handle.insert_many(list(range(300)), [2] * 300)
        return handle

    def test_concurrent_bulk_readers_overlap(self):
        # Two readers must be inside the read side at the same time;
        # if readers excluded each other the barrier would time out.
        handle = self._loaded_handle()
        inside = threading.Barrier(2, timeout=5)
        errors = []

        def reader():
            try:
                handle._lock.acquire_read(2.0)
                try:
                    inside.wait()
                finally:
                    handle._lock.release_read()
                handle.query_many(list(range(100)))
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive(), "reader deadlocked"
        assert not errors

    def test_point_query_answers_while_another_thread_reads(self):
        handle = self._loaded_handle()
        with _held_by_peer(handle, "read"):
            assert handle.query(7, timeout=0.05) == 2
            assert handle.contains(7, 2)
        assert handle.lock_timeouts == 0

    def test_reader_blocks_mutators_until_it_leaves(self):
        handle = self._loaded_handle()
        handle._lock.acquire_read(1.0)
        try:
            with pytest.raises(LockTimeout):
                handle.insert(1, 1, timeout=0.05)
            with pytest.raises(LockTimeout):
                handle.insert_many([1, 2], [1, 1], timeout=0.05)
        finally:
            handle._lock.release_read()
        before = handle.query(1)
        handle.insert(1, 1, timeout=1.0)  # free again
        assert handle.query(1) == before + 1

    def test_waiting_mutator_bars_new_readers(self):
        # Writer preference: while a writer waits on an active reader,
        # a newly arriving reader must queue behind it.
        handle = self._loaded_handle()
        handle._lock.acquire_read(1.0)
        done = []

        def mutator():
            handle.insert(0, 1, timeout=10.0)
            done.append("mutated")

        thread = threading.Thread(target=mutator)
        thread.start()
        _wait_for_waiting_writer(handle)
        with pytest.raises(LockTimeout):  # reader barred by the waiter
            handle.query_many([1, 2, 3], timeout=0.05)
        handle._lock.release_read()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert done == ["mutated"]
        assert list(handle.query_many([0])) == [3]  # lock fully released

    def test_timed_out_writer_wakes_the_readers_it_barred(self):
        handle = self._loaded_handle()
        outcome = {}

        def writer():
            try:
                handle.insert(0, 1, timeout=1.0)
            except LockTimeout as exc:
                outcome["writer"] = exc

        def reader():
            outcome["reader"] = list(handle.query_many([0], timeout=30.0))

        with _held_by_peer(handle, "read"):
            writing = threading.Thread(target=writer)
            writing.start()
            _wait_for_waiting_writer(handle)
            reading = threading.Thread(target=reader)
            reading.start()
            time.sleep(0.1)
            assert "reader" not in outcome, "reader passed a waiting writer"
            writing.join(timeout=10)
            assert not writing.is_alive()
            # The barred reader must wake now, long before its own budget.
            reading.join(timeout=5)
            assert not reading.is_alive(), "barred reader never woke"
        assert isinstance(outcome["writer"], LockTimeout)
        assert outcome["reader"] == [2]
        assert handle.lock_timeouts == 1

    def test_mixed_reader_writer_storm_exact_final_state(self):
        handle = self._loaded_handle()
        stop = threading.Event()
        errors = []

        def writer():
            try:
                for i in range(200):
                    handle.insert(i % 40, 1)
            except BaseException as exc:
                errors.append(exc)

        def bulk_reader():
            try:
                while not stop.is_set():
                    values = handle.query_many(list(range(40)))
                    # A consistent cut: never a torn/negative estimate.
                    assert all(int(v) >= 2 for v in values)
            except BaseException as exc:
                errors.append(exc)

        writers = [threading.Thread(target=writer) for _ in range(4)]
        readers = [threading.Thread(target=bulk_reader) for _ in range(4)]
        for thread in writers + readers:
            thread.start()
        for thread in writers:
            thread.join(timeout=60)
            assert not thread.is_alive(), "writer deadlocked"
        stop.set()
        for thread in readers:
            thread.join(timeout=60)
            assert not thread.is_alive(), "reader deadlocked"
        assert not errors, errors[:1]
        assert handle.total_count == 600 + 4 * 200
        final = handle.query_many(list(range(40)))
        assert all(int(v) >= 2 + 20 for v in final)
