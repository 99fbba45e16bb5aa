"""Multi-threaded stress tests for the concurrency-safe serving handle.

The acceptance contract: >= 8 threads of mixed insert/delete/query traffic
plus concurrent checkpoints finish with *exact* final counter sums (every
thread's contribution fully applied, none lost to a race) and zero
deadlocks or lock timeouts; and the bounded-wait acquisition raises a
typed :class:`LockTimeout` instead of hanging when a lock genuinely cannot
be had.
"""

import sys
import threading
import time

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


def _expected_filter(m, k, seed):
    expected = SpectralBloomFilter(m, k, seed=seed)
    for thread_id in range(THREADS):
        for round_no in range(ROUNDS):
            expected.insert(f"t{thread_id}-r{round_no}", 1)
    return expected


class TestConcurrentStress:
    def test_mixed_traffic_exact_final_state(self):
        handle = ConcurrentSBF(SpectralBloomFilter(2048, 4, seed=11),
                               stripes=16, timeout=30.0)
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
        handle = ConcurrentSBF(durable, stripes=16, timeout=30.0)

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
        # Writers on disjoint stripes all call the wrapped filter's verbs,
        # whose total_count is a shared accumulator; a tiny switch
        # interval makes a lost read-modify-write show here.
        handle = ConcurrentSBF(SpectralBloomFilter(4096, 4, seed=3),
                               stripes=16, timeout=30.0)

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
                               stripes=8, timeout=30.0)
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


class TestBoundedWaits:
    def test_blocked_stripe_raises_typed_timeout(self):
        handle = ConcurrentSBF(SpectralBloomFilter(512, 4, seed=2),
                               stripes=4, timeout=0.05)
        # Hold every stripe hostage from another thread.
        for lock in handle._locks:
            lock.acquire()
        try:
            with pytest.raises(LockTimeout):
                handle.insert("anything")
            with pytest.raises(TimeoutError):  # the typed alias holds
                handle.query("anything")
        finally:
            for lock in handle._locks:
                lock.release()
        assert handle.lock_timeouts >= 2
        # The filter stayed consistent: the failed ops applied nothing.
        assert handle.total_count == 0
        handle.insert("anything")  # and the handle still works
        assert handle.query("anything") == 1

    def test_writer_lock_timeout_on_checkpoint(self):
        handle = ConcurrentSBF(SpectralBloomFilter(512, 4, seed=2),
                               stripes=4, timeout=0.05)
        handle._writer.acquire()
        try:
            with pytest.raises(LockTimeout):
                handle.checkpoint()
        finally:
            handle._writer.release()
        frame = handle.checkpoint()
        assert load_sbf(frame).m == 512

    def test_per_call_timeout_override(self):
        handle = ConcurrentSBF(SpectralBloomFilter(512, 4, seed=2),
                               stripes=2, timeout=60.0)
        handle._locks[0].acquire()
        handle._locks[1].acquire()
        try:
            with pytest.raises(LockTimeout):
                handle.insert("k", timeout=0.01)
        finally:
            handle._locks[0].release()
            handle._locks[1].release()


class TestMethodDegradation:
    def test_non_ms_methods_serialise_on_one_stripe(self):
        handle = ConcurrentSBF(
            SpectralBloomFilter(1024, 4, seed=9, method="rm"), stripes=16)
        assert handle.stripes == 1
        _run_threads(_mixed_workload,
                     lambda i, errors, barrier: (handle, i, errors, barrier))
        assert handle.total_count == THREADS * ROUNDS
        assert handle.check_integrity() == []

    def test_compact_backends_serialise_on_one_stripe(self):
        # A String-Array Index expansion shifts neighbouring fields (and
        # can rebuild the whole index) and a coded-stream update
        # re-encodes a chunk holding other counters, so two threads on
        # disjoint stripes could corrupt counters neither locked —
        # striping is unsafe for any non-array backend, even with MS.
        for backend in ("compact", "stream"):
            handle = ConcurrentSBF(
                SpectralBloomFilter(256, 4, seed=9, backend=backend),
                stripes=16)
            assert handle.stripes == 1
        # ... while MS over the array backend keeps its stripes.
        assert ConcurrentSBF(SpectralBloomFilter(256, 4, seed=9),
                             stripes=16).stripes == 16

    def test_compact_backend_mixed_traffic_exact_final_state(self):
        handle = ConcurrentSBF(
            SpectralBloomFilter(1024, 4, seed=9, backend="compact"),
            stripes=16, timeout=30.0)
        _run_threads(_mixed_workload,
                     lambda i, errors, barrier: (handle, i, errors, barrier))
        assert handle.total_count == THREADS * ROUNDS
        assert handle.lock_timeouts == 0
        assert handle.check_integrity() == []

    def test_bad_construction_arguments(self):
        sbf = SpectralBloomFilter(64, 2, seed=0)
        with pytest.raises(ValueError):
            ConcurrentSBF(sbf, stripes=0)
        with pytest.raises(ValueError):
            ConcurrentSBF(sbf, timeout=0)


class TestSharedReadPath:
    """The group gate: bulk readers overlap; mutators exclude them."""

    def _loaded_handle(self):
        handle = ConcurrentSBF(
            SpectralBloomFilter(2048, 4, seed=4, backend="numpy"))
        handle.insert_many(list(range(300)), [2] * 300)
        return handle

    def test_concurrent_bulk_readers_overlap(self):
        # Two query_many calls must be inside the read side at the same
        # time; with the old all-locks path the second would block and
        # the barrier would time out.
        handle = self._loaded_handle()
        inside = threading.Barrier(2, timeout=5)
        errors = []

        def reader():
            try:
                handle._enter_gate(read=True, timeout=2.0)
                try:
                    inside.wait()
                finally:
                    handle._gate.exit_read()
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

    def test_reader_blocks_mutators_until_it_leaves(self):
        handle = self._loaded_handle()
        handle._enter_gate(read=True, timeout=1.0)
        try:
            with pytest.raises(LockTimeout):
                handle.insert(1, 1, timeout=0.05)
            with pytest.raises(LockTimeout):
                handle.insert_many([1, 2], [1, 1], timeout=0.05)
        finally:
            handle._gate.exit_read()
        before = handle.query(1)
        handle.insert(1, 1, timeout=1.0)  # free again
        assert handle.query(1) == before + 1

    def test_waiting_mutator_bars_new_readers(self):
        # Writer preference: while a mutator waits on an active reader,
        # a newly arriving reader must queue behind it.
        handle = self._loaded_handle()
        handle._enter_gate(read=True, timeout=1.0)
        release = threading.Event()
        done = []

        def mutator():
            handle._enter_gate(read=False, timeout=10.0)
            try:
                done.append("mutated")
            finally:
                handle._gate.exit_mutate()

        thread = threading.Thread(target=mutator)
        thread.start()
        deadline = time.monotonic() + 5
        while handle._gate._mutators_waiting == 0:
            assert time.monotonic() < deadline, "mutator never queued"
            time.sleep(0.005)
        with pytest.raises(LockTimeout):  # reader barred by the waiter
            handle.query_many([1, 2, 3], timeout=0.05)
        handle._gate.exit_read()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert done == ["mutated"]
        assert list(handle.query_many([0])) == [2]  # gate fully released

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
