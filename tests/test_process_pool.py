"""The multi-process shard executor: differential oracle + chaos.

The acceptance contract of :mod:`repro.serve.procpool`:

- a pool-backed fleet answers **bit-identically** to an in-process
  :class:`ShardedSBF` oracle built with the same parameters, across
  methods (MS/MI/RM — i.e. both the shared-memory and the snapshot
  recovery paths), key types, point and pipelined-bulk traffic;
- killing a worker degrades *only its shard* into typed retryable
  :class:`DeliveryFailed` bulk failures — never a wrong answer — and the
  worker re-spawns with its acknowledged state intact (shared-memory
  segment for MS/MI, parent-held snapshot for RM);
- the whole surface keeps its contract under an injected-fault network
  (routed traffic rides the same reliable channels a RemoteShard uses);
- one codec on the pipes: every frame is a remote-shard request or
  response, plus one empty shutdown message per live worker, and a
  closed pool refuses all traffic with one non-retryable error.
"""

import multiprocessing
import os
import time
from multiprocessing.connection import Connection

import numpy as np
import pytest

from repro.core.sbf import SpectralBloomFilter
from repro.core.serialize import open_frame
from repro.db.faults import FaultPolicy, FaultyNetwork
from repro.db.transport import DeliveryFailed
from repro.serve import (ProcessShardPool, ServingEngine, ShardBatcher,
                         ShardedSBF)
from repro.serve.remote import REQUEST_MAGIC, RESPONSE_MAGIC

M, K, SEED = 4096, 4, 21


def _traffic(seed=13, n=1200, universe=4000):
    rng = np.random.default_rng(seed)
    keys = [int(x) for x in rng.integers(0, universe, n)]
    counts = [int(c) for c in rng.integers(1, 6, n)]
    probe = [int(x) for x in rng.integers(0, universe + universe // 4, n)]
    return keys, counts, probe


def _oracle(n_shards, method, backend):
    return ShardedSBF.create(n_shards, M, K, seed=SEED, method=method,
                             backend=backend)


@pytest.mark.parametrize("method,backend", [
    ("ms", "numpy"),    # shared-memory recovery path
    ("mi", "numpy"),    # shared-memory, order-dependent method
    ("rm", "array"),    # snapshot recovery path (secondary + marker)
])
def test_pool_matches_inprocess_oracle(method, backend):
    keys, counts, probe = _traffic()
    oracle = _oracle(4, method, backend)
    with ProcessShardPool(4, M, K, seed=SEED, method=method,
                          backend=backend) as pool:
        result = pool.insert_many(keys, counts)
        assert result.ok
        oracle_batch = pool.router  # same routing brain on both sides
        for key, count in zip(keys, counts):
            oracle.insert(key, count)
        got = pool.query_many(probe)
        assert got.ok
        assert got.values.tolist() == [oracle.query(x) for x in probe]
        # Point traffic routes through the RemoteShard channel stack.
        for key in probe[:25]:
            assert pool.router.query(key) == oracle.query(key)
        assert pool.total_count == oracle.total_count
        # Deletes too (RM exercises recurring-minimum maintenance).
        victims = keys[:200]
        dels = [1] * len(victims)
        assert pool.delete_many(victims, dels).ok
        for key in victims:
            oracle.delete(key, 1)
        got = pool.query_many(probe)
        assert got.ok
        assert got.values.tolist() == [oracle.query(x) for x in probe]


def test_string_keys_ride_the_json_path():
    keys = [f"user-{i % 97}" for i in range(400)]
    counts = [1 + i % 4 for i in range(400)]
    oracle = _oracle(3, "ms", "numpy")
    with ProcessShardPool(3, M, K, seed=SEED) as pool:
        assert pool.insert_many(keys, counts).ok
        for key, count in zip(keys, counts):
            oracle.insert(key, count)
        probe = [f"user-{i}" for i in range(120)]
        got = pool.query_many(probe)
        assert got.ok
        assert got.values.tolist() == [oracle.query(x) for x in probe]


def test_non_scalar_keys_fail_client_side():
    with ProcessShardPool(2, M, K, seed=SEED) as pool:
        result = pool.insert_many([1, ["not", "scalar"], 3])
        assert result.applied == 2
        assert len(result.failures) == 1
        assert result.failures[0].index == 1
        assert not result.failures[0].retryable
        assert pool.query_many([1, 3]).values.tolist() == [1, 1]


@pytest.mark.parametrize("method,backend", [
    ("ms", "numpy"),    # state survives in the shared-memory segment
    ("rm", "array"),    # state survives in the parent-held snapshot
])
def test_worker_kill_respawns_with_state_intact(method, backend):
    keys, counts, probe = _traffic(seed=5)
    oracle = _oracle(3, method, backend)
    with ProcessShardPool(3, M, K, seed=SEED, method=method,
                          backend=backend) as pool:
        assert pool.insert_many(keys, counts).ok
        for key, count in zip(keys, counts):
            oracle.insert(key, count)
        want = [oracle.query(x) for x in probe]
        pool.kill_worker(1)
        assert not pool.worker_alive(1)
        # Next use revives the worker; every acknowledged insert is
        # still there — bit-identical answers, not approximations.
        got = pool.query_many(probe)
        assert got.ok
        assert got.values.tolist() == want
        assert pool.worker_alive(1)
        assert pool.metrics.counter("engine.worker.1.restarts").value >= 1
        assert pool.metrics.counter("engine.worker.1.failures").value >= 1
        assert pool.total_count == oracle.total_count


def test_dead_worker_degrades_its_shard_only_with_typed_failures():
    keys, counts, probe = _traffic(seed=9)
    oracle = _oracle(4, "ms", "numpy")
    with ProcessShardPool(4, M, K, seed=SEED,
                          auto_revive=False) as pool:
        assert pool.insert_many(keys, counts).ok
        for key, count in zip(keys, counts):
            oracle.insert(key, count)
        victim = 2
        pool.kill_worker(victim)
        owners = pool.router.shard_of_many(probe)
        result = pool.query_many(probe)
        # Per-shard degradation: exactly the dead worker's keys fail,
        # each as a typed retryable DeliveryFailed; every other key
        # still answers bit-identically to the oracle.
        failed = {f.index for f in result.failures}
        assert failed == {i for i, o in enumerate(owners) if o == victim}
        assert failed, "probe set never hit the dead shard"
        for failure in result.failures:
            assert isinstance(failure.error, DeliveryFailed)
            assert failure.retryable
        for i, key in enumerate(probe):
            if i not in failed:
                assert int(result.values[i]) == oracle.query(key)
        # Point traffic to the dead shard raises the same typed error...
        dead_keys = [probe[i] for i in sorted(failed)]
        with pytest.raises(DeliveryFailed):
            pool.router.query(dead_keys[0])
        # ...until the supervisor revives it — with nothing lost.
        pool.revive_worker(victim)
        healed = pool.query_many(probe)
        assert healed.ok
        assert healed.values.tolist() == [oracle.query(x) for x in probe]


def test_kill_between_batches_loses_no_acknowledged_mutation():
    # The snapshot path refreshes after every acknowledged mutation, so
    # a kill landing between two bulk calls must not roll back the first.
    keys, counts, probe = _traffic(seed=31)
    half = len(keys) // 2
    oracle = _oracle(2, "rm", "array")
    with ProcessShardPool(2, M, K, seed=SEED, method="rm",
                          backend="array") as pool:
        assert pool.insert_many(keys[:half], counts[:half]).ok
        pool.kill_worker(0)
        pool.kill_worker(1)
        assert pool.insert_many(keys[half:], counts[half:]).ok
        for key, count in zip(keys, counts):
            oracle.insert(key, count)
        got = pool.query_many(probe)
        assert got.ok
        assert got.values.tolist() == [oracle.query(x) for x in probe]


def test_pool_under_faulty_network_stays_exact():
    # Point traffic rides the RemoteShard reliable channels; a lossy,
    # corrupting network costs retries, never answers.
    keys, counts, probe = _traffic(seed=17, n=150, universe=600)
    network = FaultyNetwork(
        FaultPolicy(drop=0.15, duplicate=0.1, corrupt=0.1, seed=77))
    oracle = _oracle(2, "ms", "numpy")
    with ProcessShardPool(2, M, K, seed=SEED, network=network) as pool:
        for key, count in zip(keys, counts):
            pool.router.insert(key, count)
            oracle.insert(key, count)
        for key in probe:
            assert pool.router.query(key) == oracle.query(key)
        assert network.faults["drops"] > 0  # the chaos actually happened


def test_worker_kill_under_faulty_network_keeps_contract():
    # Chaos squared: injected frame faults AND a worker kill mid-run.
    # The surviving shard keeps answering exactly; the dead shard comes
    # back with acknowledged state intact.
    keys, counts, probe = _traffic(seed=23, n=200, universe=800)
    network = FaultyNetwork(FaultPolicy(drop=0.1, corrupt=0.1, seed=5))
    oracle = _oracle(2, "ms", "numpy")
    with ProcessShardPool(2, M, K, seed=SEED, network=network) as pool:
        assert pool.insert_many(keys, counts).ok
        for key, count in zip(keys, counts):
            oracle.insert(key, count)
        pool.kill_worker(0)
        for key in probe:
            assert pool.router.query(key) == oracle.query(key)
        assert pool.worker_alive(0)


def test_engine_and_batcher_run_unchanged_over_the_pool():
    with ProcessShardPool(3, M, K, seed=SEED) as pool:
        engine = ServingEngine(pool.router, max_queue=512)
        oracle = _oracle(3, "ms", "numpy")
        rng = np.random.default_rng(3)
        keys = [int(x) for x in rng.integers(0, 1500, 400)]
        futures = [engine.submit("insert", key, 2) for key in keys]
        engine.drain()
        for future in futures:
            future.result()
        for key in keys:
            oracle.insert(key, 2)
        probe = [int(x) for x in rng.integers(0, 2000, 200)]
        futures = [engine.submit("query", key) for key in probe]
        engine.drain()
        got = [future.result() for future in futures]
        assert got == [oracle.query(key) for key in probe]
        engine.close()


def test_close_is_graceful_and_idempotent():
    pool = ProcessShardPool(2, M, K, seed=SEED)
    processes = [w.process for w in pool._workers]
    assert pool.insert_many(list(range(50))).ok
    pool.close()
    for process in processes:
        assert process is None or not process.is_alive()
    assert all(not pool.worker_alive(i) for i in range(2))
    assert pool.metrics.gauge("engine.worker.0.up").value == 0
    pool.close()  # second close is a no-op, not an error


def test_checkpoint_refreshes_snapshot_for_respawn():
    with ProcessShardPool(2, M, K, seed=SEED, method="rm",
                          backend="array", auto_snapshot=False) as pool:
        assert pool.insert_many(list(range(80)), [3] * 80).ok
        for shard in pool.shards:
            shard.checkpoint()  # explicit snapshot instead of auto
        pool.kill_worker(0)
        pool.kill_worker(1)
        got = pool.query_many(list(range(80)))
        assert got.ok
        assert all(int(v) >= 3 for v in got.values)


def test_engine_batch_is_one_round_trip_on_a_one_worker_pool():
    with ProcessShardPool(1, 1 << 12, 4, seed=3) as pool:
        oracle = SpectralBloomFilter(1 << 12, 4, seed=3,
                                     hash_family="blocked")
        engine = ServingEngine(pool.router, batch_size=64)
        requests = pool.metrics.counter("engine.worker.0.requests")
        before = requests.value
        ops = [("insert", i % 40) if i % 4 else ("query", i % 40)
               for i in range(64)]
        futures = [engine.submit(*op) for op in ops]
        assert engine.pump() == 64
        assert requests.value == before + 1
        for op, future in zip(ops, futures):
            if op[0] == "insert":
                oracle.insert(op[1])
                assert future.result(timeout=0) is None
            else:
                assert future.result(timeout=0) == oracle.query(op[1])


def test_snapshot_refreshes_only_after_a_mutating_frame():
    # Recurring Minimum keeps no shared-memory segment, so the parent
    # holds a snapshot: queries-only frames must leave it alone.
    with ProcessShardPool(1, 1 << 10, 4, seed=3, method="rm",
                          backend="array") as pool:
        refreshed = []
        snapshot = pool.snapshot_shard
        pool.snapshot_shard = lambda i: (refreshed.append(i), snapshot(i))
        shard = pool.shards[0]
        assert shard.execute([("query", "a"), ("contains", "a", 1)]) \
            == [0, False]
        assert refreshed == []
        assert shard.execute([("query", "a"), ("insert", "a", 2)]) \
            == [0, None]
        assert refreshed == [0]


def _write_99(pool: ProcessShardPool, path: str) -> list:
    """``insert(99, 5)`` through one of the pool's write paths; the
    outcome of every slot the write's frame carried."""
    if path == "point":
        try:
            pool.shards[0].insert(99, 5)
        except Exception as exc:
            return [exc]
        return [None]
    if path == "execute":
        return pool.shards[0].execute([("insert", 99, 5), ("query", 1)])
    return pool.insert_many([99], [5]).tolist()


@pytest.mark.parametrize("path", ["point", "execute", "pipelined"])
def test_a_write_whose_snapshot_pull_dies_fails_retryably(path):
    # A Recurring Minimum shard's state lives in its worker, and the
    # parent's snapshot is what a respawn restores.  A worker that dies
    # after answering a mutation, before the parent pulls the snapshot,
    # takes the mutation with it: the write must fail retryably rather
    # than be acknowledged, and a retry must land exactly once.
    with ProcessShardPool(1, M, K, seed=SEED, method="rm",
                          backend="array") as pool:
        pool.shards[0].insert(1, 2)
        pull = pool.snapshot_shard

        def die_first(index):
            pool.snapshot_shard = pull
            pool.kill_worker(index)
            pull(index)

        pool.snapshot_shard = die_first
        outcomes = _write_99(pool, path)
        assert outcomes and all(isinstance(o, DeliveryFailed)
                                for o in outcomes)
        assert pool.shards[0].query(99) == 0    # the old snapshot's count
        assert pool.shards[0].query(1) == 2
        assert pool.metrics.counter("engine.worker.0.restarts").value == 1
        acked = {"point": [None], "execute": [None, 2], "pipelined": [None]}
        assert _write_99(pool, path) == acked[path]
        assert pool.shards[0].query(99) == 5
        assert pool.total_count == 7


def test_a_shared_memory_worker_that_dies_after_answering_keeps_its_total(
        monkeypatch, tmp_path):
    # The worker mirrors total_count into the segment header before it
    # answers, so a worker that exits right after an answer leaves the
    # header in step with the counters that answer acknowledged.
    parent = os.getpid()
    armed = tmp_path / "exit-after-next-answer"
    send_bytes = Connection.send_bytes

    def send_then_exit(conn, buf, *args):
        send_bytes(conn, buf, *args)
        if os.getpid() != parent and armed.exists():
            armed.unlink()
            os._exit(0)

    monkeypatch.setattr(Connection, "send_bytes", send_then_exit)
    with ProcessShardPool(1, M, K, seed=SEED, method="ms",
                          backend="numpy") as pool:
        shard = pool.shards[0]
        shard.insert(1, 2)
        armed.touch()
        shard.insert(99, 5)                 # answered, then the worker exits
        pool._workers[0].process.join(timeout=5.0)
        assert not armed.exists()
        assert shard.query(99) == 5 and shard.query(1) == 2
        assert pool.metrics.counter("engine.worker.0.restarts").value == 1
        assert pool.total_count == 7


def test_bulk_call_that_raises_applies_nothing_and_keeps_pipes_in_step():
    # A count no int64 holds fails the second owner's frame.  Every frame
    # is built before any is sent, so nothing applies and no answer is
    # left on a pipe for the next call to misread as its own.
    with ProcessShardPool(2, M, K, seed=SEED) as pool:
        keys = list(range(40))
        owners = list(pool.router.shard_of_many(keys))
        counts = [1] * len(keys)
        counts[owners.index(1)] = 2 ** 63
        with pytest.raises(OverflowError):
            pool.insert_many(keys, counts)
        assert pool.query_many(keys).values.tolist() == [0] * len(keys)
        assert pool.total_count == 0


def test_closed_pool_refuses_traffic_typed_and_non_retryable():
    # A client that honours `retryable` must not retry a closed pool
    # forever: every path refuses with one RuntimeError, before touching
    # a pipe and without counting a worker failure.
    pool = ProcessShardPool(2, M, K, seed=SEED)
    assert pool.insert_many(list(range(20))).ok
    requests = [pool.metrics.counter(f"engine.worker.{i}.requests").value
                for i in range(2)]
    pool.close()

    def refused(outcome) -> bool:
        return type(outcome) is RuntimeError \
            and str(outcome) == "process pool is closed"

    with pytest.raises(RuntimeError, match="process pool is closed"):
        pool.router.query(1)
    with pytest.raises(RuntimeError, match="process pool is closed"):
        pool.router.insert(1)
    assert all(refused(o) for o in pool.shards[0].execute(
        [("insert", 1), ("query", 1)]))
    ops = [("insert", key) for key in range(8)] + [("query", 3)]
    assert all(refused(o) for o in ShardBatcher(pool.router).execute(ops))
    engine = ServingEngine(pool.router)
    futures = [engine.submit(*op) for op in ops]
    engine.drain()
    assert all(refused(future.exception()) for future in futures)
    for verb in ("insert_many", "delete_many", "query_many"):
        with pytest.raises(RuntimeError, match="process pool is closed"):
            getattr(pool, verb)([1, 2, 3])
    for i in range(2):
        assert pool.metrics.counter(f"engine.worker.{i}.failures").value \
            == 0
        assert pool.metrics.counter(f"engine.worker.{i}.requests").value \
            == requests[i]


def test_one_codec_on_every_pipe_for_a_whole_pool_life(monkeypatch):
    # Spawn, an engine batch, pipelined int and str bulk, RM snapshots,
    # a kill plus a revive from the snapshot, then close: every frame on
    # a worker pipe is a remote-shard request or response, and the only
    # other message is one empty shutdown per live worker.
    parent = os.getpid()
    sent: list[tuple[int, bytes]] = []
    received: list[bytes] = []
    send_bytes, recv_bytes = Connection.send_bytes, Connection.recv_bytes

    def record_send(conn, buf, *args):
        if os.getpid() == parent:
            sent.append((id(conn), bytes(buf)))
        return send_bytes(conn, buf, *args)

    def record_recv(conn, *args):
        frame = recv_bytes(conn, *args)
        if os.getpid() == parent:
            received.append(frame)
        return frame

    monkeypatch.setattr(Connection, "send_bytes", record_send)
    monkeypatch.setattr(Connection, "recv_bytes", record_recv)
    before = set(multiprocessing.active_children())
    keys, counts, probe = _traffic(seed=41, n=300, universe=900)
    words = [f"user-{i % 50}" for i in range(120)]
    oracle = _oracle(2, "rm", "array")
    pool = ProcessShardPool(2, M, K, seed=SEED, method="rm",
                            backend="array")
    try:
        engine = ServingEngine(pool.router, max_queue=512)
        futures = [engine.submit("insert", key, count)
                   for key, count in zip(keys[:100], counts[:100])]
        engine.drain()
        assert [future.result() for future in futures] == [None] * 100
        assert pool.insert_many(keys[100:], counts[100:]).ok
        assert pool.insert_many(words).ok
        for key, count in zip(keys, counts):
            oracle.insert(key, count)
        for key in words:
            oracle.insert(key)
        pool.kill_worker(0)
        got = pool.query_many(probe + words)
        assert got.ok
        assert got.values.tolist() == [oracle.query(x) for x in probe + words]
        assert pool.metrics.counter("engine.worker.0.restarts").value == 1
        processes = [worker.process for worker in pool._workers]
    finally:
        start = time.perf_counter()
        pool.close()
        took = time.perf_counter() - start
    # Well inside the 2 s join timeout: the workers saw the shutdown.
    assert took < 1.0
    assert not any(process.is_alive() for process in processes)
    assert set(multiprocessing.active_children()) <= before
    ops, forms = set(), set()
    for _, frame in sent:
        if frame:
            meta, _ = open_frame(frame, REQUEST_MAGIC)
            ops.add(meta["op"])
            forms.update({"bin", "keys"} & set(meta))
    assert {"execute", "insert_many", "query_many", "checkpoint"} <= ops
    assert forms == {"bin", "keys"}
    for frame in received:
        open_frame(frame, RESPONSE_MAGIC)
    # One shutdown per worker alive at close, each its pipe's last word.
    shutdowns = [conn for conn, frame in sent if not frame]
    assert len(shutdowns) == len(set(shutdowns)) == 2
    for conn in shutdowns:
        assert [frame for c, frame in sent if c == conn][-1] == b""
