"""RollingReshard: live block-range migration behind one topology.

The invariant: at every instant of a rolling reshard — before, between,
and after migration steps, under interleaved live traffic — every routed
answer is bit-identical to the unsharded oracle filter, and the old
fleet stays fully authoritative so an abort loses nothing.  Until commit
the fleet routes by the old shard count, each old shard's slot a handle
that replays its writes on their new owners, so batches keep their shard
groups, lock budgets and deadlines.
"""

import random
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.sbf import SpectralBloomFilter
from repro.persist import ConcurrentSBF, LockTimeout
from repro.serve import (
    ReplicaSet,
    RollingReshard,
    ServingEngine,
    ShardBatcher,
    ShardedSBF,
)

M, K, SEED = 4096, 4, 7


def make_oracle() -> SpectralBloomFilter:
    return SpectralBloomFilter(M, K, seed=SEED, method="ms",
                               backend="array", hash_family="blocked")


def make_fleet(n: int) -> ShardedSBF:
    return ShardedSBF.create(n, M, K, seed=SEED, method="ms",
                             backend="array", hash_family="blocked")


def workload(n: int = 500, seed: int = 3) -> list:
    rng = random.Random(seed)
    return [rng.choice([f"u:{i % 61}", rng.randrange(1 << 40)])
            for i in range(n)]


def test_rolling_4_to_6_under_live_traffic_matches_oracle():
    fleet, oracle = make_fleet(4), make_oracle()
    rng = random.Random(5)
    base = workload(400)
    for key in base:
        fleet.insert(key)
        oracle.insert(key)
    reshard = fleet.start_reshard(6)
    assert fleet.migrating
    assert reshard.remaining == [0, 1, 2, 3]
    live = iter(f"live:{i}" for i in range(240))
    while not reshard.done:
        # Interleave live writes and reads with the migration steps.
        for _ in range(60):
            key = next(live, None)
            if key is None:
                break
            count = rng.randint(1, 4)
            fleet.insert(key, count)
            oracle.insert(key, count)
            probe = rng.choice(base)
            assert fleet.query(probe) == oracle.query(probe)
            assert fleet.query(key) == oracle.query(key)
        assert fleet.total_count == oracle.total_count
        reshard.step()
    assert reshard.commit() is fleet
    assert fleet.n_shards == 6
    assert not fleet.migrating
    assert fleet.total_count == oracle.total_count
    for key in base + [f"live:{i}" for i in range(240)] + ["miss", -3]:
        assert fleet.query(key) == oracle.query(key)
    # The committed fleet is a normal fleet: deletes, union reshard, all
    # still exact.
    for key in base[:80]:
        fleet.delete(key)
        oracle.delete(key)
        assert fleet.query(key) == oracle.query(key)
    fleet.reshard(3)
    assert fleet.total_count == oracle.total_count


def test_routing_keeps_the_old_topology_until_commit():
    # One topology at every instant: whichever old shards are already
    # copied, a key routes by the old shard count until commit.
    fleet = make_fleet(4)
    keys = workload(200)
    for key in keys:
        fleet.insert(key)
    family = fleet._family
    reshard = fleet.start_reshard(6)
    while True:
        assert [fleet.shard_of(key) for key in keys] == \
            [family.block_of(key) % 4 for key in keys]
        assert fleet.shard_of_many(keys).tolist() == \
            [fleet.shard_of(k) for k in keys]
        if reshard.done:
            break
        reshard.step()
    reshard.commit()
    assert [fleet.shard_of(key) for key in keys] == \
        [family.block_of(key) % 6 for key in keys]
    assert fleet.shard_of_many(keys).tolist() == \
        [fleet.shard_of(k) for k in keys]


def test_abort_mid_migration_rolls_back_cleanly():
    fleet, oracle = make_fleet(4), make_oracle()
    base = workload(300)
    for key in base:
        fleet.insert(key, 2)
        oracle.insert(key, 2)
    reshard = fleet.start_reshard(6)
    reshard.step()
    reshard.step()
    # Writes land during the half-done migration (dual-applied for the
    # migrated shards), then the whole thing is called off.
    for i in range(80):
        fleet.insert(f"mid:{i}")
        oracle.insert(f"mid:{i}")
    reshard.abort()
    assert fleet.n_shards == 4
    assert not fleet.migrating
    assert fleet.total_count == oracle.total_count
    for key in base + [f"mid:{i}" for i in range(80)]:
        assert fleet.query(key) == oracle.query(key)
    # The stale handle is inert.
    with pytest.raises(ValueError, match="no longer active"):
        reshard.step()
    with pytest.raises(ValueError, match="no longer active"):
        reshard.commit()
    # ...and a fresh migration can start over.
    fleet.start_reshard(6).run()
    assert fleet.n_shards == 6
    for key in base:
        assert fleet.query(key) == oracle.query(key)


def _expected(oracle, op):
    verb, key = op[0], op[1]
    if verb == "query":
        return oracle.query(key)
    if verb == "contains":
        return oracle.contains(key, op[2])
    getattr(oracle, verb)(key, op[2])
    return None


@pytest.mark.parametrize("finish", ["commit", "abort"])
def test_batcher_keeps_its_shard_groups_during_migration(finish):
    # Each batch verb sends one group per owner shard, as on a fleet at
    # rest, and answers like the oracle after every step and after the
    # reshard commits or aborts.
    fleet, oracle = make_fleet(4), make_oracle()
    batcher = ShardBatcher(fleet)
    groups = fleet.metrics.counter("batch.shard_batches")
    base = workload(200)
    for key in base:
        fleet.insert(key)
        oracle.insert(key)

    def owners(keys) -> int:
        return len(set(fleet.shard_of_many(keys).tolist()))

    def one_round(tag: str) -> None:
        inserted = [f"batch:{tag}:{i}" for i in range(50)]
        before = groups.value
        assert batcher.insert_many(inserted).ok
        assert groups.value - before == owners(inserted)
        for key in inserted:
            oracle.insert(key)
        ops = ([("query", key) for key in base[:30]]
               + [("insert", f"x:{tag}", 2), ("set", f"s:{tag}", 3),
                  ("delete", inserted[0], 1), ("contains", base[0], 1)])
        before = groups.value
        results = batcher.execute(ops)
        assert groups.value - before == owners([op[1] for op in ops])
        assert results == [_expected(oracle, op) for op in ops]
        probe = base + inserted + [f"x:{tag}", f"s:{tag}", "miss"]
        before = groups.value
        assert batcher.query_many(probe) == [oracle.query(k) for k in probe]
        assert groups.value - before == owners(probe)
        assert fleet.total_count == oracle.total_count

    reshard = fleet.start_reshard(6)
    one_round("start")
    steps = 2 if finish == "abort" else len(reshard.remaining)
    for _ in range(steps):
        reshard.step()
        one_round(f"step{len(reshard.remaining)}")
    getattr(reshard, finish)()
    assert fleet.n_shards == (6 if finish == "commit" else 4)
    one_round(finish)
    for key in base:
        assert fleet.query(key) == oracle.query(key)


def test_shard_of_many_is_shard_of_for_every_key_kind():
    batches = {
        "int": list(range(-40, 40)) + [2 ** 63 - 1, 2 ** 64 - 1],
        "str": [f"k{i}" for i in range(80)] + ["", "\u00e9t\u00e9"],
        "float": [i / 7 for i in range(40)] + [float("inf"), -0.0],
        "bool": [True, False, True],
        "none": [None, None],
        "mixed": [1, "1", 1.0, True, None, 2 ** 70, -3, "x"],
        "empty": [],
    }
    fleet = make_fleet(4)

    def check() -> None:
        for name, keys in batches.items():
            assert fleet.shard_of_many(keys).tolist() == \
                [fleet.shard_of(key) for key in keys], name

    check()
    reshard = fleet.start_reshard(6)
    check()
    reshard.step()
    check()
    reshard.run()
    check()


def _hold_write_side(shard, seconds: float):
    """Hold *shard*'s write side from a peer thread until the returned
    event is set (or *seconds* pass)."""
    held, release = threading.Event(), threading.Event()

    def hold() -> None:
        with shard.exclusive():
            held.set()
            release.wait(seconds)

    peer = threading.Thread(target=hold)
    peer.start()
    held.wait()
    return release, peer


@pytest.mark.parametrize("migrating", [False, True],
                         ids=["at_rest", "migrating"])
def test_a_batch_keeps_its_lock_budget_during_migration(migrating):
    # At the parent each held key waited the shard's own 1 s budget in
    # turn (3 s for a 3 s hold) and then landed.
    fleet = ShardedSBF.create(4, M, K, seed=SEED, backend="array",
                              timeout=1.0)
    held = fleet.shards[0]
    if migrating:
        fleet.start_reshard(6)
    release, peer = _hold_write_side(held, 3.0)
    try:
        start = time.monotonic()
        outcome = ShardBatcher(fleet).insert_many(range(200), timeout=0.05)
        elapsed = time.monotonic() - start
    finally:
        release.set()
        peer.join()
    on_held = [key for key in range(200) if fleet.shard_of(key) == 0]
    assert [failure.index for failure in outcome.failures] == on_held
    assert all(type(failure.error) is LockTimeout
               for failure in outcome.failures)
    assert elapsed < 0.5
    assert fleet.total_count == 200 - len(on_held)


def test_an_engine_deadline_holds_during_migration():
    # At the parent the request waited out a 0.5 s hold and was
    # acknowledged, its insert applied.
    fleet = ShardedSBF.create(4, M, K, seed=SEED, backend="array",
                              timeout=1.0)
    held = fleet.shards[0]
    fleet.start_reshard(6)
    key = next(k for k in range(100) if fleet.shard_of(k) == 0)
    engine = ServingEngine(fleet)
    release, peer = _hold_write_side(held, 0.5)
    try:
        start = time.monotonic()
        request = engine.submit("insert", key, 1, timeout=0.05)
        engine.pump()
        error = request.exception()
        elapsed = time.monotonic() - start
    finally:
        release.set()
        peer.join()
    assert type(error) is LockTimeout
    assert elapsed < 0.4
    assert fleet.total_count == 0
    assert fleet.query(key) == 0


def test_concurrent_writers_lose_nothing_while_shards_migrate():
    # Writers race every step through every write path, from before the
    # first step until after the last.  Each write lands on its old shard
    # before the copy (and is copied) or after the flip (and is
    # replayed), so the committed fleet holds the oracle's counters
    # exactly; a lost or doubled replay would break that.
    fleet, oracle = make_fleet(4), make_oracle()
    for key in workload(300):
        fleet.insert(key)
        oracle.insert(key)
    reshard = fleet.start_reshard(6)
    batcher = ShardBatcher(fleet)
    stop = threading.Event()
    written = [[] for _ in range(4)]
    errors = []

    def writer(t: int) -> None:
        try:
            for n in range(10_000):
                if stop.is_set() and n >= 3:
                    return
                chunk = [f"w{t}:{(30 * n + j) % 97}" for j in range(30)]
                if n % 3 == 0:
                    assert batcher.insert_many(chunk).ok
                elif n % 3 == 1:
                    assert batcher.execute([("insert", k) for k in chunk]) \
                        == [None] * len(chunk)
                else:
                    for key in chunk:
                        fleet.insert(key)
                written[t].extend(chunk)
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(4)]
        for thread in threads:
            thread.start()
        while not reshard.done:
            time.sleep(0.002)
            reshard.step()
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for keys in written:
        for key in keys:
            oracle.insert(key)
    reshard.commit()
    assert fleet.total_count == oracle.total_count
    merged = sum(np.array(list(shard.sbf.counters), dtype=np.int64)
                 for shard in fleet.shards)
    assert merged.tolist() == list(oracle.counters)


@pytest.mark.parametrize("swap", ["commit", "union"])
def test_a_batch_regroups_when_a_reshard_lands_mid_pass(swap, monkeypatch):
    # The owner pass returns the shard list it grouped for, and a swap
    # inside the pass regroups: no group runs on a list of another shard
    # count (at the parent a union reshard there failed 102 of these 200
    # slots with IndexError).
    fleet, oracle = make_fleet(4), make_oracle()
    reshard = fleet.start_reshard(6) if swap == "commit" else None
    real, swapped = fleet.shard_of_many, []

    def shard_of_many(keys):
        owners = real(keys)
        if not swapped:
            swapped.append(True)
            if reshard is not None:
                reshard.run()
            else:
                fleet.reshard(2)
        return owners

    monkeypatch.setattr(fleet, "shard_of_many", shard_of_many)
    keys = [f"k{i}" for i in range(200)]
    assert ShardBatcher(fleet).insert_many(keys).ok
    for key in keys:
        oracle.insert(key)
    assert fleet.n_shards == (6 if swap == "commit" else 2)
    assert [fleet.query(key) for key in keys] == \
        [oracle.query(key) for key in keys]


def test_groups_that_outlive_a_shrinking_commit_still_land():
    # A batch grouped on the old topology runs its later groups after a
    # 4 -> 3 commit: the old shards' handles replay them on their new
    # owners, and crediting an old shard id no longer in the fleet is
    # skipped rather than raised.
    fleet, oracle = make_fleet(4), make_oracle()
    reshard = fleet.start_reshard(3)
    first = fleet.shards[0]
    real = first.insert_many

    def insert_many_then_commit(keys, counts=None, *, timeout=None):
        outcome = real(keys, counts, timeout=timeout)
        if fleet.migrating:
            reshard.run()
        return outcome

    first.insert_many = insert_many_then_commit
    keys = [f"k{i}" for i in range(200)]
    assert ShardBatcher(fleet).insert_many(keys).ok
    for key in keys:
        oracle.insert(key)
    assert fleet.n_shards == 3
    assert fleet.total_count == oracle.total_count
    assert [fleet.query(key) for key in keys] == \
        [oracle.query(key) for key in keys]


def test_commit_requires_every_shard_migrated():
    fleet = make_fleet(4)
    for key in workload(100):
        fleet.insert(key)
    reshard = fleet.start_reshard(6)
    reshard.step()
    with pytest.raises(ValueError, match="un-migrated"):
        reshard.commit()
    reshard.run()
    assert fleet.n_shards == 6


def test_fleet_moments_are_fenced_during_migration():
    fleet = make_fleet(4)
    for key in workload(100):
        fleet.insert(key)
    reshard = fleet.start_reshard(6)
    for call in (lambda: fleet.reshard(2), lambda: fleet.start_reshard(3),
                 fleet.checkpoint, fleet.dump_manifest):
        with pytest.raises(ValueError, match="rolling reshard"):
            call()
    assert fleet.metrics.gauge("router.migrating").value == 1.0
    reshard.run()
    assert fleet.metrics.gauge("router.migrating").value == 0.0
    fleet.checkpoint()                         # fences lift after commit
    fleet.dump_manifest()


def test_rolling_reshard_preconditions():
    # Counter vectors split block-wise only; a fleet routes by block, so
    # an unblocked one is refused before it could be resharded at all.
    with pytest.raises(ValueError, match="blocked"):
        ShardedSBF.create(4, M, K, seed=SEED, method="ms",
                          backend="array", hash_family="modmul")
    rm_fleet = ShardedSBF.create(4, M, K, seed=SEED, method="rm",
                                 backend="array", hash_family="blocked")
    with pytest.raises(ValueError, match="Minimum Selection"):
        rm_fleet.start_reshard(6)
    with pytest.raises(ValueError, match=">= 1"):
        make_fleet(4).start_reshard(0)
    replicated = ShardedSBF([ReplicaSet([ConcurrentSBF(make_oracle())])])
    with pytest.raises(ValueError, match="replicated"):
        replicated.start_reshard(3)


def test_rolling_reshard_refuses_durable_shards(tmp_path):
    fleet = ShardedSBF.create(2, M, K, seed=SEED,
                              durable_root=str(tmp_path))
    try:
        with pytest.raises(ValueError, match="manifest"):
            fleet.start_reshard(3)
    finally:
        for shard in fleet.shards:
            shard.raw.close()


def test_rolling_reshard_shrinks_and_to_one():
    for new_n in (3, 1, 7):
        fleet, oracle = make_fleet(4), make_oracle()
        keys = workload(250, seed=new_n)
        for key in keys:
            fleet.insert(key, 2)
            oracle.insert(key, 2)
        handle = fleet.start_reshard(new_n)
        assert isinstance(handle, RollingReshard)
        handle.run()
        assert fleet.n_shards == new_n
        assert fleet.total_count == oracle.total_count
        for key in keys:
            assert fleet.query(key) == oracle.query(key)
        if new_n == 1:
            # Rolled all the way down, the single shard IS the unsharded
            # filter, counter for counter.
            assert list(fleet.shards[0].sbf.counters) == \
                list(oracle.counters)
