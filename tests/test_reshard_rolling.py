"""RollingReshard: live block-range migration behind dual routing.

The invariant: at every instant of a rolling reshard — before, between,
and after migration steps, under interleaved live traffic — every routed
answer is bit-identical to the unsharded oracle filter, and the old
fleet stays fully authoritative so an abort loses nothing.
"""

import random

import pytest

from repro.core.sbf import SpectralBloomFilter
from repro.persist import ConcurrentSBF
from repro.serve import (
    ReplicaSet,
    RollingReshard,
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


def test_dual_routing_reports_new_owners_for_migrated_blocks():
    fleet = make_fleet(4)
    keys = workload(200)
    for key in keys:
        fleet.insert(key)
    before = {key: fleet.shard_of(key) for key in keys}
    reshard = fleet.start_reshard(6)
    migrated = reshard.step()
    family = fleet._family
    for key in keys:
        block = family.block_of(key)
        if block % 4 == migrated:
            # Migrated keys report their new owner, offset past the old
            # id space so the two topologies cannot be confused.
            assert fleet.shard_of(key) == 4 + block % 6
        else:
            assert fleet.shard_of(key) == before[key]
    assert fleet.shard_of_many(keys).tolist() == \
        [fleet.shard_of(k) for k in keys]
    reshard.run()
    assert [fleet.shard_of(key) for key in keys] == \
        [family.block_of(key) % 6 for key in keys]


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


def test_batcher_falls_back_to_routed_ops_during_migration():
    fleet, oracle = make_fleet(4), make_oracle()
    batcher = ShardBatcher(fleet)
    base = workload(200)
    for key in base:
        fleet.insert(key)
        oracle.insert(key)
    reshard = fleet.start_reshard(6)
    reshard.step()
    inserted = [f"batch:{i}" for i in range(50)]
    outcome = batcher.insert_many(inserted)
    assert outcome.ok and outcome.applied == len(inserted)
    for key in inserted:
        oracle.insert(key)
    results = batcher.execute(
        [("query", key) for key in base[:30]]
        + [("insert", "batch:x", 2), ("contains", base[0], 1)])
    assert results[:30] == [oracle.query(key) for key in base[:30]]
    oracle.insert("batch:x", 2)
    assert results[31] == oracle.contains(base[0], 1)
    estimates = batcher.query_many(base[:40] + inserted + ["batch:x"])
    assert estimates == [oracle.query(key)
                         for key in base[:40] + inserted + ["batch:x"]]
    assert fleet.metrics.counter("batch.migrating_fallback").value > 0
    reshard.run()
    for key in base + inserted:
        assert fleet.query(key) == oracle.query(key)


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
