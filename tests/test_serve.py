"""ShardedSBF router: transparent sharding, reshard, manifest.

The central claim (DESIGN.md §7): with the default blocked hash family,
hash partitioning is *invisible* — a routed query returns the identical
estimate an unsharded filter would, for any shard count, batched or not,
because keys and the counters they touch shard together.  These tests pin
that equivalence down with seeded workloads, then exercise the pre-split
resharding discipline and the wire manifest.
"""

import multiprocessing
import random
from collections import deque

import numpy as np
import pytest

from repro.core.params import bloom_error
from repro.core.serialize import WireFormatError
from repro.core.sbf import SpectralBloomFilter
from repro.db.faults import FaultyNetwork
from repro.hashing.families import make_family
from repro.persist import ConcurrentSBF, LockTimeout
from repro.serve import (
    Deadline,
    DeadlineExceeded,
    MetricsRegistry,
    ProcessShardPool,
    RemoteShard,
    ShardBatcher,
    ShardedSBF,
    ShardServer,
    replicated_fleet,
)

M, K, SEED = 4096, 4, 7
SHARD_COUNTS = [1, 2, 4, 8]


def make_reference(method: str = "ms") -> SpectralBloomFilter:
    return SpectralBloomFilter(M, K, seed=SEED, method=method,
                               backend="array", hash_family="blocked")


def make_router(n_shards: int, method: str = "ms") -> ShardedSBF:
    return ShardedSBF.create(n_shards, M, K, seed=SEED, method=method,
                             backend="array", hash_family="blocked")


def workload(n: int = 800) -> list:
    """Mixed int/str keys with skewed multiplicities."""
    rng = random.Random(SEED)
    keys = []
    for i in range(n):
        if i % 5 == 0:
            keys.append(f"user:{i % 97}")
        else:
            keys.append(rng.randrange(1 << 40))
    return keys


def probes(keys: list) -> list:
    """The inserted keys plus guaranteed-distinct miss probes."""
    return list(dict.fromkeys(keys)) \
        + [f"miss:{i}" for i in range(50)] \
        + [-(i + 1) for i in range(50)]


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_routed_query_equals_unsharded(n_shards):
    router, reference = make_router(n_shards), make_reference()
    keys = workload()
    for key in keys:
        router.insert(key)
        reference.insert(key)
    assert router.total_count == reference.total_count
    for key in probes(keys):
        assert router.query(key) == reference.query(key)
        assert router.contains(key, 2) == reference.contains(key, 2)
    with pytest.raises(ValueError, match="threshold must be >= 0"):
        router.contains(keys[0], -1)


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_batched_paths_equal_unsharded(n_shards):
    router, reference = make_router(n_shards), make_reference()
    batcher = ShardBatcher(router)
    int_keys = [key for key in workload() if isinstance(key, int)]
    batcher.insert_many(int_keys)          # vectorised scatter path
    for key in int_keys:
        reference.insert(key)
    targets = list(dict.fromkeys(int_keys)) + list(range(100))
    assert batcher.query_many(targets) \
        == [reference.query(key) for key in targets]
    # Mixed-verb batch against the same sequential reference.
    ops = [("query", key) for key in targets[:40]] \
        + [("contains", key, 2) for key in targets[:40]]
    expected = [reference.query(key) for key in targets[:40]] \
        + [reference.contains(key, 2) for key in targets[:40]]
    assert batcher.execute(ops) == expected


@pytest.mark.parametrize("path", ["router", "concurrent", "filter",
                                  "filter-bulk-trm"])
def test_refused_delete_changes_nothing(path):
    # A refused delete must fail before any counter moves, on every
    # path: decrementing counter by counter until the backend raises
    # leaves an MS undercount behind an op that reported failure.
    method = "trm" if path.endswith("trm") else "ms"
    fleet = ShardedSBF.create(2, 1024, 4, seed=1, method=method)
    for i in range(40):
        fleet.insert(f"a{i}")
    shard = fleet.shards[fleet.shard_of("b5")]
    victim = next(f"a{i}" for i in range(40)
                  if fleet.shard_of(f"a{i}") == fleet.shard_of("b5"))
    before = [list(s.sbf.counters) for s in fleet.shards]
    with pytest.raises(ValueError, match="negative"):
        if path == "router":
            fleet.delete("b5")
        elif path == "concurrent":
            shard.delete("b5")
        elif path == "filter":
            shard.sbf.delete("b5")
        else:                       # bulk deletes replayed key by key
            shard.sbf.delete_many([victim, "b5"])
    assert [list(s.sbf.counters) for s in fleet.shards] == before
    assert all(s.check_integrity() == [] for s in fleet.shards)
    assert fleet.query("a7") == 1 and fleet.total_count == 40


def test_bulk_queries_ride_the_shared_read_path():
    # Bulk readers overlap: while another reader holds shard 0's read
    # side, the batcher's query_many still answers — it only reads, so
    # it must not queue for the write side of the shard's lock.
    router, reference = make_router(2), make_reference()
    batcher = ShardBatcher(router)
    keys = workload(300)
    assert batcher.insert_many(keys).ok
    for key in keys:
        reference.insert(key)
    shard = router.shards[0]
    shard._lock.acquire_read(1.0)
    try:
        assert batcher.query_many(keys, timeout=0.1) \
            == [reference.query(key) for key in keys]
    finally:
        shard._lock.release_read()


@pytest.mark.parametrize("method", ["mi", "rm"])
def test_bulk_insert_keeps_submission_order_per_shard(method):
    # MI and RM updates depend on the order keys arrive in, so the owner
    # pass must group a batch without reordering any shard's keys: a
    # skewed 8192-key batch through the fleet must answer like one
    # filter fed the same keys one at a time.
    router, reference = make_router(4, method), make_reference(method)
    keys = np.random.default_rng(3).integers(0, 300, 8192).tolist()
    assert ShardBatcher(router).insert_many(keys).ok
    for key in keys:
        reference.insert(key)
    assert ShardBatcher(router).query_many(range(400)) \
        == [reference.query(key) for key in range(400)]


def test_int_list_and_int64_array_batches_agree():
    keys = [key for key in workload(300) if isinstance(key, int)]
    fleets = [ShardBatcher(make_router(4)) for _ in range(2)]
    assert fleets[0].insert_many(keys).ok
    assert fleets[1].insert_many(np.asarray(keys, dtype=np.int64)).ok
    probe = keys + list(range(50))
    answers = fleets[0].query_many(probe)
    assert answers == fleets[1].query_many(np.asarray(probe))
    assert all(type(value) is int for value in answers)


def test_any_sequence_batch_routes_once_and_str_batches_are_refused(
        monkeypatch):
    # The key rule's batch form takes any sequence but a str or bytes,
    # converted once: a range routes in one shard_of_many call (at the
    # parent it was refused as a batch type and took shard_of per key),
    # and a str batch fails the whole call on every path (at the parent
    # "abc" inserted the keys "a", "b" and "c").
    router, reference = make_router(4), make_router(4)
    batcher, listed = ShardBatcher(router), ShardBatcher(reference)
    calls = {"shard_of": 0, "shard_of_many": 0}
    for name in calls:
        def counted(*args, _real=getattr(router, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(router, name, counted)
    assert batcher.insert_many(range(400)).ok
    assert listed.insert_many(list(range(400))).ok
    assert batcher.query_many(range(450)) \
        == listed.query_many(list(range(450)))
    assert calls == {"shard_of": 0, "shard_of_many": 2}
    assert batcher.query_many(deque(range(450))) \
        == listed.query_many(list(range(450)))
    rolling = router.start_reshard(3)
    for migrating in (True, False):
        assert router.migrating is migrating
        for batch in ("abc", b"abc", 5):
            with pytest.raises(TypeError, match="key batch"):
                batcher.insert_many(batch)
            with pytest.raises(TypeError, match="key batch"):
                batcher.query_many(batch)
        if migrating:
            rolling.abort()
    assert router.total_count == reference.total_count == 400


def test_a_deadline_refusal_fails_its_slots_retryably():
    # BulkFailure.retryable: True when resubmitting the key can succeed.
    # A group refused unexecuted by the batch's deadline applied nothing,
    # so its slots are retryable (at the parent they read False).
    ticks = iter(range(1, 1000))
    router = make_router(4)
    keys = list(range(64))
    outcome = ShardBatcher(router).insert_many(
        keys, deadline=Deadline(1.0, clock=lambda: 0.4 * next(ticks)))
    assert outcome.failures
    for failure in outcome.failures:
        assert type(failure.error) is DeadlineExceeded
        assert failure.error.unexecuted and failure.retryable
    assert router.total_count == 64 - len(outcome.failures)
    retry = [failure.key for failure in outcome.retryable()]
    assert ShardBatcher(router).insert_many(retry).ok
    assert router.total_count == 64


def test_failed_group_keeps_the_callers_slots_and_keys():
    # While shard 0's write side is held, shard 0's group times out
    # whole: each of its keys fails in the caller's slot with the
    # caller's key object, retryably, and every other group lands.
    router, reference = make_router(4), make_reference()
    batcher = ShardBatcher(router)
    keys = [key for key in workload(300) if isinstance(key, int)]
    owners = router.shard_of_many(keys).tolist()
    held = router.shards[0]._lock
    held.acquire_write(1.0)
    try:
        result = batcher.insert_many(keys, timeout=0.05)
    finally:
        held.release_write()
    assert [f.index for f in result.failures] \
        == [slot for slot, owner in enumerate(owners) if owner == 0]
    assert result.failures
    for failure in result.failures:
        assert type(failure.key) is int and failure.key == keys[failure.index]
        assert isinstance(failure.error, LockTimeout) and failure.retryable
    for key, owner in zip(keys, owners):
        if owner:
            reference.insert(key)
    assert batcher.query_many(keys) == [reference.query(key) for key in keys]


def test_mutating_batch_matches_scalar_path():
    router, reference = make_router(4), make_router(4)
    batcher = ShardBatcher(router)
    keys = workload(300)
    batcher.execute([("insert", key) for key in keys])
    batcher.execute([("delete", keys[0]), ("set", keys[1], 9)])
    for key in keys:
        reference.insert(key)
    reference.delete(keys[0])
    reference.set(keys[1], 9)
    for key in probes(keys):
        assert router.query(key) == reference.query(key)


@pytest.mark.parametrize("n_shards", [1, 4])
def test_unroutable_key_fails_only_its_own_slot(n_shards):
    # A key shard_of cannot route never reaches a shard: every batcher
    # verb fails its slot alone and runs its batch-mates as if it were
    # absent.
    router, reference = make_router(n_shards), make_reference()
    batcher = ShardBatcher(router)
    bad = ["unroutable"]
    with pytest.raises(TypeError):
        router.shard_of(bad)
    results = batcher.execute([("insert", "a"), ("insert", bad),
                               ("query", "a")])
    assert results[0] is None and results[2] == 1
    assert isinstance(results[1], TypeError)
    outcome = batcher.insert_many(["b", bad, 7])
    assert [(f.index, f.key, f.retryable) for f in outcome.failures] \
        == [(1, bad, False)]
    assert isinstance(outcome.failures[0].error, TypeError)
    queried = batcher.query_many(["a", bad, "b", 7, 8])
    assert queried[:1] + queried[2:] == [1, 1, 1, 0]
    assert isinstance(queried[1], TypeError)
    for key in ("a", "b", 7):
        reference.insert(key)
    assert router.total_count == reference.total_count == 3
    for key in ("a", "b", 7, 8):
        assert router.query(key) == reference.query(key)


def test_batcher_keys_obey_the_key_rule():
    # A refused key fails its own slot on every batcher verb; numpy keys
    # route and land as their Python values.
    router, reference = make_router(4), make_reference()
    batcher = ShardBatcher(router)
    results = batcher.execute([("insert", "a"), ("insert", "b\ud800"),
                               ("insert", np.int64(9)), ("query", 9)])
    assert results[0] is None and results[2] is None and results[3] == 1
    assert type(results[1]) is ValueError
    outcome = batcher.insert_many(np.arange(5))
    assert outcome.ok
    bad = batcher.insert_many(["c", "d\udc80", b"e"])
    assert [(f.index, type(f.error)) for f in bad.failures] \
        == [(1, ValueError), (2, TypeError)]
    reference.insert_many(["a", 9, 0, 1, 2, 3, 4, "c"])
    queried = batcher.query_many(np.arange(7))
    assert queried == reference.query_many(list(range(7))).tolist()
    assert router.total_count == reference.total_count == 8


def test_failed_op_lands_in_its_slot_and_batch_continues():
    batcher = ShardBatcher(make_router(4))
    results = batcher.execute([
        ("insert", "a"),
        ("delete", "never-inserted", 5),   # would drive counters negative
        ("query", "a"),
    ])
    assert results[0] is None
    assert isinstance(results[1], ValueError)
    assert results[2] >= 1
    with pytest.raises(ValueError, match="must start with"):
        batcher.execute([("frobnicate", "a")])


def test_shard_assignment_is_deterministic():
    first, second = make_router(8), make_router(8)
    keys = workload(200)
    assignments = [first.shard_of(key) for key in keys]
    assert assignments == [second.shard_of(key) for key in keys]
    assert assignments == first.shard_of_many(keys).tolist()
    int_keys = [key for key in keys if isinstance(key, int)]
    assert first.shard_of_many(int_keys).tolist() \
        == [first.shard_of(key) for key in int_keys]
    assert all(0 <= shard < 8 for shard in assignments)
    assert len(set(assignments)) > 1      # the workload actually spreads


def test_reshard_round_trip_is_counter_exact(method="ms"):
    router, reference = make_router(8, method), make_reference(method)
    keys = workload()
    for key in keys:
        router.insert(key)
        reference.insert(key)
    before = {key: router.query(key) for key in probes(keys)}
    for new_n in (4, 2, 1):
        assert router.reshard(new_n) is router
        assert router.n_shards == new_n
        assert router.total_count == reference.total_count
        for key, estimate in before.items():
            assert router.query(key) == estimate
    # Coalesced all the way down, the single shard IS the unsharded
    # filter, counter for counter — RM/TRM secondaries included.
    merged = router.shards[0].sbf
    assert list(merged.counters) == list(reference.counters)
    if method in ("rm", "trm"):
        assert list(merged.method.secondary.counters) \
            == list(reference.method.secondary.counters)


@pytest.mark.parametrize("method", ["mi", "rm", "trm"])
def test_union_reshard_round_trip_is_counter_exact_for(method):
    # Union reshard is the only reshard path for MI, RM and TRM fleets
    # (rolling reshard is MS-only), so it must be exact for each too.
    test_reshard_round_trip_is_counter_exact(method)


def test_non_dividing_reshard_rolls_on_blocked_fleets():
    # Blocked fleets no longer need new_n to divide n: reshard() falls
    # through to a rolling block-range migration (test_reshard_rolling.py
    # exercises it in depth — this pins the dispatch).
    router, reference = make_router(8), make_reference()
    keys = workload(400)
    for key in keys:
        router.insert(key)
        reference.insert(key)
    assert router.reshard(3) is router
    assert router.n_shards == 3
    assert router.total_count == reference.total_count
    for key in probes(keys):
        assert router.query(key) == reference.query(key)
    with pytest.raises(ValueError, match=">= 1"):
        router.reshard(0)
    assert router.n_shards == 3           # refused reshard changed nothing


def test_non_dividing_reshard_still_refused_without_blocked_hashing():
    # A fleet routes by block, so an unblocked fleet — the only kind a
    # non-dividing reshard could not split — is refused at construction.
    for n_shards in (8, 1):
        with pytest.raises(ValueError, match="routes by block"):
            ShardedSBF.create(n_shards, M, K, seed=SEED, method="ms",
                              backend="array", hash_family="modmul")


@pytest.mark.parametrize("n_shards", [1, 4])
def test_every_fleet_constructor_refuses_an_unblocked_family(n_shards,
                                                             tmp_path):
    unblocked = make_family("modmul", M, K, SEED)
    modmul = [ConcurrentSBF(SpectralBloomFilter(M, K, seed=SEED,
                                                hash_family="modmul"))
              for _ in range(n_shards)]
    with pytest.raises(ValueError, match="routes by block"):
        ShardedSBF(modmul)                          # the shards' family
    remote = [RemoteShard(ShardServer(make_router(1).shards[0]),
                          FaultyNetwork(), "router", f"s{i}")
              for i in range(n_shards)]
    with pytest.raises(ValueError, match="routes by block"):
        ShardedSBF(remote)                          # no family at all
    with pytest.raises(ValueError, match="routes by block"):
        ShardedSBF(remote, family=unblocked)        # an explicit one
    root = tmp_path / "fleet"
    with pytest.raises(ValueError, match="routes by block"):
        ShardedSBF.create(n_shards, M, K, seed=SEED, hash_family="modmul",
                          durable_root=str(root))
    assert not root.exists()
    built = []
    with pytest.raises(ValueError, match="routes by block"):
        replicated_fleet(n_shards, M, K, seed=SEED, hash_family="modmul",
                         hint_dir=str(tmp_path / "hints"),
                         replica_factory=lambda s, r: built.append((s, r)))
    assert built == [] and not (tmp_path / "hints").exists()
    children = set(multiprocessing.active_children())
    with pytest.raises(ValueError, match="routes by block"):
        ProcessShardPool(n_shards, M, K, seed=SEED, hash_family="modmul")
    assert set(multiprocessing.active_children()) <= children


def test_reshard_refuses_durable_shards(tmp_path):
    router = ShardedSBF.create(2, M, K, seed=SEED,
                               durable_root=str(tmp_path))
    try:
        with pytest.raises(ValueError, match="manifest"):
            router.reshard(1)
    finally:
        for shard in router.shards:
            shard.raw.close()


def test_manifest_round_trip():
    router = make_router(4)
    keys = workload(400)
    for key in keys:
        router.insert(key)
    data = router.dump_manifest()
    clone = ShardedSBF.load_manifest(data)
    assert clone.n_shards == 4
    assert clone.total_count == router.total_count
    for key in probes(keys):
        assert clone.query(key) == router.query(key)
    assert [clone.shard_of(key) for key in keys] \
        == [router.shard_of(key) for key in keys]


def test_manifest_rejects_corruption():
    data = make_router(2).dump_manifest()
    with pytest.raises(WireFormatError):
        ShardedSBF.load_manifest(data[:-5])
    flipped = bytearray(data)
    flipped[len(flipped) // 2] ^= 0x40
    with pytest.raises(WireFormatError):
        ShardedSBF.load_manifest(bytes(flipped))


def test_shard_report_accounts_per_shard():
    router = make_router(4)
    keys = workload(400)
    for key in keys:
        router.insert(key)
    report = router.shard_report()
    assert [entry["shard"] for entry in report] == [0, 1, 2, 3]
    assert sum(entry["ops"] for entry in report) == len(keys)
    assert sum(entry["total_count"] for entry in report) == len(keys)
    distinct = len(set(keys))
    for entry in report:
        assert entry["m"] == M and entry["k"] == K
        assert 0.0 < entry["fill_ratio"] < 1.0
        assert 0.0 <= entry["expected_error"] <= 1.0
    # The occupancy estimator should land near the true distinct count.
    total_estimate = sum(e["distinct_estimate"] for e in report)
    assert total_estimate == pytest.approx(distinct, rel=0.35)


def test_shard_report_prices_each_shard_over_its_own_blocks():
    # Shard i only touches blocks b ≡ i (mod n): its load, distinct
    # estimate and E_b must be computed over those counters, not all m.
    m = 1 << 16
    router = ShardedSBF.create(4, m, K, seed=SEED, backend="numpy")
    rng = random.Random(SEED)
    keys = rng.sample(range(1 << 40), 40_000)
    present, absent = keys[:20_000], keys[20_000:]
    assert ShardBatcher(router).insert_many(present).ok
    routed = [0] * 4
    for key in present:
        routed[router.shard_of(key)] += 1
    hits, probed = [0] * 4, [0] * 4
    for key in absent:
        shard = router.shard_of(key)
        probed[shard] += 1
        hits[shard] += router.query(key) > 0
    report = router.shard_report()
    for i, entry in enumerate(report):
        assert entry["m"] == m                      # the filter's own m
        assert entry["distinct_estimate"] \
            == pytest.approx(routed[i], rel=0.05)
        assert entry["expected_error"] \
            == pytest.approx(hits[i] / probed[i], abs=0.03)
    fleet_rate = sum(hits) / sum(probed)
    assert fleet_rate == pytest.approx(bloom_error(20_000, K, m), abs=0.01)


def test_incompatible_shards_are_rejected():
    a = ConcurrentSBF(SpectralBloomFilter(256, 4, seed=1))
    b = ConcurrentSBF(SpectralBloomFilter(256, 4, seed=2))
    with pytest.raises(ValueError, match="share parameters"):
        ShardedSBF([a, b])
    with pytest.raises(ValueError, match="at least one shard"):
        ShardedSBF([])
    with pytest.raises(ValueError, match=">= 1"):
        ShardedSBF.create(0, M, K)


def test_router_metrics_flow_through_registry():
    registry = MetricsRegistry()
    router = ShardedSBF.create(2, M, K, seed=SEED, metrics=registry)
    for key in range(20):
        router.insert(key)
    for key in range(10):
        router.query(key)
    snapshot = registry.snapshot()
    assert snapshot["counters"]["router.inserts"] == 20
    assert snapshot["counters"]["router.queries"] == 10
    assert snapshot["gauges"]["router.shards"] == 2


def test_histogram_observe_many_equals_one_by_one():
    # Values on the bounds, between them and past the last one, in an
    # order whose float sum depends on the order of addition.
    values = [0.0001, 0.0005, 7.0, 1e-9, 0.3, 5.0, 0.1, 1e16, 1.0, -1e16,
              0.049999, 0.05, 12.5, 0.1, 0.2]
    one, many = MetricsRegistry(), MetricsRegistry()
    single = one.histogram("h")
    single.observe(0.7)
    for value in values:
        single.observe(value)
    batched = many.histogram("h")
    batched.observe(0.7)
    batched.observe_many(values)
    batched.observe_many([])
    assert batched.buckets == single.buckets
    assert batched.buckets[-1] == 3          # 7.0, 1e16 and 12.5 overflow
    assert batched.count == single.count == len(values) + 1
    assert batched.sum.hex() == single.sum.hex()
