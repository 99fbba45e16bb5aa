"""ReplicaSet / hinted handoff / anti-entropy: the HA layer.

The invariant under test everywhere: **no wrong answers, ever**.  A
replica set may refuse an operation (typed :class:`Unavailable`) while
too few replicas are healthy, but every answer it does give is the one
the unsharded oracle filter would give — and after handoff/repair the
replicas are bit-identical, counter for counter.

Chaos tests are seeded (fault policies and channels share fixed seeds),
so every ejection, hint, probe, and repair replays identically.
"""

import numpy as np
import pytest

from repro.core.sbf import SpectralBloomFilter
from repro.db.faults import FaultPolicy, FaultyNetwork
from repro.db.transport import ChannelStats, DeliveryFailed
from repro.handle import FilterHandle
from repro.persist import ConcurrentSBF, LockTimeout
from repro.scenario.clock import SimClock
from repro.serve import (
    ALL,
    QUORUM,
    BulkFailure,
    Deadline,
    DeadlineExceeded,
    HintLog,
    MetricsRegistry,
    RemoteShard,
    ReplicaSet,
    ServingEngine,
    ShardBatcher,
    ShardServer,
    Unavailable,
    block_checksums,
    deadline_scope,
    replicated_fleet,
    required_replicas,
)
from repro.serve.resilience import current_deadline

M, K, SEED = 2048, 4, 11


def make_filter() -> SpectralBloomFilter:
    return SpectralBloomFilter(M, K, seed=SEED, method="ms",
                               backend="array", hash_family="blocked")


def make_handle() -> ConcurrentSBF:
    return ConcurrentSBF(make_filter())


def workload(n: int = 300) -> list:
    return [f"key:{i % 83}" for i in range(n)] + list(range(n // 3))


class FlakyReplica:
    """Local handle with a partition switch (raises DeliveryFailed while
    ``down`` — the same transient the transport reports)."""

    _GUARDED = frozenset({"insert", "delete", "set", "query", "contains",
                          "query_many", "insert_many", "delete_many",
                          "checkpoint"})

    def __init__(self, handle):
        self._handle = handle
        self.down = False

    def _guard(self) -> None:
        if self.down:
            raise DeliveryFailed("replica is partitioned", ChannelStats())

    def __getattr__(self, name):
        attr = getattr(self._handle, name)
        if name in FlakyReplica._GUARDED:
            def guarded(*args, **kwargs):
                self._guard()
                return attr(*args, **kwargs)
            return guarded
        return attr

    @property
    def total_count(self) -> int:
        self._guard()
        return self._handle.total_count


def make_set(rf: int = 3, *, metrics: MetricsRegistry | None = None,
             **options) -> tuple[ReplicaSet, list[FlakyReplica]]:
    replicas = [FlakyReplica(make_handle()) for _ in range(rf)]
    options.setdefault("eject_after", 2)
    options.setdefault("probe_every", 10_000)   # tests tick explicitly
    return ReplicaSet(replicas, metrics=metrics, **options), replicas


def assert_replicas_identical(rset: ReplicaSet) -> None:
    filters = [r.sbf for r in rset.replicas]
    for other in filters[1:]:
        assert list(other.counters) == list(filters[0].counters)
        assert other.total_count == filters[0].total_count


def test_required_replicas_levels():
    assert required_replicas("one", 3) == 1
    assert required_replicas("quorum", 3) == 2
    assert required_replicas("quorum", 5) == 3
    assert required_replicas("all", 3) == 3
    with pytest.raises(ValueError, match="consistency"):
        required_replicas("most", 3)


def test_writes_during_outage_are_hinted_and_handed_off():
    registry = MetricsRegistry(clock=lambda: 42.0)
    rset, flaky = make_set(3, metrics=registry)
    oracle = make_filter()
    for key in workload(60):
        rset.insert(key)
        oracle.insert(key)
    flaky[2].down = True
    hinted_keys = [f"late:{i}" for i in range(25)]
    for key in hinted_keys:
        rset.insert(key, 2)           # acked by r0/r1, hinted for r2
        oracle.insert(key, 2)
    health = {h["replica"]: h for h in rset.health()}
    assert health["r2"]["up"] is False             # ejected after failures
    assert health["r2"]["hint_depth"] > 0
    # Reads keep serving the oracle's answers from the healthy quorum.
    for key in hinted_keys:
        assert rset.query(key) == oracle.query(key)
    # Heal, probe: handoff drains in order, the convergence proof passes,
    # and the replica set is bit-identical again.
    flaky[2].down = False
    assert rset.tick() == 1
    assert all(h["up"] and h["hint_depth"] == 0 for h in rset.health())
    assert_replicas_identical(rset)
    for key in hinted_keys:
        assert rset.query(key) == oracle.query(key)
    gauges = registry.snapshot()["gauges"]
    assert gauges["ha.rs.r2.up"] == 1.0
    assert gauges["ha.rs.r2.hint_depth"] == 0
    counters = registry.snapshot()["counters"]
    assert counters["ha.rs.ejections"] == 1
    assert counters["ha.rs.readmissions"] == 1
    assert counters["ha.rs.handoffs"] == len(hinted_keys)
    assert counters["ha.rs.hinted"] >= len(hinted_keys)


def test_unacknowledged_writes_are_never_hinted():
    rset, flaky = make_set(3, write_consistency=ALL)
    rset.insert("seed")
    flaky[0].down = True
    with pytest.raises(Unavailable) as excinfo:
        rset.insert("lost")
    assert excinfo.value.needed == 3
    assert excinfo.value.got == 2
    # The failed write was the client's to retry: nothing queued for r0,
    # and the replicas that did apply it are *ahead*, not wrong — but
    # since the op was refused, the set must not remember it as acked.
    assert all(h["hint_depth"] == 0 for h in rset.health())


def test_semantic_errors_raise_and_are_not_hinted():
    rset, flaky = make_set(3)
    flaky[1].down = True
    with pytest.raises(ValueError, match="negative"):
        rset.delete("never-inserted", 5)
    health = {h["replica"]: h for h in rset.health()}
    assert health["r1"]["hint_depth"] == 0


def test_reads_fall_short_of_quorum_raise_unavailable():
    rset, flaky = make_set(3, read_consistency=QUORUM)
    rset.insert("x")
    flaky[1].down = True
    flaky[2].down = True
    for _ in range(4):                     # burn through to ejection
        try:
            rset.query("x")
        except Unavailable:
            pass
    with pytest.raises(Unavailable) as excinfo:
        rset.query("x")
    assert excinfo.value.needed == 2
    assert excinfo.value.got == 1
    # ONE healthy replica still serves reads at consistency ONE.
    assert ReplicaSet([rset.replicas[0]._handle], name="solo").query("x") == 1


def test_query_many_needs_a_quorum_per_slot():
    rset, flaky = make_set(3, read_consistency=QUORUM)
    for key in workload(50):
        rset.insert(key)
    assert rset.query_many(["key:1", "key:2"]).tolist() == [
        rset.query("key:1"), rset.query("key:2")]
    flaky[1].down = True
    flaky[2].down = True
    for _ in range(3):      # eject the partitioned pair
        try:
            rset.query("key:1")
        except Unavailable:
            pass
    with pytest.raises(Unavailable):
        rset.query_many(["key:1", "key:2"])


class SlotFailingReplica(FlakyReplica):
    """Local handle whose bulk reads lose the keys in ``failing`` — a
    per-slot failure, the way a remote chunk that gave up reports it."""

    failing = frozenset()

    def query_many(self, keys, **kwargs):
        result = self._handle.query_many(keys)
        result.failures = [
            BulkFailure(i, key, DeliveryFailed("slot lost", ChannelStats()),
                        True)
            for i, key in enumerate(keys) if key in self.failing]
        return result


def test_query_many_fails_only_the_slots_short_of_a_quorum():
    replicas = [SlotFailingReplica(make_handle()) for _ in range(3)]
    rset = ReplicaSet(replicas, read_consistency=QUORUM,
                      probe_every=10_000)
    rset.insert("a", 2)
    rset.insert("b", 3)
    replicas[0].failing = replicas[1].failing = frozenset({"b"})
    result = rset.query_many(["a", "b"])
    assert result.values.tolist() == [2, 0]
    assert [f.index for f in result.failures] == [1]
    assert isinstance(result.failures[0].error, Unavailable)


def test_bulk_writes_hint_only_acknowledged_slots():
    rset, flaky = make_set(3)
    flaky[2].down = True
    keys = [f"bulk:{i}" for i in range(30)]
    result = rset.insert_many(keys, [2] * len(keys))
    assert result.ok                         # write consistency ONE met
    health = {h["replica"]: h for h in rset.health()}
    assert health["r2"]["hint_depth"] == len(keys)
    flaky[2].down = False
    rset.tick()
    assert_replicas_identical(rset)
    oracle = make_filter()
    for key in keys:
        oracle.insert(key, 2)
    for key in keys:
        assert rset.query(key) == oracle.query(key)


def test_durable_hints_survive_a_coordinator_restart(tmp_path):
    handles = [make_handle() for _ in range(3)]
    flaky = [FlakyReplica(h) for h in handles]
    rset = ReplicaSet(flaky, hint_dir=str(tmp_path), probe_every=10_000)
    for key in workload(40):
        rset.insert(key)
    flaky[1].down = True
    for i in range(15):
        rset.insert(f"hinted:{i}", 3)
    assert {h["replica"]: h for h in rset.health()}["r1"]["hint_depth"] > 0
    rset.close()                              # coordinator goes away
    # A new coordinator over the same replicas recovers the hint queue
    # from its WAL and hands it off once the replica is reachable.
    flaky[1].down = False
    rset2 = ReplicaSet(flaky, hint_dir=str(tmp_path), probe_every=10_000)
    assert {h["replica"]: h
            for h in rset2.health()}["r1"]["hint_depth"] == 15
    rset2.tick()
    assert all(h["hint_depth"] == 0 for h in rset2.health())
    assert_replicas_identical(rset2)
    rset2.close()


def test_readmission_requires_proof_of_convergence_then_repair():
    registry = MetricsRegistry(clock=lambda: 7.5)
    rset, flaky = make_set(3, metrics=registry)
    for key in workload(50):
        rset.insert(key)
    flaky[0].down = True
    for _ in range(2):
        try:
            rset.insert("eject-trigger")
        except Exception:
            pass
    assert not {h["replica"]: h for h in rset.health()}["r0"]["up"]
    # The replica's disk diverged while it was gone (lost writes / rogue
    # restore): drain its hints, then corrupt it so the total proof fails.
    flaky[0]._handle.insert("rogue-key", 5)
    flaky[0].down = False
    assert rset.tick() == 0                   # handoff ran, proof failed
    health = {h["replica"]: h for h in rset.health()}
    assert health["r0"]["up"] is False
    assert health["r0"]["needs_repair"] is True
    # Anti-entropy converges it counter-for-counter and re-admits it.
    report = rset.repair()
    assert report.converged
    assert 0 in report.copied or report.counters_copied > 0
    assert all(h["up"] and not h["needs_repair"] for h in rset.health())
    assert_replicas_identical(rset)
    gauges = registry.snapshot()["gauges"]
    assert gauges["ha.rs.r0.last_repair"] == 7.5
    assert registry.snapshot()["counters"]["ha.rs.repairs"] == 1


def test_probe_every_triggers_automatic_reprobe():
    rset, flaky = make_set(3, probe_every=5)
    flaky[2].down = True
    for i in range(3):
        rset.insert(f"a:{i}")
    flaky[2].down = False
    for i in range(10):                        # crosses the probe cadence
        rset.insert(f"b:{i}")
    assert all(h["up"] and h["hint_depth"] == 0 for h in rset.health())
    assert_replicas_identical(rset)


# -- replica sets behind the wire ----------------------------------------

def remote_set(rf: int = 3, *, metrics: MetricsRegistry | None = None,
               **options):
    """A ReplicaSet whose replicas live behind a FaultyNetwork."""
    network = FaultyNetwork()
    handles, remotes = [], []
    for r in range(rf):
        handle = make_handle()
        handles.append(handle)
        remotes.append(RemoteShard(
            ShardServer(handle), network, "coord", f"r{r}",
            channel_options={"max_retries": 2}, metrics=metrics))
    options.setdefault("eject_after", 2)
    options.setdefault("probe_every", 10_000)
    rset = ReplicaSet(remotes, metrics=metrics, **options)
    return rset, network, handles


def fresh(rset: ReplicaSet) -> bool:
    """Every replica up, no hints queued, nothing awaiting repair."""
    return all(h["up"] and not h["hint_depth"] and not h["needs_repair"]
               for h in rset.health())


def test_refused_keys_never_reach_a_replica():
    # At the parent the servers' hashing refused these, the refusals came
    # back as transient RemoteShardErrors and ejected every replica.
    rset, _, handles = remote_set(3, eject_after=1)
    for i in range(3):
        with pytest.raises(ValueError, match="UTF-8"):
            rset.insert(f"bad{i}\ud800")
    assert fresh(rset)
    rset.insert("good")
    assert rset.query("good") == 1
    assert [h.total_count for h in handles] == [1, 1, 1]


def test_mixed_replicas_refuse_a_malformed_key_before_the_fan_out():
    # The local replica hashes bytes and tuples; the remote one cannot
    # ship them.  Judged once, before any replica, neither applies them.
    local = make_handle()
    remote = RemoteShard(ShardServer(make_handle()), FaultyNetwork(),
                         "coord", "r1")
    rset = ReplicaSet([local, remote])
    for verb, args in (("insert", (b"x", 3)), ("insert", ((1, 2), 3)),
                       ("insert_many", ([b"y", 5], [2, 1]))):
        with pytest.raises(TypeError, match="JSON scalars"):
            getattr(rset, verb)(*args)
    assert local.total_count == remote.total_count == 0 and fresh(rset)


def test_numpy_keys_land_on_every_replica_as_their_values():
    rset, _, handles = remote_set(3)
    reference = FilterHandle(make_filter())
    assert rset.insert_many(np.arange(5)).ok
    rset.insert(np.int64(5))
    reference.insert_many(list(range(6)))
    assert rset.query_many(np.arange(7)).tolist() \
        == reference.query_many(list(range(7))).tolist()
    assert [h.total_count for h in handles] == [6, 6, 6] and fresh(rset)


class RefusingHandle(FilterHandle):
    """A server-side handle whose writes and reads raise *error*."""

    def __init__(self, error: Exception):
        super().__init__(make_filter())
        self.error = error

    def insert(self, key, count=1):
        raise self.error

    def insert_many(self, keys, counts=None, *, timeout=None):
        raise self.error

    def query(self, key):
        raise self.error

    def query_many(self, keys, *, timeout=None):
        raise self.error


@pytest.mark.parametrize("error", [TypeError, ValueError, OverflowError])
def test_rule_refusals_from_remote_replicas_eject_and_hint_nothing(error):
    metrics = MetricsRegistry()
    network = FaultyNetwork()
    rset = ReplicaSet(
        [RemoteShard(ShardServer(RefusingHandle(error("refused"))), network,
                     "coord", f"r{i}") for i in range(3)],
        eject_after=1, metrics=metrics)
    for _ in range(3):
        with pytest.raises(error):
            rset.insert("k")
        outcome = rset.insert_many(["a", "b"])
        assert [(type(f.error), f.retryable) for f in outcome.failures] \
            == [(error, False)] * 2
    assert fresh(rset)
    counters = metrics.snapshot()["counters"]
    assert counters.get("ha.rs.ejections", 0) == 0
    assert counters.get("ha.rs.hinted", 0) == 0


def test_a_total_past_int64_is_refused_without_ejecting():
    # numpy-backed replicas: the second insert would take the total to
    # 2**63; every server refuses it and the set stays whole.
    def wide():
        return ConcurrentSBF(SpectralBloomFilter(
            M, K, seed=SEED, backend="numpy", hash_family="blocked"))
    network = FaultyNetwork()
    rset = ReplicaSet([RemoteShard(ShardServer(wide()), network, "coord",
                                   f"r{i}") for i in range(3)],
                      eject_after=1)
    rset.insert("x", 2 ** 62)
    for _ in range(3):
        with pytest.raises(OverflowError, match="total_count"):
            rset.insert("x", 2 ** 62)
    assert fresh(rset)
    assert rset.query("x") == rset.total_count == 2 ** 62


def partition(network: FaultyNetwork, name: str, seed: int) -> None:
    network.set_policy("coord", name, FaultPolicy(drop=1.0, seed=seed))
    network.set_policy(name, "coord", FaultPolicy(drop=1.0, seed=seed + 1))


def heal(network: FaultyNetwork, name: str) -> None:
    network.set_policy("coord", name, None)
    network.set_policy(name, "coord", None)


@pytest.mark.chaos
def test_remote_replica_outage_serves_the_oracle_throughout():
    rset, network, handles = remote_set(3, read_consistency=QUORUM)
    oracle = make_filter()
    keys = workload(80)
    for key in keys:
        rset.insert(key)
        oracle.insert(key)
    partition(network, "r1", seed=31)
    wrong = 0
    for i, key in enumerate(keys):
        rset.insert(f"outage:{i}")
        oracle.insert(f"outage:{i}")
        if rset.query(key) != oracle.query(key):
            wrong += 1
    assert wrong == 0                          # zero wrong answers
    heal(network, "r1")
    assert rset.tick() == 1
    for key in keys:
        assert rset.query(key) == oracle.query(key)
    filters = [h.sbf for h in handles]
    for other in filters[1:]:
        assert list(other.counters) == list(filters[0].counters)


@pytest.mark.chaos
def test_kill_and_restart_each_replica_in_turn():
    """The acceptance drill: RF=3, quorum reads, each replica killed and
    restarted in turn under live traffic — zero answers differ from the
    oracle, and hinted writes converge the set bit-identically."""
    rset, network, handles = remote_set(3, read_consistency=QUORUM)
    oracle = make_filter()
    keys = workload(60)
    for key in keys:
        rset.insert(key)
        oracle.insert(key)
    step = 0
    for victim in ("r0", "r1", "r2"):
        partition(network, victim, seed=100 + step)
        for i in range(40):
            key = f"phase:{victim}:{i}"
            rset.insert(key, 1 + i % 3)
            oracle.insert(key, 1 + i % 3)
            probe = keys[(step + i) % len(keys)]
            assert rset.query(probe) == oracle.query(probe)
        heal(network, victim)
        assert rset.tick() == 1                # handoff + re-admission
        step += 1
    assert all(h["up"] and h["hint_depth"] == 0 for h in rset.health())
    filters = [h.sbf for h in handles]
    for other in filters[1:]:
        assert list(other.counters) == list(filters[0].counters)
    for key in keys:
        assert rset.query(key) == oracle.query(key)
    assert rset.total_count == oracle.total_count


@pytest.mark.chaos
def test_replicated_fleet_with_engine_maintenance_readmits():
    registry = MetricsRegistry()
    networks: dict[int, FaultyNetwork] = {}
    handles: dict[tuple[int, int], ConcurrentSBF] = {}

    def factory(s: int, r: int):
        network = networks.setdefault(s, FaultyNetwork())
        handle = make_handle()
        handles[(s, r)] = handle
        return RemoteShard(ShardServer(handle), network, "coord",
                           f"r{r}", channel_options={"max_retries": 2},
                           metrics=registry)

    fleet = replicated_fleet(2, M, K, rf=3, seed=SEED,
                             replica_factory=factory,
                             eject_after=2, probe_every=10_000,
                             metrics=registry)
    oracle = make_filter()
    engine = ServingEngine(fleet, max_queue=512, maintenance_every=1)
    keys = workload(60)
    for key in keys:
        engine.submit("insert", key)
    engine.drain()
    for key in keys:
        oracle.insert(key)
    # Kill shard 0's replica r1, keep serving, then heal: the engine's
    # idle maintenance pump re-admits it without any request touching it.
    partition(networks[0], "r1", seed=77)
    for i in range(20):
        engine.submit("insert", f"mid:{i}")
        oracle.insert(f"mid:{i}")
    engine.drain()
    heal(networks[0], "r1")
    engine.pump()                              # idle pump -> maintain()
    shard0 = fleet.shards[0]
    assert all(h["up"] and h["hint_depth"] == 0 for h in shard0.health())
    results = ShardBatcher(fleet).query_many(keys)
    assert results == [oracle.query(key) for key in keys]
    report = engine.close()
    assert report["drained"] == 0


def test_remote_only_fleet_still_routes_blocked():
    # A fleet whose every replica lives behind the wire has no local
    # filter to introspect, so replicated_fleet hands the router its
    # blocked family explicitly — keeping answers bit-identical to the
    # unsharded oracle even under heavy counter collisions (canonical-key
    # fallback routing would split collision neighborhoods across shards
    # and diverge here).
    import random
    network = FaultyNetwork()

    def factory(s: int, r: int):
        return RemoteShard(ShardServer(make_handle()), network, "coord",
                           f"s{s}r{r}")

    fleet = replicated_fleet(2, M, K, rf=2, seed=SEED,
                             replica_factory=factory)
    oracle = make_filter()
    rng = random.Random(13)
    keys = [f"c:{rng.randrange(1 << 16)}" for _ in range(600)]
    for key in keys:
        count = 1 + rng.randrange(3)
        fleet.insert(key, count)
        oracle.insert(key, count)
    family = oracle.family
    for key in keys + ["miss:a", "miss:b"]:
        assert fleet.shard_of(key) == family.block_of(key) % 2
        assert fleet.query(key) == oracle.query(key)


# -- one replica rule: point and bulk writes judge a replica alike ----------

class SickReplica(ConcurrentSBF):
    """A local replica whose writes and reads run *fault* (which raises)
    instead."""

    def __init__(self, fault):
        super().__init__(make_filter())
        self.fault = fault

    def insert(self, key, count=1):
        self.fault()

    def insert_many(self, keys, counts=None, *, timeout=None):
        self.fault()

    def query(self, key):
        return self.fault()

    def query_many(self, keys, *, timeout=None):
        return self.fault()


def raising(error: Exception):
    def fault():
        raise error
    return fault


def per_replica(rset: ReplicaSet, field: str) -> list:
    return [h[field] for h in rset.health()]


def test_a_remote_server_error_is_hinted_on_bulk_writes_as_on_point():
    # At the parent the bulk path keyed on the client's retryable=False
    # for a RemoteShardError: the slot failed permanently and nothing
    # was hinted or counted, although both local replicas applied the
    # key and reads saw it.
    for bulk in (False, True):
        sick = RemoteShard(ShardServer(RefusingHandle(OSError("disk"))),
                           FaultyNetwork(), "coord", "r2")
        rset = ReplicaSet([make_handle(), make_handle(), sick],
                          probe_every=10_000)
        if bulk:
            assert rset.insert_many(["a"]).ok
        else:
            rset.insert("a")
        assert per_replica(rset, "hint_depth") == [0, 0, 1]
        assert per_replica(rset, "consecutive_failures") == [0, 0, 1]
        assert rset.query_many(["a"]).tolist() == [1]


def test_a_local_replica_error_is_hinted_not_raised():
    # At the parent a local replica's OSError escaped raw after replica 0
    # had applied the write: replica 2 was never tried and nothing was
    # hinted, so a client retry applied the write twice on replica 0.
    for bulk in (False, True):
        replicas = [make_handle(), SickReplica(raising(OSError("disk"))),
                    make_handle()]
        rset = ReplicaSet(replicas, probe_every=10_000)
        if bulk:
            assert rset.insert_many(["a"]).ok
        else:
            rset.insert("a")
        assert [r.sbf.total_count for r in replicas] == [1, 0, 1]
        assert per_replica(rset, "hint_depth") == [0, 1, 0]
        assert per_replica(rset, "consecutive_failures") == [0, 1, 0]


def test_bulk_traffic_ejects_a_dead_remote_replica():
    # At the parent a bulk call folded its chunks' DeliveryFailed into
    # its result and the set recorded a success: six insert_many calls
    # left the dead replica up with no failures counted and kept sending
    # to it (12 frames dropped, where six point inserts drop 6).
    outcomes = []
    for bulk in (False, True):
        network = FaultyNetwork()
        network.set_policy("coord", "r2", FaultPolicy(drop=1.0, seed=3))
        dead = RemoteShard(ShardServer(make_handle()), network, "coord",
                           "r2", channel_options={"max_retries": 1})
        rset = ReplicaSet([make_handle(), make_handle(), dead],
                          eject_after=3, probe_every=10_000)
        for i in range(6):
            if bulk:
                assert rset.insert_many([f"k{i}"]).ok
            else:
                rset.insert(f"k{i}")
        health = rset.health()[2]
        outcomes.append((health["up"], health["consecutive_failures"],
                         health["hint_depth"], network.faults["drops"]))
    assert outcomes == [(False, 3, 6, 6)] * 2


def sick_set(kind: str, failure: str, clock: SimClock, *,
             first: bool = False, **options) -> ReplicaSet:
    """Two healthy local replicas and one sick replica of *kind* (last,
    or *first*) failing its writes and reads by *failure*.  Ejection and
    the breaker both trip on one failure, so every replica's health shows
    what an attempt did.
    """
    if kind == "local":
        def slow():
            clock.advance(2.0)
            current_deadline().check("attempt")
        sick = SickReplica({
            "refusal": raising(ValueError("refused")),
            "server or disk error": raising(OSError("disk")),
            "lost": raising(LockTimeout("lock held")),
            "slow": slow}[failure])
    else:
        network = FaultyNetwork(advance=clock.advance)
        server = ShardServer(make_handle())
        if failure == "refusal":
            server = ShardServer(RefusingHandle(ValueError("refused")))
        elif failure == "server or disk error":
            server = ShardServer(RefusingHandle(OSError("disk")))
        elif failure == "lost":
            partition(network, "r2", seed=5)
        else:
            network.set_policy("coord", "r2", FaultPolicy(
                slow=1.0, slow_seconds=2.0, seed=5))
        sick = RemoteShard(server, network, "coord", "r2",
                           channel_options={"max_retries": 1})
    healthy = [make_handle(), make_handle()]
    return ReplicaSet([sick, *healthy] if first else [*healthy, sick],
                      eject_after=1, probe_every=10_000,
                      metrics=MetricsRegistry(clock=clock),
                      breaker={"window": 1, "min_samples": 1,
                               "error_threshold": 1.0}, **options)


HEALTHY = (True, 0, 0, "closed")

#: (outcome, the sick replica's (up, failures, hint depth, breaker))
AGREED = {
    "refusal": (ValueError, HEALTHY),
    "server or disk error": ("ack", (False, 1, 1, "open")),
    "lost": ("ack", (False, 1, 1, "open")),
    "slow": ("ack", (True, 0, 1, "open")),
}


@pytest.mark.parametrize("failure", list(AGREED))
@pytest.mark.parametrize("kind", ["local", "remote"])
def test_point_and_bulk_writes_agree_on_a_sick_replica(kind, failure):
    # "lost" is every frame dropped for a remote replica and a lock
    # timeout for a local one; "slow" runs past the request's deadline.
    outcomes = []
    for bulk in (False, True):
        clock = SimClock()
        rset = sick_set(kind, failure, clock)
        try:
            with deadline_scope(Deadline(1.0, clock=clock)):
                if bulk:
                    rset.insert_many(["k"]).raise_first()
                else:
                    rset.insert("k")
        except Exception as exc:
            outcome = type(exc)
        else:
            outcome = "ack"
        health = [(h["up"], h["consecutive_failures"], h["hint_depth"],
                   h["breaker"]) for h in rset.health()]
        outcomes.append((outcome, health))
    outcome, sick = AGREED[failure]
    assert outcomes == [(outcome, [HEALTHY, HEALTHY, sick])] * 2


def test_a_stale_replicas_refusal_is_its_own_miss():
    # r2 is up but still owed the insert it missed, so it refuses the
    # delete (an underflow) that r0 and r1 apply.  That refusal is r2's
    # miss: the delete acks, r2 is hinted it behind the insert, and the
    # handoff converges it.  Taken for the op's refusal, the client would
    # be told of a failure that two replicas applied, and r2 would never
    # learn the delete (x = 1 against 0, held out for repair).
    for bulk in (False, True):
        rset, flaky = make_set(3, eject_after=3)
        flaky[2].down = True
        rset.insert("x")                     # r2 hinted, not ejected
        flaky[2].down = False
        if bulk:
            assert rset.delete_many(["x"]).ok
        else:
            rset.delete("x")
        # r2 answered (a refusal resets its failure count) and is owed both.
        assert per_replica(rset, "hint_depth") == [0, 0, 2]
        assert per_replica(rset, "consecutive_failures") == [0, 0, 0]
        rset.tick()
        assert fresh(rset)
        assert_replicas_identical(rset)
        assert rset.query("x") == rset.total_count == 0


def test_engine_close_over_a_partitioned_replica_closes_every_hint_log(
        tmp_path):
    # Each set's r2 is partitioned but not yet ejected, so its checkpoint
    # fails.  The set's checkpoint still returns, with None in r2's slot,
    # and the engine closes every set (so every hint log).
    networks: dict[int, FaultyNetwork] = {}

    def factory(s: int, r: int):
        if r < 2:
            return make_handle()
        network = networks.setdefault(s, FaultyNetwork())
        return RemoteShard(ShardServer(make_handle()), network, "coord",
                           "r2", channel_options={"max_retries": 1})

    fleet = replicated_fleet(2, M, K, rf=3, seed=SEED,
                             replica_factory=factory, hint_dir=str(tmp_path),
                             probe_every=10_000)
    for s, network in networks.items():
        partition(network, "r2", seed=3 + s)
    cuts = fleet.shards[0].checkpoint()
    assert [cut is None for cut in cuts] == [False, False, True]
    assert per_replica(fleet.shards[0], "up") == [True] * 3
    engine = ServingEngine(fleet)
    assert engine.close() == {"drained": 0, "checkpointed": 2}
    assert all(replica.hints._wal._file.closed
               for rset in fleet.shards for replica in rset._replicas)


# -- one read rule: point and bulk reads judge a replica alike --------------

#: (placement, failure) -> (outcome, the sick replica's health, retry
#: tokens spent).  "first" puts the sick replica first under quorum reads,
#: so a read that outlives it spends a retry on the spare; "all" puts it
#: last under ALL, where no attempt is a retry.
READ_AGREED = {
    ("first", "refusal"): (ValueError, HEALTHY, 0),
    ("first", "server or disk error"): (1, (False, 1, 0, "open"), 1),
    ("first", "lost"): (1, (False, 1, 0, "open"), 1),
    ("first", "slow"): (DeadlineExceeded, (True, 0, 0, "open"), 0),
    ("all", "refusal"): (ValueError, HEALTHY, 0),
    ("all", "server or disk error"): (Unavailable, (False, 1, 0, "open"), 0),
    ("all", "lost"): (Unavailable, (False, 1, 0, "open"), 0),
    ("all", "slow"): (DeadlineExceeded, (True, 0, 0, "open"), 0),
}


@pytest.mark.parametrize("placement,failure", list(READ_AGREED))
@pytest.mark.parametrize("kind", ["local", "remote"])
def test_point_and_bulk_reads_agree_on_a_sick_replica(kind, placement,
                                                       failure):
    # A query and a one-key query_many must end alike: the same answer or
    # error type, per-replica health, ha.* counters and retry-budget
    # accounting.  A remote replica folds its refusal or deadline into a
    # bulk result's slot where its point call raises, and the slot must
    # still be judged as that refusal or deadline.
    first = placement == "first"
    outcomes = []
    for bulk in (False, True):
        clock = SimClock()
        rset = sick_set(kind, failure, clock, first=first,
                        read_consistency=QUORUM if first else ALL)
        for handle in rset.replicas[1:] if first else rset.replicas[:2]:
            handle.insert("k")                   # the healthy pair
        try:
            with deadline_scope(Deadline(1.0, clock=clock)):
                if bulk:
                    outcome = rset.query_many(["k"]).raise_first().tolist()[0]
                else:
                    outcome = rset.query("k")
        except Exception as exc:
            outcome = type(exc)
        health = [(h["up"], h["consecutive_failures"], h["hint_depth"],
                   h["breaker"]) for h in rset.health()]
        counters = {name: value for name, value
                    in rset.metrics.snapshot()["counters"].items()
                    if name.startswith("ha.")}
        budget = rset.retry_budget
        outcomes.append((outcome, health, counters,
                         (budget.spent, budget.denied, budget.earned)))
    assert outcomes[0] == outcomes[1]
    outcome, sick, spent = READ_AGREED[placement, failure]
    health = [sick, HEALTHY, HEALTHY] if first else [HEALTHY, HEALTHY, sick]
    assert outcomes[0][:2] == (outcome, health)
    assert outcomes[0][3][0] == spent


@pytest.mark.parametrize("kind", ["local", "remote"])
def test_refusing_replicas_refuse_point_and_bulk_reads_alike(kind):
    # A remote replica folds the refusal into the bulk result's slot; the
    # slot is refused, not merely unanswered (a retryable Unavailable).
    if kind == "local":
        replicas = [SickReplica(raising(ValueError("refused")))
                    for _ in range(3)]
    else:
        network = FaultyNetwork()
        replicas = [RemoteShard(ShardServer(RefusingHandle(
            ValueError("refused"))), network, "coord", f"r{i}")
            for i in range(3)]
    rset = ReplicaSet(replicas)
    with pytest.raises(ValueError, match="refused"):
        rset.query("a")
    with pytest.raises(ValueError, match="refused"):
        rset.query_many(["a"])
    assert fresh(rset)


def test_an_expired_point_read_is_refused_unexecuted():
    # Like an expired write or bulk read: refused before any replica is
    # sent anything, so retry-safe, and no op counts toward the probes.
    clock = SimClock()
    metrics = MetricsRegistry(clock=clock)
    rset, _ = make_set(3, metrics=metrics)
    rset.insert("a")
    ops = rset._ops
    deadline = Deadline(0.01, clock=clock)
    clock.advance(0.02)
    for read in (lambda: rset.query("a"), lambda: rset.total_count,
                 lambda: rset.query_many(["a"])):
        with deadline_scope(deadline):
            with pytest.raises(DeadlineExceeded) as refused:
                read()
        assert refused.value.unexecuted
    assert rset._ops == ops
    assert metrics.snapshot()["counters"]["ha.rs.deadline_refusals"] == 3


def test_bulk_reads_count_each_short_slot_as_bulk_writes_do():
    metrics = MetricsRegistry()
    rset, flaky = make_set(3, metrics=metrics, read_consistency=ALL,
                           write_consistency=ALL, eject_after=100)
    keys = [f"k{i}" for i in range(5)]
    assert rset.insert_many(keys).ok
    flaky[2].down = True
    unavailable = metrics.counter("ha.rs.unavailable")
    assert [type(f.error) for f in rset.insert_many(keys).failures] \
        == [Unavailable] * 5
    assert unavailable.value == 5
    with pytest.raises(Unavailable):
        rset.query_many(keys)
    assert unavailable.value == 10


def test_bulk_reads_count_each_slot_the_deadline_cut_short():
    clock = SimClock()
    metrics = MetricsRegistry(clock=clock)

    def slow():
        clock.advance(2.0)
        current_deadline().check("read")
    rset = ReplicaSet([SickReplica(slow), make_handle(), make_handle()],
                      metrics=metrics, probe_every=10_000)
    with deadline_scope(Deadline(1.0, clock=clock)):
        with pytest.raises(DeadlineExceeded) as refused:
            rset.query_many([f"k{i}" for i in range(5)])
    assert not refused.value.unexecuted        # the sick replica ran it
    assert metrics.counter("ha.rs.deadline_refusals").value == 5


@pytest.mark.chaos
def test_bulk_traffic_through_a_replica_outage_serves_the_oracle():
    network = FaultyNetwork()
    handles: dict[tuple[int, int], ConcurrentSBF] = {}

    def factory(s: int, r: int):
        handles[(s, r)] = make_handle()
        return RemoteShard(ShardServer(handles[(s, r)]), network, "coord",
                           f"s{s}r{r}", channel_options={"max_retries": 2})

    fleet = replicated_fleet(2, M, K, rf=3, seed=SEED,
                             replica_factory=factory, eject_after=2,
                             probe_every=10_000)
    batcher = ShardBatcher(fleet)
    oracle = make_filter()

    def write(keys):
        assert batcher.insert_many(keys).ok
        for key in keys:
            oracle.insert(key)

    def wrong(keys) -> int:
        answers = batcher.query_many(keys)
        return sum(a != oracle.query(k) for k, a in zip(keys, answers))

    keys = workload(120)
    write(keys)
    partition(network, "s0r1", seed=41)
    for round_ in range(6):
        write([f"outage:{round_}:{i}" for i in range(40)])
        assert wrong(keys) == 0
    shard0 = fleet.shards[0]
    assert per_replica(shard0, "up") == [True, False, True]
    assert per_replica(shard0, "hint_depth")[1] > 0
    heal(network, "s0r1")
    assert shard0.tick() == 1
    assert per_replica(shard0, "hint_depth") == [0, 0, 0]
    assert wrong(keys + [f"outage:5:{i}" for i in range(40)]) == 0
    for rset in fleet.shards:
        rset.repair()
        sums = [block_checksums(replica) for replica in rset.replicas]
        assert all(other == sums[0] for other in sums[1:])


def test_hint_log_orders_and_resumes(tmp_path):
    log = HintLog(str(tmp_path / "r.hints"))
    log.append("insert", "a", 2)
    log.append("set", "b", 7)
    log.append_many("insert", ["c", "d"], [1, 1])
    assert len(log) == 4
    seen = []

    def apply(verb, key, count):
        if key == "d":
            raise DeliveryFailed("died mid-handoff", ChannelStats())
        seen.append((verb, key, count))

    with pytest.raises(DeliveryFailed):
        log.drain(apply)
    assert seen == [("insert", "a", 2), ("set", "b", 7),
                    ("insert", "c", 1)]
    assert len(log) == 1                       # resumes where it stopped
    log.close()
    revived = HintLog(str(tmp_path / "r.hints"))
    assert len(revived) == 1
    landed = []
    revived.drain(lambda *hint: landed.append(hint))
    assert landed == [("insert", "d", 1)]
    revived.close()


def test_replica_set_validations():
    with pytest.raises(ValueError, match="at least one"):
        ReplicaSet([])
    with pytest.raises(ValueError, match="eject_after"):
        ReplicaSet([make_handle()], eject_after=0)
    with pytest.raises(ValueError, match="names"):
        ReplicaSet([make_handle()], names=["a", "b"])
    with pytest.raises(ValueError, match="rf"):
        replicated_fleet(2, M, K, rf=0)


# -- coordinator crash during handoff (drain vs. crash) ----------------------
#
# HintLog.drain resyncs its WAL after handing hints off; a coordinator
# crash inside that resync must never lose an undrained hint.  The resync
# is temp-file + rename, so every kill point leaves one of two states:
# the OLD log (a superset — the drained prefix re-applies on restart, the
# at-least-once side the convergence proof flags) or the NEW log (exactly
# the still-pending hints).  The sweep below drives a crash at every byte
# count, fsync ordinal, and both sides of the rename.

def _drain_kill_points():
    points = [{"crash_on_fsync": n} for n in range(1, 5)]
    points += [{"crash_before_replace": 1}, {"crash_after_replace": 1}]
    points += [{"crash_after_bytes": b} for b in range(0, 260, 13)]
    return points


@pytest.mark.parametrize("kill", _drain_kill_points(),
                         ids=lambda k: "-".join(f"{n}={v}"
                                                for n, v in k.items()))
def test_hint_log_drain_crash_never_loses_a_pending_hint(tmp_path, kill):
    from repro.persist.crashsim import CrashIO, SimulatedCrash

    path = str(tmp_path / "r.hints")
    hints = [("insert", f"k{i}", i + 1) for i in range(6)]
    log = HintLog(path)
    for hint in hints:
        log.append(*hint)
    log.close()

    crashing = HintLog(path, io=CrashIO(**kill))
    applied = []

    def apply(verb, key, count):
        if key == "k4":                        # replica dies mid-handoff
            raise DeliveryFailed("replica died", ChannelStats())
        applied.append((verb, key, count))

    # The drain lands 4 hints, the failing 5th aborts it, and the WAL
    # resync in the finally block crashes at the configured kill point
    # (or survives, when the kill point lies beyond the resync's work).
    with pytest.raises((DeliveryFailed, SimulatedCrash)):
        crashing.drain(apply)
    assert applied == hints[:4]

    # "Restart the coordinator": recover the queue from disk, healthy IO.
    revived = HintLog(path)
    recovered = []
    revived.drain(lambda *hint: recovered.append(hint))
    revived.close()
    # Never fewer than the undrained hints, never anything but a suffix
    # of the original queue (the superset case re-applies the drained
    # prefix — at-least-once, converged later by the total-count proof
    # and repair; the clean case is exactly the two undrained hints).
    assert len(recovered) >= 2
    assert recovered == hints[-len(recovered):]


def test_crashed_handoff_double_apply_is_caught_and_repaired(tmp_path):
    from repro.persist.crashsim import CrashIO, SimulatedCrash  # noqa: F401

    handles = [make_handle() for _ in range(3)]
    flaky = [FlakyReplica(h) for h in handles]
    rset = ReplicaSet(flaky, hint_dir=str(tmp_path), probe_every=10_000)
    for key in workload(40):
        rset.insert(key)
    flaky[1].down = True
    for i in range(10):
        rset.insert(f"hinted:{i}", 2)
    rset.close()

    # A new coordinator drains the recovered hints, but crashes before
    # the resync's rename lands — the old WAL (already handed off in
    # full) survives as a superset.
    flaky[1].down = False
    crashing = ReplicaSet(flaky, hint_dir=str(tmp_path),
                          io=CrashIO(crash_before_replace=1),
                          probe_every=10_000)
    assert crashing.tick() == 0               # probe died mid-resync

    # Restart again, healthy disk: the recovered hints re-apply — the
    # double-apply — so the convergence proof must refuse re-admission
    # and flag the replica for anti-entropy.
    rset2 = ReplicaSet(flaky, hint_dir=str(tmp_path), probe_every=10_000)
    assert {h["replica"]: h
            for h in rset2.health()}["r1"]["hint_depth"] == 10
    rset2.tick()
    health = {h["replica"]: h for h in rset2.health()}
    assert health["r1"]["needs_repair"] is True
    # Quorum reads never touch the diverged replica: still oracle-exact.
    assert rset2.query("hinted:0") == 2
    report = rset2.repair()
    assert report.converged
    assert all(h["up"] and not h["needs_repair"] for h in rset2.health())
    assert_replicas_identical(rset2)
    assert rset2.query("hinted:0") == 2
    rset2.close()
