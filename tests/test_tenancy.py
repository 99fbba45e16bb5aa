"""The multi-tenant fleet index: the flat spectral Bloofi index +
TenantDirectory.

The invariants under test:

- **bits** — every mounted tenant's column equals its source > 0 (the
  bare filter's counters, or a tracked signature), free columns are
  zero and columns map one-to-one to tenants, after any interleaving of
  insert / delete / mount / unmount (the hypothesis machine drives this);
- **exact pruning** — index answers are bit-identical to scanning every
  mounted tenant, for every method mix (MS, MI, RM, TRM in one index);
- **columns** — an unmounted tenant's column is cleared and reused, and
  the matrix widens past 64 tenants;
- **wire** — snapshot/restore round-trips the whole index and rejects
  corrupted, structurally invalid or version-1 manifests;
- **contract** — the TenantDirectory front serves the tree through the
  unchanged ServingEngine/ShardBatcher machinery, failing unknown
  tenants in their result slot.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.serialize import WireFormatError, family_name, seal_sections
from repro.core.sbf import SpectralBloomFilter
from repro.persist import ConcurrentSBF
from repro.persist.durable import DurableSBF
from repro.serve import ServingEngine, ShardBatcher
from repro.handle import BulkFailure, FilterHandle
from repro.serve.remote import BulkResult
from repro.tenancy import (
    TREE_MAGIC,
    SpectralBloofiTree,
    TenantDirectory,
    UnknownTenant,
    load_tree,
)

M, K, SEED = 1024, 3, 5
METHODS = ("ms", "mi", "rm")


def make_tree(**kwargs) -> SpectralBloofiTree:
    return SpectralBloofiTree(M, K, seed=SEED, **kwargs)


def populated_tree(n_tenants: int = 12,
                   keys_per_tenant: int = 25) -> SpectralBloofiTree:
    """An index with a method-diverse tenant population and fixed data."""
    tree = make_tree()
    rng = np.random.default_rng(17)
    for t in range(n_tenants):
        tree.mount(t, method=METHODS[t % len(METHODS)])
        for key in rng.integers(0, 120, size=keys_per_tenant).tolist():
            tree.insert(t, int(key))
        tree.insert(t, f"name-{t % 5}")
    return tree


def scan_oracle(tree: SpectralBloofiTree, key: object) -> dict:
    """What querying every mounted leaf directly would answer."""
    answers = {}
    for tenant in tree.tenants:
        estimate = tree.handle_of(tenant).query(key)
        if estimate > 0:
            answers[tenant] = estimate
    return answers


class RefusesKey(FilterHandle):
    """A leaf handle that fails every slot of a bulk insert holding
    ``"bad"`` and applies the rest."""

    def insert_many(self, keys, counts=None, *, timeout=None):
        good = [i for i, key in enumerate(keys) if key != "bad"]
        self.sbf.insert_many([keys[i] for i in good],
                             [int(counts[i]) for i in good])
        return BulkResult(len(keys), failures=[
            BulkFailure(i, key, RuntimeError("refused"), False)
            for i, key in enumerate(keys) if key == "bad"])


def probe_keys():
    return list(range(140)) + [f"name-{i}" for i in range(6)] + ["absent"]


# ----------------------------------------------------------------------
# construction and mounting
# ----------------------------------------------------------------------
class TestMounting:
    def test_tenant_ids_must_be_wire_scalars(self):
        tree = make_tree()
        for bad in (None, 1.5, ("a",), True):
            with pytest.raises(ValueError, match="tenant ids"):
                tree.mount(bad)

    def test_duplicate_mount_refused(self):
        tree = make_tree()
        tree.mount("a")
        with pytest.raises(ValueError, match="already mounted"):
            tree.mount("a")

    def test_incompatible_filter_refused(self):
        tree = make_tree()
        with pytest.raises(ValueError, match="share the tree's"):
            tree.mount("a", SpectralBloomFilter(M, K, seed=SEED + 1))
        with pytest.raises(ValueError, match="share the tree's"):
            tree.mount("b", SpectralBloomFilter(M // 2, K, seed=SEED))

    def test_mount_prepopulated_filter_folds_counters_in(self):
        tree = make_tree()
        sbf = SpectralBloomFilter(M, K, seed=SEED)
        sbf.insert("hot", 7)
        tree.mount("t", sbf)
        tree.mount("other")
        assert tree.query("hot") == {"t": 7}
        assert tree.verify() == []

    def test_unmount_returns_live_handle(self):
        tree = populated_tree(6)
        handle = tree.handle_of(3)
        assert tree.unmount(3) is handle
        assert 3 not in tree.tenants
        assert tree.verify() == []
        with pytest.raises(UnknownTenant):
            tree.insert(3, 1)

    def test_explicit_signature_validated(self):
        tree = make_tree()
        with pytest.raises(ValueError, match="shape"):
            tree.mount("t", SpectralBloomFilter(M, K, seed=SEED),
                       signature=np.zeros(3))
        with pytest.raises(ValueError, match=">= 0"):
            tree.mount("t", SpectralBloomFilter(M, K, seed=SEED),
                       signature=np.full(M, -1))


# ----------------------------------------------------------------------
# the core claim: bit-identical to scanning every leaf
# ----------------------------------------------------------------------
class TestQueryExactness:
    def test_point_queries_match_scan(self):
        tree = populated_tree()
        for key in probe_keys():
            assert tree.query(key) == scan_oracle(tree, key), key

    def test_query_many_matches_point_queries(self):
        tree = populated_tree()
        keys = probe_keys()
        assert tree.query_many(keys) == [tree.query(k) for k in keys]

    def test_query_many_empty(self):
        assert populated_tree(3).query_many([]) == []

    def test_single_tenant_routing(self):
        tree = populated_tree(5)
        for tenant in tree.tenants:
            for key in (0, 1, "name-0"):
                assert (tree.query_tenant(tenant, key)
                        == tree.handle_of(tenant).query(key))
        many = tree.query_tenant_many(2, [0, 1, "name-0"])
        assert many.tolist() == [tree.query_tenant(2, k)
                                 for k in (0, 1, "name-0")]

    def test_deep_tree_still_exact(self):
        # 130 tenants: every AND spans three 64-bit words.
        tree = populated_tree(130, keys_per_tenant=10)
        for key in probe_keys():
            assert tree.query(key) == scan_oracle(tree, key), key
        assert tree.verify() == []


# ----------------------------------------------------------------------
# writes: propagation, failure atomicity, bulk parity
# ----------------------------------------------------------------------
class TestWrites:
    def test_insert_delete_roundtrip(self):
        tree = make_tree()
        tree.mount("t")
        tree.insert("t", "k", 5)
        assert tree.query("k") == {"t": 5}
        tree.delete("t", "k", 5)
        assert tree.query("k") == {}
        assert tree.verify() == []

    def test_failed_delete_leaves_tree_untouched(self):
        tree = populated_tree(6)
        before = {k: tree.query(k) for k in probe_keys()}
        with pytest.raises(ValueError, match="negative"):
            tree.delete(0, "never-inserted", 3)
        assert {k: tree.query(k) for k in probe_keys()} == before
        assert tree.verify() == []

    def test_set_count(self):
        tree = make_tree()
        tree.mount("t")
        tree.set_count("t", "k", 9)
        assert tree.query_tenant("t", "k") == 9
        tree.set_count("t", "k", 2)
        assert tree.query_tenant("t", "k") == 2
        assert tree.verify() == []

    @pytest.mark.parametrize("method", METHODS)
    def test_bulk_matches_point_path(self, method):
        point = make_tree()
        bulk = make_tree()
        for tree in (point, bulk):
            tree.mount("t", method=method)
            tree.mount("other", method=method)
        keys = [int(k) for k in
                np.random.default_rng(3).integers(0, 60, size=200)]
        counts = [(i % 3) + 1 for i in range(len(keys))]
        for key, count in zip(keys, counts):
            point.insert("t", key, count)
        bulk.insert_many("t", keys, np.asarray(counts))
        for key in range(60):
            assert point.query(key) == bulk.query(key), key
        dropped = keys[:40]
        for key in dropped:
            point.delete("t", key, 1)
        bulk.delete_many("t", dropped)
        for key in range(60):
            assert point.query(key) == bulk.query(key), key
        assert point.verify() == bulk.verify() == []

    @pytest.mark.parametrize("wrapped", [False, True],
                             ids=["bare", "concurrent"])
    def test_mi_clamped_delete_clears_bits(self, wrapped):
        # An MI delete clamps at zero (§3.2), below what an additive
        # signature would hold: a bare tenant's bits follow its counters,
        # a wrapped tenant's signature clamps too, and either way the
        # index answers like the scan.
        tree = make_tree()
        mi = SpectralBloomFilter(M, K, seed=SEED, method="mi",
                                 hash_family=tree.family.spawn())
        tree.mount("mi", ConcurrentSBF(mi) if wrapped else mi)
        tree.mount("ms")
        for tenant in ("mi", "ms"):
            tree.insert(tenant, "a")
            tree.insert(tenant, "b", 2)
        tree.delete("mi", "a", 3)
        assert tree.query("a") == {"ms": 1}
        tree.insert("mi", "a")
        tree.delete_many("mi", ["b"], [5])
        tree.insert_many("mi", ["b"])
        for key in ("a", "b", "absent"):
            assert tree.query(key) == scan_oracle(tree, key), key
        assert tree.query("a") == {"mi": 1, "ms": 1}
        assert tree.verify() == []

    def test_bulk_string_keys(self):
        tree = make_tree()
        tree.mount("t")
        tree.insert_many("t", [f"u{i % 9}" for i in range(50)])
        assert tree.verify() == []
        assert tree.query("u0") == {"t": tree.handle_of("t").query("u0")}

    def test_zero_and_negative_counts(self):
        tree = make_tree()
        tree.mount("t")
        tree.insert("t", "k", 0)
        assert tree.query("k") == {}
        with pytest.raises(ValueError):
            tree.insert("t", "k", -1)
        with pytest.raises(ValueError):
            tree.insert_many("t", ["a", "b"], [1, -2])
        tree.insert_many("t", ["a", "b"], [2, 0])  # zero entries dropped
        assert tree.query_tenant("t", "b") == 0
        assert tree.verify() == []

    def test_bulk_result_speaks_of_the_callers_slots(self):
        tree = make_tree()
        tree.mount("t")
        outcome = tree.insert_many("t", ["a", "b", "c"], [0, 1, 0])
        assert len(outcome) == 3 and outcome.ok
        assert outcome.tolist() == [None, None, None]
        assert len(tree.delete_many("t", ["a", "b"], [0, 0])) == 2
        # a leaf handle that fails one slot of the batch it is handed
        leaf = RefusesKey(SpectralBloomFilter(M, K, seed=SEED,
                                              hash_family=tree.family.spawn()))
        tree.mount("f", leaf)
        outcome = tree.insert_many("f", ["a", "b", "bad", "c"], [1, 0, 2, 1])
        assert len(outcome) == 4 and outcome.applied == 3
        [failure] = outcome.failures
        assert (failure.index, failure.key) == (2, "bad")
        assert isinstance(outcome.tolist()[2], RuntimeError)
        assert [tree.query_tenant("f", key) for key in ("a", "bad", "c")] \
            == [1, 0, 1]
        assert tree.verify() == []          # ancestors skip the failed slot


# ----------------------------------------------------------------------
# lifecycle: column reuse and widening under churn
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_churn_preserves_invariants_and_answers(self):
        tree = make_tree()
        live = set()
        rng = np.random.default_rng(23)
        for step in range(160):
            action = rng.integers(0, 4)
            if action == 0 or not live:
                tenant = int(rng.integers(0, 40))
                if tenant not in live:
                    tree.mount(tenant,
                               method=METHODS[tenant % len(METHODS)])
                    live.add(tenant)
            elif action == 1 and len(live) > 1:
                tenant = int(rng.choice(sorted(live)))
                tree.unmount(tenant)
                live.remove(tenant)
            else:
                tenant = int(rng.choice(sorted(live)))
                tree.insert(tenant, int(rng.integers(0, 50)))
        assert tree.verify() == []
        for key in range(50):
            assert tree.query(key) == scan_oracle(tree, key), key

    def test_wide_fleet_reuses_cleared_columns(self):
        tree = make_tree()
        for t in range(150):                # three words of columns
            tree.mount(t)
            tree.insert(t, f"own-{t}", 2)
            tree.insert(t, "shared")
        width = tree.index_bytes
        gone = list(range(0, 150, 3))
        for t in gone:
            tree.unmount(t)
        for t in range(150, 150 + len(gone)):
            tree.mount(t)                   # each takes a freed column
        assert tree.index_bytes == width
        assert tree.verify() == []
        for t in gone:
            assert tree.query(f"own-{t}") == {}, t
        assert tree.query("shared") == {t: 1 for t in range(150)
                                        if t not in gone}
        keys = [f"own-{t}" for t in range(150)] + ["shared", "absent"]
        assert tree.query_many(keys) == [scan_oracle(tree, key)
                                         for key in keys]

    def test_mount_during_traffic_is_immediately_queryable(self):
        tree = populated_tree(8)
        sbf = SpectralBloomFilter(M, K, seed=SEED)
        sbf.insert("mid-traffic", 2)
        tree.mount("late", sbf)
        assert tree.query("mid-traffic")["late"] == 2


# ----------------------------------------------------------------------
# the bit invariant, property-tested under random interleavings
# ----------------------------------------------------------------------
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("mount"), st.integers(0, 11),
                  st.sampled_from(METHODS + ("trm", "concurrent"))),
        st.tuples(st.just("unmount"), st.integers(0, 11)),
        st.tuples(st.just("insert"), st.integers(0, 11),
                  st.integers(0, 30), st.integers(1, 4)),
        st.tuples(st.just("delete"), st.integers(0, 11),
                  st.integers(0, 30), st.integers(1, 4)),
        st.tuples(st.just("bulk"), st.integers(0, 11),
                  st.lists(st.integers(0, 30), min_size=1, max_size=8)),
    ),
    min_size=1, max_size=60)


class TestUnionInvariantProperty:
    @settings(max_examples=60)
    @given(OPS)
    def test_inner_nodes_equal_union_of_children(self, ops):
        """After ANY interleaving of mount/unmount/insert/delete/bulk,
        every column equals its source > 0 (verify()) and the index
        answers bit-identically to scanning all tenants."""
        tree = SpectralBloofiTree(256, K, seed=SEED)
        mounted = set()
        for op in ops:
            kind, tenant = op[0], op[1]
            if kind == "mount":
                if tenant in mounted:
                    continue
                if op[2] == "concurrent":   # a tracked signature
                    tree.mount(tenant, ConcurrentSBF(SpectralBloomFilter(
                        256, K, seed=SEED, hash_family=tree.family.spawn())))
                else:
                    tree.mount(tenant, method=op[2])
                mounted.add(tenant)
            elif tenant not in mounted:
                continue
            elif kind == "unmount":
                tree.unmount(tenant)
                mounted.discard(tenant)
            elif kind == "insert":
                tree.insert(tenant, op[2], op[3])
            elif kind == "delete":
                sbf = tree.view_of(tenant).local_filter()
                if tree.query_tenant(tenant, op[2]) >= op[3] and \
                        sbf.min_counter(op[2]) >= op[3]:
                    tree.delete(tenant, op[2], op[3])
            elif kind == "bulk":
                tree.insert_many(tenant, op[2])
        assert tree.verify() == []
        keys = list(range(31))
        scans = [scan_oracle(tree, key) for key in keys]
        assert [tree.query(key) for key in keys] == scans
        assert tree.query_many(keys) == scans


# ----------------------------------------------------------------------
# snapshot / restore over the multi-section wire manifest
# ----------------------------------------------------------------------
class TestWire:
    def test_round_trip(self):
        tree = populated_tree()
        restored = load_tree(tree.dump_tree())
        assert restored.verify() == []
        assert sorted(map(str, restored.tenants)) \
            == sorted(map(str, tree.tenants))
        for key in probe_keys():
            assert restored.query(key) == tree.query(key), key

    def test_round_trip_preserves_methods(self):
        tree = populated_tree(6)
        restored = load_tree(tree.dump_tree())
        for tenant in tree.tenants:
            assert (restored.handle_of(tenant).method.name
                    == tree.handle_of(tenant).method.name)

    def test_corruption_detected(self):
        blob = bytearray(populated_tree(4).dump_tree())
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(WireFormatError):
            load_tree(bytes(blob))

    def test_truncation_detected(self):
        blob = populated_tree(4).dump_tree()
        with pytest.raises(WireFormatError):
            load_tree(blob[:-10])

    def test_structural_garbage_rejected(self):
        from repro.core.serialize import dump_sbf
        section = dump_sbf(SpectralBloomFilter(M, K, seed=SEED))
        base = {"version": 2, "m": M, "k": K, "seed": SEED,
                "family": "modmul"}
        cases = [
            dict(base, tenants=["a", "a"]),             # dup ids
            dict(base, tenants=[None]),                 # bad id
            dict(base, tenants=["a"], m="big"),         # bad m
            dict(base, tenants=["a"], version=9),
        ]
        for meta in cases:
            n = len(meta["tenants"])
            blob = seal_sections(TREE_MAGIC, meta, [section] * n)
            with pytest.raises(WireFormatError):
                load_tree(blob)
        blob = seal_sections(TREE_MAGIC, dict(base, tenants=["a"]),
                             [section] * 2)             # wrong arity
        with pytest.raises(WireFormatError, match="one id per section"):
            load_tree(blob)

    def test_version_1_frame_refused(self):
        from repro.core.serialize import dump_sbf
        # The header the B+-tree writer sealed: a fanout and the nested
        # shape, with leaf slots as section indices.
        meta = {"version": 1, "fanout": 16, "m": M, "k": K, "seed": SEED,
                "family": "modmul", "tenants": ["a", "b"],
                "structure": [0, 1]}
        section = dump_sbf(SpectralBloomFilter(M, K, seed=SEED))
        blob = seal_sections(TREE_MAGIC, meta, [section] * 2)
        with pytest.raises(WireFormatError, match="version 1"):
            load_tree(blob)

    def test_mi_signature_rederived_on_load(self):
        tree = make_tree()
        tree.mount("mi-tenant", method="mi")
        for key in range(40):
            tree.insert("mi-tenant", key, (key % 3) + 1)
        restored = load_tree(tree.dump_tree())
        assert restored.verify() == []
        for key in range(40):
            assert restored.query(key) == tree.query(key)

    def test_family_name_round_trip(self):
        tree = make_tree()
        assert family_name(tree.family) == "modmul"
        restored = load_tree(tree.dump_tree())
        assert restored.family.is_compatible(tree.family)


# ----------------------------------------------------------------------
# serving-grade leaves: durable, concurrent, replicated
# ----------------------------------------------------------------------
class TestServingLeaves:
    def test_durable_leaf_survives_restart(self, tmp_path):
        tree = make_tree()
        durable = DurableSBF(SpectralBloomFilter(M, K, seed=SEED),
                             str(tmp_path / "t0"))
        tree.mount("d", durable)
        tree.insert("d", "persisted", 4)
        tree.insert_many("d", list(range(20)))
        assert tree.query("persisted") == {"d": 4}
        durable.checkpoint()
        durable.close()
        reopened = DurableSBF.open(
            str(tmp_path / "t0"),
            factory=lambda: SpectralBloomFilter(M, K, seed=SEED))
        tree2 = make_tree()
        tree2.mount("d", reopened)
        assert tree2.query("persisted") == {"d": 4}
        assert tree2.verify() == []
        reopened.close()


# ----------------------------------------------------------------------
# the TenantDirectory front behind the unchanged serving stack
# ----------------------------------------------------------------------
class TestDirectory:
    def make(self):
        tree = make_tree()
        directory = TenantDirectory(tree)
        for tenant in ("alpha", "beta"):
            directory.mount(tenant)
        return tree, directory

    def test_point_verbs_route_to_owning_leaf(self):
        tree, directory = self.make()
        directory.insert(("alpha", "k"), 3)
        directory.set(("beta", "k"), 1)
        assert directory.query(("alpha", "k")) == 3
        assert directory.contains(("alpha", "k"), 3)
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            directory.contains(("alpha", "k"), -1)
        assert directory.query_tenants("k") == {"alpha": 3, "beta": 1}
        directory.delete(("alpha", "k"), 2)
        assert directory.query(("alpha", "k")) == 1
        assert tree.verify() == []

    def test_malformed_and_unknown_keys(self):
        _, directory = self.make()
        with pytest.raises(UnknownTenant):
            directory.shard_of("not-a-pair")
        with pytest.raises(UnknownTenant):
            directory.shard_of(("ghost", 1))
        with pytest.raises(UnknownTenant):
            directory.insert("not-a-pair")
        with pytest.raises(UnknownTenant):
            directory.query(("ghost", 1))

    def test_engine_serves_unchanged(self):
        _, directory = self.make()
        engine = ServingEngine(directory, max_queue=64)
        futures = [engine.submit("insert", ("alpha", 7)),
                   engine.submit("insert", ("alpha", 7)),
                   engine.submit("query", ("alpha", 7)),
                   engine.submit("query", ("ghost", 7)),
                   engine.submit("insert", "malformed")]
        engine.drain()
        assert futures[2].result() == 2
        assert isinstance(futures[3].exception(), UnknownTenant)
        assert isinstance(futures[4].exception(), UnknownTenant)

    def test_batcher_bulk_paths(self):
        _, directory = self.make()
        batcher = ShardBatcher(directory)
        outcome = batcher.insert_many(
            [("alpha", 1), ("beta", 1), ("ghost", 1), ("alpha", 2)])
        assert isinstance(outcome, BulkResult)
        assert [f.index for f in outcome.failures] == [2]
        assert isinstance(outcome.failures[0].error, UnknownTenant)
        results = batcher.query_many(
            [("alpha", 1), ("beta", 1), ("ghost", 1), ("alpha", 99)])
        assert results[0] == 1 and results[1] == 1 and results[3] == 0
        assert isinstance(results[2], UnknownTenant)

    @pytest.mark.parametrize("bad, error", [(b"x", TypeError),
                                            ("\ud800", ValueError)])
    def test_malformed_inner_key_fails_its_own_slot(self, bad, error):
        _, directory = self.make()
        batcher = ShardBatcher(directory)
        composites = [("alpha", 1), ("alpha", bad), ("alpha", 2),
                      ("beta", 3)]
        outcome = batcher.insert_many(composites)
        [failure] = outcome.failures
        assert failure.index == 1 and type(failure.error) is error
        results = batcher.query_many(composites)
        assert type(results[1]) is error
        assert [results[i] for i in (0, 2, 3)] == [1, 1, 1]

    def test_unmounted_tenant_fails_in_slot(self):
        _, directory = self.make()
        directory.insert(("alpha", 5))
        directory.unmount("alpha")
        batcher = ShardBatcher(directory)
        results = batcher.execute([("query", ("alpha", 5)),
                                   ("query", ("beta", 5))])
        assert isinstance(results[0], UnknownTenant)
        assert results[1] == 0

    def test_remount_reuses_slot(self):
        _, directory = self.make()
        slot = directory.shard_of(("alpha", 0))
        directory.unmount("alpha")
        directory.mount("alpha")
        assert directory.shard_of(("alpha", 0)) == slot
        directory.insert(("alpha", 3))
        assert directory.query(("alpha", 3)) == 1

    def test_engine_close_checkpoints_durable_leaf(self, tmp_path):
        tree = make_tree()
        directory = TenantDirectory(tree)
        durable = DurableSBF(SpectralBloomFilter(M, K, seed=SEED),
                             str(tmp_path / "leaf"))
        directory.mount("d", durable)
        engine = ServingEngine(directory)
        engine.submit("insert", ("d", "x"))
        report = engine.close()
        assert report["checkpointed"] == 1
        reopened = DurableSBF.open(
            str(tmp_path / "leaf"),
            factory=lambda: SpectralBloomFilter(M, K, seed=SEED))
        assert reopened.sbf.query("x") == 1
        reopened.close()


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_lifecycle_and_traffic_counters(self):
        tree = populated_tree(9)
        tree.unmount(0)
        tree.query(1)
        snapshot = tree.metrics.snapshot()["counters"]
        for name in ("tenancy.mounts", "tenancy.unmounts",
                     "tenancy.inserts", "tenancy.queries",
                     "tenancy.leaves_probed"):
            assert snapshot[name] > 0, name
        gauges = tree.metrics.snapshot()["gauges"]
        assert gauges["tenancy.tenants"] == 8

    def test_pruning_visits_fewer_nodes_than_scan(self):
        tree = make_tree()
        for t in range(32):
            tree.mount(t)
            tree.insert(t, f"private-{t}")
        probed = tree.metrics.counter("tenancy.leaves_probed")
        before = probed.value
        assert tree.query("private-0") == {0: 1}
        assert probed.value - before == 1   # the one survivor of the AND
        before = probed.value
        tree.query_many(["private-1", "private-2", "absent"])
        assert probed.value - before == 2
