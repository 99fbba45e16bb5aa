"""Core tests for the SpectralBloomFilter shell: construction, queries,
multiset algebra, storage accounting, backends."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import SpectralBloomFilter

METHODS = ["ms", "mi", "rm", "trm"]


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SpectralBloomFilter(0, 5)
        with pytest.raises(ValueError):
            SpectralBloomFilter(100, 0)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            SpectralBloomFilter(100, 3, method="nope")

    def test_for_items_sizes_reasonably(self):
        sbf = SpectralBloomFilter.for_items(1000, 0.01)
        assert sbf.m >= 1000
        assert 1 <= sbf.k <= 15

    def test_from_counts(self):
        counts = {"a": 3, "b": 1, "c": 7}
        sbf = SpectralBloomFilter.from_counts(counts, seed=1)
        for key, f in counts.items():
            assert sbf.query(key) >= f

    @pytest.mark.parametrize("method", METHODS)
    def test_all_methods_construct(self, method):
        sbf = SpectralBloomFilter(500, 4, method=method, seed=2)
        sbf.insert("x")
        assert sbf.query("x") >= 1

    def test_method_instance_rejected(self):
        sbf = SpectralBloomFilter(100, 3)
        with pytest.raises(TypeError):
            SpectralBloomFilter(100, 3, method=sbf.method)

    def test_method_by_class(self):
        from repro.core.methods import MinimalIncrease
        sbf = SpectralBloomFilter(100, 3, method=MinimalIncrease)
        assert sbf.method.name == "mi"


class TestBasicSemantics:
    @pytest.mark.parametrize("method", METHODS)
    def test_counts_single_item(self, method):
        sbf = SpectralBloomFilter(1000, 5, method=method, seed=7)
        for _ in range(12):
            sbf.insert("item")
        assert sbf.query("item") == 12

    @pytest.mark.parametrize("method", METHODS)
    def test_bulk_count_equals_iterated(self, method):
        a = SpectralBloomFilter(1000, 5, method=method, seed=7)
        b = SpectralBloomFilter(1000, 5, method=method, seed=7)
        a.insert("x", 9)
        for _ in range(9):
            b.insert("x")
        assert a.query("x") == b.query("x") == 9

    @pytest.mark.parametrize("method", ["ms", "mi", "rm"])
    def test_no_false_negatives_on_inserts(self, method):
        """The overestimate invariant f̂ >= f (Claim 1 / Claim 4)."""
        rng = random.Random(11)
        sbf = SpectralBloomFilter(4000, 5, method=method, seed=3)
        truth: dict[int, int] = {}
        for _ in range(3000):
            x = rng.randrange(600)
            truth[x] = truth.get(x, 0) + 1
            sbf.insert(x)
        for x, f in truth.items():
            assert sbf.query(x) >= f

    def test_trm_false_negatives_are_rare(self):
        """§3.3.1 concedes the trapping correction 'does not cover all
        possible cases'; over-correction can undershoot, but only rarely."""
        rng = random.Random(11)
        sbf = SpectralBloomFilter(4000, 5, method="trm", seed=3)
        truth: dict[int, int] = {}
        for _ in range(3000):
            x = rng.randrange(600)
            truth[x] = truth.get(x, 0) + 1
            sbf.insert(x)
        negatives = sum(1 for x, f in truth.items() if sbf.query(x) < f)
        assert negatives / len(truth) < 0.02

    @pytest.mark.parametrize("method", METHODS)
    def test_absent_items_mostly_zero(self, method):
        sbf = SpectralBloomFilter(8000, 5, method=method, seed=3)
        for x in range(500):
            sbf.insert(x)
        false_positives = sum(
            1 for x in range(10_000, 10_500) if sbf.query(x) > 0)
        assert false_positives <= 5   # E_b is tiny at this load

    def test_contains_thresholds(self):
        sbf = SpectralBloomFilter(1000, 5, seed=5)
        sbf.insert("hot", 10)
        sbf.insert("cold", 1)
        assert sbf.contains("hot", threshold=10)
        assert not sbf.contains("cold", threshold=2)
        assert "hot" in sbf
        assert "never" not in sbf

    def test_contains_invalid_threshold(self):
        sbf = SpectralBloomFilter(100, 3)
        with pytest.raises(ValueError):
            sbf.contains("x", threshold=-1)

    def test_insert_count_zero_is_noop(self):
        sbf = SpectralBloomFilter(100, 3, seed=1)
        sbf.insert("x", 0)
        assert sbf.total_count == 0
        assert sbf.query("x") == 0

    def test_insert_negative_count_raises(self):
        sbf = SpectralBloomFilter(100, 3)
        with pytest.raises(ValueError):
            sbf.insert("x", -1)
        with pytest.raises(ValueError):
            sbf.delete("x", -1)

    def test_update_mapping_and_iterable(self):
        sbf = SpectralBloomFilter(1000, 4, seed=2)
        sbf.update({"a": 2, "b": 3})
        sbf.update(["a", "c"])
        assert sbf.query("a") >= 3
        assert sbf.query("b") >= 3
        assert sbf.query("c") >= 1
        assert sbf.total_count == 7


@pytest.mark.parametrize("backend", ["array", "numpy"])
def test_total_count_stays_below_2_63(backend):
    # Each count obeys the count rule; the total guard bounds their sum,
    # which int64 answers, frames and the pool's shared header carry.
    sbf = SpectralBloomFilter(4096, 4, seed=3, backend=backend)
    sbf.insert("x", 2 ** 62)
    for verb, args in (("insert", ("x", 2 ** 62)),
                       ("insert_many", (["y"], [2 ** 62])),
                       ("set", ("y", 2 ** 62))):
        with pytest.raises(OverflowError, match="total_count"):
            getattr(sbf, verb)(*args)
    assert sbf.total_count == 2 ** 62 and sbf.query("y") == 0
    assert sbf.check_integrity() == []
    fresh = SpectralBloomFilter(4096, 4, seed=3, backend=backend)
    with pytest.raises(OverflowError):      # their int64 sum wraps
        fresh.insert_many(["a", "b"], [2 ** 62, 2 ** 62])
    assert fresh.total_count == 0 and not any(fresh.counters)
    sbf.insert("x", 2 ** 62 - 1)            # up to 2**63 - 1 lands
    assert sbf.query("x") == sbf.query_many(["x"]).tolist()[0] == 2 ** 63 - 1


class TestDeletions:
    @pytest.mark.parametrize("method", ["ms", "rm", "trm"])
    def test_insert_delete_roundtrip(self, method):
        """§2.2: deleting reverses inserting; untouched items keep f̂ >= f."""
        rng = random.Random(23)
        sbf = SpectralBloomFilter(4000, 5, method=method, seed=5)
        truth: dict[int, int] = {}
        for _ in range(2000):
            x = rng.randrange(400)
            truth[x] = truth.get(x, 0) + 1
            sbf.insert(x)
        victims = [x for x in truth if x % 3 == 0]
        for x in victims:
            sbf.delete(x, truth[x])
            truth[x] = 0
        for x, f in truth.items():
            assert sbf.query(x) >= f

    def test_ms_delete_to_zero(self):
        sbf = SpectralBloomFilter(500, 4, seed=1)
        sbf.insert("x", 5)
        sbf.delete("x", 5)
        assert sbf.query("x") == 0
        assert sbf.total_count == 0

    def test_mi_deletions_can_create_false_negatives(self):
        """§3.2: MI + deletions is the documented failure mode (Figure 8)."""
        rng = random.Random(1)
        sbf = SpectralBloomFilter(300, 5, method="mi", seed=1)
        truth: dict[int, int] = {}
        stream = [rng.randrange(80) for _ in range(2000)]
        for x in stream:
            truth[x] = truth.get(x, 0) + 1
            sbf.insert(x)
        for x in list(truth)[:40]:
            sbf.delete(x, truth.pop(x))
        negatives = sum(1 for x, f in truth.items() if sbf.query(x) < f)
        assert negatives > 0

    def test_delete_count_zero_is_noop(self):
        sbf = SpectralBloomFilter(100, 3, seed=1)
        sbf.insert("x", 2)
        sbf.delete("x", 0)
        assert sbf.query("x") == 2


class TestAlgebra:
    def test_union_adds_counts(self):
        a = SpectralBloomFilter(800, 4, seed=13)
        b = SpectralBloomFilter(800, 4, seed=13)
        a.update({"x": 2, "y": 1})
        b.update({"x": 5, "z": 4})
        u = a + b
        assert u.query("x") >= 7
        assert u.query("y") >= 1
        assert u.query("z") >= 4
        assert u.total_count == a.total_count + b.total_count

    def test_union_requires_compatibility(self):
        a = SpectralBloomFilter(800, 4, seed=13)
        b = SpectralBloomFilter(800, 4, seed=14)
        with pytest.raises(ValueError):
            a.union(b)
        c = SpectralBloomFilter(400, 4, seed=13)
        with pytest.raises(ValueError):
            a.union(c)

    def test_union_rm_merges_secondary(self):
        a = SpectralBloomFilter(800, 4, method="rm", seed=13)
        b = SpectralBloomFilter(800, 4, method="rm", seed=13)
        a.insert("x", 3)
        b.insert("x", 2)
        u = a + b
        assert u.query("x") >= 5
        assert u.method.name == "rm"

    def test_multiply_models_join(self):
        """§2.2: counter multiplication represents the equi-join."""
        a = SpectralBloomFilter(2000, 5, seed=17)
        b = SpectralBloomFilter(2000, 5, seed=17)
        a.update({"k1": 2, "k2": 1, "only_a": 5})
        b.update({"k1": 3, "k2": 4, "only_b": 9})
        j = a * b
        assert j.query("k1") >= 6      # 2 * 3 join tuples
        assert j.query("k2") >= 4
        assert j.query("only_a") == 0  # no partner -> filtered out w.h.p.
        assert j.query("only_b") == 0

    def test_multiply_requires_compatibility(self):
        a = SpectralBloomFilter(100, 3, seed=1)
        b = SpectralBloomFilter(100, 3, seed=2)
        with pytest.raises(ValueError):
            a * b

    def test_difference_inverts_union(self):
        """Batched sliding windows: (A + B) - B == A, counter for counter."""
        a = SpectralBloomFilter(500, 4, seed=19)
        b = SpectralBloomFilter(500, 4, seed=19)
        a.update({"x": 3, "y": 2})
        b.update({"x": 1, "z": 4})
        restored = (a + b) - b
        assert list(restored) == list(a)
        assert restored.total_count == a.total_count
        assert restored.query("x") >= 3

    def test_difference_rejects_non_submultiset(self):
        a = SpectralBloomFilter(500, 4, seed=19)
        b = SpectralBloomFilter(500, 4, seed=19)
        a.insert("x", 1)
        b.insert("x", 5)
        with pytest.raises(ValueError):
            a - b

    def test_difference_requires_compatibility(self):
        a = SpectralBloomFilter(500, 4, seed=19)
        c = SpectralBloomFilter(500, 4, seed=20)
        with pytest.raises(ValueError):
            a - c


class TestBackends:
    @pytest.mark.parametrize("backend", ["array", "compact", "stream"])
    def test_backends_agree(self, backend):
        """The §4 storage layers must not change any estimate."""
        rng = random.Random(5)
        reference = SpectralBloomFilter(600, 4, seed=9, backend="array")
        other = SpectralBloomFilter(600, 4, seed=9, backend=backend)
        for _ in range(800):
            x = rng.randrange(150)
            reference.insert(x)
            other.insert(x)
        for x in range(200):
            assert reference.query(x) == other.query(x)

    def test_compact_backend_storage_accounting(self):
        sbf = SpectralBloomFilter(512, 4, seed=9, backend="compact")
        for x in range(100):
            sbf.insert(x)
        assert sbf.storage_bits() > 0
        assert sbf.counters.storage_breakdown()["base_array"] > 0

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            SpectralBloomFilter(100, 3, backend="tape")


class TestDiagnostics:
    def test_gamma_and_expected_error(self):
        sbf = SpectralBloomFilter(1000, 5, seed=1)
        for x in range(140):
            sbf.insert(x)
        assert sbf.gamma == pytest.approx(140 * 5 / 1000)
        assert 0 <= sbf.expected_bloom_error(140) < 1

    def test_fill_ratio(self):
        sbf = SpectralBloomFilter(100, 2, seed=1)
        assert sbf.fill_ratio() == 0.0
        sbf.insert("x")
        assert sbf.fill_ratio() > 0.0

    def test_storage_bits_grow_with_content(self):
        sbf = SpectralBloomFilter(100, 3, seed=1)
        empty = sbf.storage_bits()
        sbf.insert("x", 1000)
        assert sbf.storage_bits() > empty

    def test_min_counter_is_the_ms_estimate(self):
        sbf = SpectralBloomFilter(300, 4, seed=2)
        sbf.insert("q", 9)
        assert sbf.min_counter("q") == sbf.query("q") == 9
        assert sbf.min_counter("absent") == 0

    def test_union_of_plain_methods_has_noop_merge(self):
        """merge_from is a no-op for MS/MI (no auxiliary state)."""
        a = SpectralBloomFilter(200, 3, method="mi", seed=4)
        b = SpectralBloomFilter(200, 3, method="mi", seed=4)
        a.insert("x", 2)
        b.insert("x", 3)
        u = a + b
        assert u.method.name == "mi"
        assert u.query("x") >= 5

    def test_iter_returns_counters(self):
        sbf = SpectralBloomFilter(50, 2, seed=1)
        sbf.insert("x", 3)
        values = list(sbf)
        assert len(values) == 50
        assert sum(values) == 6  # k=2 counters x count 3


class TestPropertyBased:
    @settings(max_examples=20)
    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(1, 10)),
                    min_size=1, max_size=120),
           st.sampled_from(["ms", "mi", "rm"]))
    def test_overestimate_invariant(self, ops, method):
        """For any insert-only workload, every estimate >= truth."""
        sbf = SpectralBloomFilter(700, 4, method=method, seed=21)
        truth: dict[int, int] = {}
        for key, count in ops:
            truth[key] = truth.get(key, 0) + count
            sbf.insert(key, count)
        for key, f in truth.items():
            assert sbf.query(key) >= f

    @settings(max_examples=20)
    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 5)),
                    min_size=1, max_size=80))
    def test_ms_delete_inverse(self, ops):
        """MS: inserting then deleting the same multiset empties the filter."""
        sbf = SpectralBloomFilter(500, 4, method="ms", seed=8)
        for key, count in ops:
            sbf.insert(key, count)
        for key, count in ops:
            sbf.delete(key, count)
        assert all(c == 0 for c in sbf)
        assert sbf.total_count == 0

    @settings(max_examples=20)
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 6)),
                    min_size=1, max_size=60))
    def test_union_never_underestimates_sum(self, ops):
        a = SpectralBloomFilter(400, 3, seed=33)
        b = SpectralBloomFilter(400, 3, seed=33)
        truth: dict[int, int] = {}
        for idx, (key, count) in enumerate(ops):
            target = a if idx % 2 else b
            target.insert(key, count)
            truth[key] = truth.get(key, 0) + count
        u = a + b
        for key, f in truth.items():
            assert u.query(key) >= f
