"""Tests for vectorised hashing and bulk ingestion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import SpectralBloomFilter
from repro.hashing import (
    BlockedHashFamily,
    ModuloMultiplyFamily,
    MultiplyShiftFamily,
)
from repro.hashing.keys import canonical_key
from repro.hashing.vectorized import canonical_keys_array, indices_matrix


#: counter counts around the high multiply's one-limb bound (m < 2^32)
BOUNDARY_MS = [7919, 2 ** 23, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1,
               2 ** 40 + 3]

#: family builders by test id; the blocked selector is a k = 1
#: multiply-shift over the blocks (one block per counter here, so its m
#: is the family's)
FAMILIES = {
    "ModuloMultiplyFamily": lambda m: ModuloMultiplyFamily(m, 5, seed=11),
    "MultiplyShiftFamily": lambda m: MultiplyShiftFamily(m, 5, seed=11),
    "BlockedHashFamily": lambda m: BlockedHashFamily(m, 5, seed=11),
    "BlockedHashFamily-ragged": lambda m: BlockedHashFamily(
        m, 5, seed=11, block_size=100),
    "BlockedHashFamily-selector": lambda m: BlockedHashFamily(
        m, 5, seed=11, block_size=1)._selector,
}


class TestVectorisedHashing:
    @given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=50))
    @settings(max_examples=30)
    def test_canonical_keys_match_scalar(self, keys):
        vec = canonical_keys_array(np.array(keys, dtype=np.uint64))
        scalar = [canonical_key(k) for k in keys]
        assert vec.tolist() == scalar

    # The m = 7919 cases keep the ids they had before m was a parameter.
    @pytest.mark.parametrize("make, m", [
        pytest.param(make, m, id=name if m == 7919 else f"{name}-m={m}")
        for m in BOUNDARY_MS
        for name, make in FAMILIES.items()])
    def test_indices_match_scalar(self, make, m):
        # m = 2^32 - 1 is the largest m the one-limb high multiply takes;
        # from 2^32 on, the four-product form answers.
        fam = make(m)
        keys = np.arange(200, dtype=np.uint64)
        high = np.uint64(2 ** 63) + np.arange(0, 2 ** 63, 2 ** 56,
                                              dtype=np.uint64)
        top = np.array([2 ** 64 - 1], dtype=np.uint64)
        batch = np.concatenate([keys, high, top])
        matrix = indices_matrix(fam, batch)
        for row, key in zip(matrix.tolist(), batch.tolist()):
            assert tuple(row) == fam.indices(key)

    def test_indices_in_range(self):
        fam = ModuloMultiplyFamily(m=101, k=3, seed=1)
        matrix = indices_matrix(fam, np.arange(5000))
        assert matrix.min() >= 0
        assert matrix.max() < 101

    def test_unsupported_family_raises(self):
        from repro.hashing import TabulationFamily
        fam = TabulationFamily(m=100, k=2, seed=0)
        with pytest.raises(TypeError):
            indices_matrix(fam, np.arange(4))


class TestBulkInsert:
    """``SpectralBloomFilter.insert_many`` over an integer key stream
    (tests/test_bulk.py covers every method, backend and key type)."""

    def test_matches_scalar_inserts(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 500, size=5000)
        scalar = SpectralBloomFilter(3000, 5, seed=3)
        bulk = SpectralBloomFilter(3000, 5, seed=3)
        for x in keys:
            scalar.insert(int(x))
        bulk.insert_many(keys)
        assert list(bulk) == list(scalar)
        assert bulk.total_count == scalar.total_count

    def test_queries_after_bulk(self):
        keys = np.repeat(np.arange(100), 7)
        sbf = SpectralBloomFilter(4000, 4, seed=4)
        sbf.insert_many(keys)
        for x in range(100):
            assert sbf.query(x) >= 7

    def test_empty_stream(self):
        sbf = SpectralBloomFilter(100, 3, seed=5)
        sbf.insert_many(np.array([], dtype=np.int64))
        assert sbf.total_count == 0
        assert not any(sbf)

    def test_speedup_is_real(self):
        """The whole point: bulk path is much faster than scalar."""
        import time
        keys = np.random.default_rng(8).integers(0, 2000, size=30_000)
        scalar = SpectralBloomFilter(10_000, 5, seed=8)
        bulk = SpectralBloomFilter(10_000, 5, seed=8)
        t0 = time.perf_counter()
        for x in keys:
            scalar.insert(int(x))
        scalar_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        bulk.insert_many(keys)
        bulk_time = time.perf_counter() - t0
        assert list(bulk) == list(scalar)
        # Generous bound: the speedup is ~20x in isolation, but CI boxes
        # under load should still comfortably clear 2x.
        assert bulk_time < scalar_time / 2
