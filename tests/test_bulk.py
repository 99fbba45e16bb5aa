"""Differential sweep: bulk operations are bit-identical to scalar ones.

The bulk API's contract (DESIGN.md §8) is strict: for every method,
backend, and hash family, ``insert_many`` / ``delete_many`` / ``query_many``
must leave the filter in **exactly** the state the equivalent scalar loop
produces — counters, total counts, the Recurring Minimum secondary and
marker, even the trapping refinement's trap table.  These tests drive a
seeded mixed-type workload through both paths and compare full state.

The sweep is the safety net for the kernels' exactness arguments
(``repro/core/kernels.py`` module docstring): conflict-free segmentation
for Minimal Increase, aggregated scatters for Minimum Selection, and the
marker-time reconstruction for Recurring Minimum.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.kernels import observed_add_kernel, sequential_observed
from repro.core.sbf import SpectralBloomFilter
from repro.storage.backends import NumpyBackend

METHODS = ["ms", "mi", "rm", "trm"]
BACKENDS = ["array", "numpy", "compact", "stream"]
FAMILIES = ["modmul", "multiply-shift", "tabulation", "double", "blocked"]

M, K = 512, 4


def mixed_keys(rng: random.Random, n: int) -> list:
    """Ints (vectorised hash path), strings and bytes (digest path)."""
    keys = []
    for _ in range(n):
        r = rng.random()
        if r < 0.45:
            keys.append(rng.randrange(1 << 44))
        elif r < 0.60:
            keys.append(-rng.randrange(1 << 20))      # negative ints
        elif r < 0.85:
            keys.append(f"key-{rng.randrange(400)}")
        else:
            keys.append(bytes([rng.randrange(256)]))
    # Force duplicates so MI segmentation and RM recurrence trigger.
    keys.extend(rng.choices(keys, k=n // 2))
    rng.shuffle(keys)
    return keys


def full_state(sbf: SpectralBloomFilter) -> list:
    """Everything observable: counters, totals, RM/TRM side structures."""
    state = [list(sbf.counters), sbf.total_count]
    method = sbf.method
    if getattr(method, "secondary", None) is not None:
        state.append(list(method.secondary.counters))
        state.append(method.secondary.total_count)
    if getattr(method, "marker", None) is not None:
        state.append(list(method.marker.bits._words))
        state.append(method.marker.n_added)
    if hasattr(method, "_traps"):
        state.append({i: (t.owner, t.budget)
                      for i, t in method._traps.items()})
        state.append(method.trap_fires)
    return state


def build_pair(method, backend, family, seed=3):
    make = lambda: SpectralBloomFilter(M, K, method=method, backend=backend,
                                       hash_family=family, seed=seed)
    return make(), make()


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_bulk_equals_scalar_across_backends(method, backend):
    assert_bulk_equals_scalar(method, backend,
                              random.Random(hash((method, backend)) & 0xFFFF))


def assert_bulk_equals_scalar(method, backend, rng):
    scalar, bulk = build_pair(method, backend, "modmul")
    keys = mixed_keys(rng, 400)
    counts = [rng.randrange(1, 6) for _ in keys]
    for key, count in zip(keys, counts):
        scalar.insert(key, count)
    bulk.insert_many(keys, counts)
    assert full_state(scalar) == full_state(bulk)

    probes = keys[:200] + ["never", -99999, b"\xff"]
    assert [scalar.query(p) for p in probes] \
        == bulk.query_many(probes).tolist()

    deletions = keys[::3]
    for key in deletions:
        scalar.delete(key, 1)
    bulk.delete_many(deletions)
    assert full_state(scalar) == full_state(bulk)


@pytest.mark.parametrize("method,backend,seed", [
    ("rm", "array", 16447), ("trm", "compact", 49312),
    ("trm", "stream", 1789)])
def test_deletes_cover_a_counter_repeated_among_the_k(method, backend, seed):
    # Each seed draws a key whose secondary-filter positions repeat a
    # counter holding less than count x its multiplicity: the guard must
    # skip that shadow decrement, scalar and bulk alike.
    assert_bulk_equals_scalar(method, backend, random.Random(seed))


def test_refused_delete_of_a_key_with_a_repeated_position_changes_nothing():
    sbf = SpectralBloomFilter(64, 3, method="ms", backend="array", seed=5)
    key = next(k for k in range(10_000)
               if len(set(sbf.indices(k))) == 2)
    twice = max(set(sbf.indices(key)), key=sbf.indices(key).count)
    once = next(i for i in sbf.indices(key) if i != twice)
    other = next(k for k in range(10_000, 20_000)
                 if once in sbf.indices(k) and twice not in sbf.indices(k))
    sbf.insert(key)
    sbf.insert(other)
    # Every counter of `key` holds >= 2, but the repeated one holds 2 and
    # deleting 2 would lower it by 4.
    assert sbf.min_counter(key) == 2 and sbf.counters.get(twice) == 2
    before = full_state(sbf)
    with pytest.raises(ValueError, match="negative"):
        sbf.delete(key, 2)
    with pytest.raises(ValueError, match="negative"):
        sbf.delete_many([key], [2])
    assert full_state(sbf) == before and sbf.check_integrity() == []
    sbf.delete(key, 1)
    assert sbf.query(key) == 0 and sbf.check_integrity() == []


@pytest.mark.parametrize("family", FAMILIES)
def test_bulk_equals_scalar_across_hash_families(family):
    rng = random.Random(hash(family) & 0xFFFF)
    for method in ("ms", "mi", "rm"):
        scalar, bulk = build_pair(method, "numpy", family)
        keys = mixed_keys(rng, 300)
        for key in keys:
            scalar.insert(key)
        bulk.insert_many(keys)
        assert full_state(scalar) == full_state(bulk), (method, family)
        probes = list(dict.fromkeys(keys))[:150]
        assert [scalar.query(p) for p in probes] \
            == bulk.query_many(probes).tolist(), (method, family)


def test_numpy_array_keys_and_broadcast_counts():
    scalar, bulk = build_pair("ms", "numpy", "modmul")
    keys = np.arange(500, dtype=np.int64) % 97
    bulk.insert_many(keys, 3)
    for key in keys.tolist():
        scalar.insert(key, 3)
    assert full_state(scalar) == full_state(bulk)
    assert bulk.query_many(np.arange(10)).tolist() \
        == [scalar.query(i) for i in range(10)]


def test_counts_validation():
    sbf = SpectralBloomFilter(M, K, method="ms", backend="numpy", seed=1)
    with pytest.raises(ValueError, match="count must be >= 0"):
        sbf.insert_many([1, 2], [1, -1])
    with pytest.raises(ValueError, match="expected 2 counts"):
        sbf.insert_many([1, 2], [1, 2, 3])
    sbf.insert_many([], [])
    assert sbf.total_count == 0
    assert sbf.query_many([]).tolist() == []


def test_zero_counts_are_skipped_like_scalar():
    scalar, bulk = build_pair("rm", "numpy", "modmul")
    keys = ["a", "b", "c", "a"]
    counts = [2, 0, 1, 0]
    for key, count in zip(keys, counts):
        scalar.insert(key, count)
    bulk.insert_many(keys, counts)
    assert full_state(scalar) == full_state(bulk)


def test_bulk_delete_underflow_matches_scalar():
    scalar, bulk = build_pair("ms", "numpy", "modmul")
    scalar.insert("x", 2)
    bulk.insert_many(["x"], [2])
    with pytest.raises(ValueError):
        scalar.delete("x", 5)
    with pytest.raises(ValueError):
        bulk.delete_many(["x"], [5])
    # All-or-nothing on array backends: the failed batch changed nothing.
    assert full_state(scalar) == full_state(bulk)


def test_update_and_from_counts_route_through_bulk():
    scalar = SpectralBloomFilter(M, K, method="ms", backend="numpy", seed=2)
    histogram = {f"item-{i}": (i % 5) + 1 for i in range(200)}
    for key, count in histogram.items():
        scalar.insert(key, count)
    via_update = SpectralBloomFilter(M, K, method="ms", backend="numpy",
                                     seed=2)
    via_update.update(histogram)
    assert full_state(scalar) == full_state(via_update)
    via_counts = SpectralBloomFilter.from_counts(
        histogram, method="ms", backend="numpy", seed=2)
    sized = SpectralBloomFilter.for_items(len(histogram), method="ms",
                                          backend="numpy", seed=2)
    for key, count in histogram.items():
        sized.insert(key, count)
    assert list(sized.counters) == list(via_counts.counters)


@pytest.mark.parametrize("backend", BACKENDS)
def test_rm_interleaved_batches_full_state_sweep(backend):
    """The vectorised RM path under its hardest workload: heavy recurrence.

    Several rounds of interleaved bulk inserts and deletes on a small key
    universe (so almost every key becomes a recurring minimum), checking
    the *entire* observable state after every round — primary counters,
    secondary MS counters and total, marker bit words and ``n_added``.
    """
    rng = random.Random(hash(backend) & 0xFFFF)
    scalar, bulk = build_pair("rm", backend, "modmul", seed=7)
    universe = [rng.randrange(60) for _ in range(30)] \
        + [f"hot-{i}" for i in range(20)] + [b"a", b"b", None, True, 2.5]
    for round_no in range(4):
        keys = rng.choices(universe, k=300)
        counts = [rng.randrange(1, 5) for _ in keys]
        for key, count in zip(keys, counts):
            scalar.insert(key, count)
        bulk.insert_many(keys, counts)
        assert full_state(scalar) == full_state(bulk), (backend, round_no)
        deletions = keys[:: 2 + round_no]
        for key in deletions:
            scalar.delete(key, 1)
        bulk.delete_many(deletions)
        assert full_state(scalar) == full_state(bulk), (backend, round_no)
        probes = universe + [f"cold-{i}" for i in range(25)]
        assert [scalar.query(p) for p in probes] \
            == bulk.query_many(probes).tolist(), (backend, round_no)
    marker = bulk.method.marker
    assert marker.n_added > 0          # recurrence actually triggered
    assert any(marker.bits.get_bit(i) for i in range(marker.bits.nbits))


_ROWS = st.integers(0, 24)
_K = st.integers(1, 5)
_M = st.integers(4, 48)


@settings(max_examples=120, deadline=None)
@given(st.data(), _ROWS, _K, _M, st.sampled_from([1, -1]))
def test_observed_add_kernel_matches_scalar_stream(data, n, k, m, sign):
    """Property: the one-sort RM preamble IS the scalar add stream.

    For random position matrices (duplicates within and across rows) the
    kernel's observed matrix must equal, entry for entry, what sequential
    ``counters.add(pos, sign * count)`` calls return in row-major stream
    order — and leave the counter array in the identical final state.
    """
    matrix = np.array(
        data.draw(st.lists(
            st.lists(st.integers(0, m - 1), min_size=k, max_size=k),
            min_size=n, max_size=n)),
        dtype=np.int64).reshape(n, k)
    counts = np.array(
        data.draw(st.lists(st.integers(1, 7), min_size=n, max_size=n)),
        dtype=np.int64)
    prefill = int(counts.sum()) * k + 1 if sign < 0 else 0

    kernel = NumpyBackend(m, dtype=np.uint64)
    ref = NumpyBackend(m, dtype=np.uint64)
    if prefill:
        for i in range(m):
            kernel.set(i, prefill)
            ref.set(i, prefill)

    got = observed_add_kernel(kernel, matrix, counts, sign=sign)
    want = np.empty((n, k), dtype=np.int64)
    for j in range(n):
        for l in range(k):
            want[j, l] = ref.add(int(matrix[j, l]), sign * int(counts[j]))
    assert got.tolist() == want.tolist()
    assert list(kernel) == list(ref)


@settings(max_examples=120, deadline=None)
@given(st.data(), _ROWS, _K, _M)
def test_sequential_observed_matches_simulation(data, n, k, m):
    """Property: segment-grouped running sums == a literal replay.

    Mixed-sign per-entry deltas force the group-id gather fallback; the
    replay applies each delta to a dict in stream order and records the
    post-add value, which is the function's contract.
    """
    flat = np.array(
        data.draw(st.lists(st.integers(0, m - 1),
                           min_size=n * k, max_size=n * k)),
        dtype=np.int64)
    deltas = np.array(
        data.draw(st.lists(st.integers(-6, 6),
                           min_size=n * k, max_size=n * k)),
        dtype=np.int64)
    start = np.array(
        data.draw(st.lists(st.integers(0, 50),
                           min_size=n * k, max_size=n * k)),
        dtype=np.int64)
    # start must be consistent per counter (it is one gather in the
    # caller): collapse to the first drawn value for each position.
    first = {}
    for i, pos in enumerate(flat.tolist()):
        first.setdefault(pos, int(start[i]))
        start[i] = first[pos]

    got = sequential_observed(flat, deltas, start, n, k)
    state = dict(first)
    want = []
    for pos, delta in zip(flat.tolist(), deltas.tolist()):
        state[pos] += int(delta)
        want.append(state[pos])
    assert got.ravel().tolist() == want


def test_rm_without_marker_falls_back_exactly():
    make = lambda: SpectralBloomFilter(
        M, K, method="rm", backend="numpy", seed=4,
        method_options={"use_marker": False})
    scalar, bulk = make(), make()
    rng = random.Random(5)
    keys = mixed_keys(rng, 250)
    for key in keys:
        scalar.insert(key)
    bulk.insert_many(keys)
    assert full_state(scalar) == full_state(bulk)
    probes = list(dict.fromkeys(keys))[:100]
    assert [scalar.query(p) for p in probes] \
        == bulk.query_many(probes).tolist()
