"""Differential testing across the four counter backends.

The array, compact (String-Array Index), stream (coded stream) and numpy
backends implement one contract with very different mechanisms — plain
list ops vs. bit-packed variable-width fields vs. prefix-free decode
chains vs. a fixed-width array that widens its dtype.  These tests drive
*identical* seeded workloads through all of them and demand
counter-for-counter equality, so any divergence in ``add`` / ``set`` /
``add_clamped`` semantics (clamping, width growth, chunk rebuilds)
surfaces as a concrete failing counter index.

Also pins the configuration-preservation fix: filters derived through
``union`` / ``_spawn_like`` (and Recurring Minimum's secondary) keep the
live backend's constructor options instead of reverting to defaults.
"""

import random

import numpy as np
import pytest

from repro.core.sbf import SpectralBloomFilter
from repro.storage.backends import (
    ArrayBackend,
    CompactBackend,
    NumpyBackend,
    StreamBackend,
)

M, K = 256, 3

#: (backend name, backend_options) — deliberately non-default options so
#: "options dropped somewhere" cannot pass by accident.
BACKENDS = [
    ("array", {}),
    ("compact", {"chunk_slack": 2, "group_slack": 8}),
    ("stream", {"codec": "steps"}),
    ("numpy", {}),
]

KEYS = [f"key-{i}" for i in range(48)]


def build(method, backend, options):
    return SpectralBloomFilter(M, K, method=method, seed=13,
                               backend=backend, backend_options=options)


def seeded_ops(seed, n_ops, allow_overdelete, scale=1):
    """A deterministic mixed insert/delete schedule.

    Tracks true multiplicities so that, unless *allow_overdelete*, every
    delete removes only what was inserted (the MS/RM precondition).
    Insert and overdelete counts are multiplied by *scale*.
    """
    rng = random.Random(seed)
    truth: dict[str, int] = {}
    ops = []
    for _ in range(n_ops):
        key = rng.choice(KEYS)
        if rng.random() < 0.35 and (allow_overdelete or truth.get(key, 0)):
            if allow_overdelete:
                count = rng.randint(1, 4) * scale
            else:
                count = rng.randint(1, truth[key])
            truth[key] = max(0, truth.get(key, 0) - count)
            ops.append(("delete", key, count))
        else:
            count = rng.randint(1, 5) * scale
            truth[key] = truth.get(key, 0) + count
            ops.append(("insert", key, count))
    return ops


def drive(sbf, ops):
    for op, key, count in ops:
        getattr(sbf, op)(key, count)
    return sbf


def drive_every_backend(method, ops) -> dict:
    """Run *ops* on one filter per backend; every backend must end with
    the array backend's counters, total, audit and answers."""
    filters = {name: drive(build(method, name, opts), ops)
               for name, opts in BACKENDS}
    reference = filters["array"]
    for name, sbf in filters.items():
        assert sbf.counters.to_list() == reference.counters.to_list(), (
            f"{name} backend diverged from array under method={method}")
        assert sbf.total_count == reference.total_count
        assert sbf.check_integrity() == reference.check_integrity()
        for key in KEYS:
            assert sbf.query(key) == reference.query(key), (
                f"{name} query({key!r}) diverged under method={method}")
    return filters


class TestBackendEquivalence:
    @pytest.mark.parametrize("method", ["ms", "mi", "rm"])
    def test_identical_workloads_identical_counters(self, method):
        # MI deletes clamp at zero (the add_clamped path), so feed it
        # overdeletes on purpose; MS/RM require legal deletes.
        filters = drive_every_backend(method, seeded_ops(
            seed=99, n_ops=400, allow_overdelete=(method == "mi")))
        assert filters["array"].check_integrity() == []

    @pytest.mark.parametrize("method", ["ms", "mi", "rm"])
    def test_counters_past_16_bits_widen_identically(self, method):
        # Counts in the tens of thousands carry counters past 255 and
        # 65535, so the numpy backend's scalar add / set / add_clamped
        # run across both dtype widenings.  (MI's clamped overdeletes may
        # break its k*N bound; every backend must then report the same.)
        filters = drive_every_backend(method, seeded_ops(
            seed=21, n_ops=200, allow_overdelete=(method == "mi"),
            scale=20_000))
        assert max(filters["array"].counters) > 65535
        assert filters["numpy"].counters.raw.dtype == np.uint32

    def test_add_clamped_single_touch_matches_generic(self):
        """The overridden single-touch add_clamped implementations agree
        with the base get+set round trip on every (value, delta) edge."""
        cases = [(0, -1), (0, 3), (1, -1), (1, -5), (7, -7), (7, -8),
                 (7, 1), (255, 1), (256, -200), (300, -300), (5, 0)]
        for start, delta in cases:
            expected = max(0, start + delta)
            for cls, kwargs in [(ArrayBackend, {}),
                                (CompactBackend, {"chunk_slack": 2}),
                                (StreamBackend, {"codec": "steps"}),
                                (NumpyBackend, {})]:
                backend = cls(8, **kwargs)
                backend.set(3, start)
                returned = backend.add_clamped(3, delta)
                assert returned == expected, (
                    f"{cls.__name__}.add_clamped({start}, {delta})")
                assert backend.get(3) == expected
                # Neighbours untouched (the single-touch paths edit
                # variable-width fields in place).
                assert [backend.get(i) for i in range(8) if i != 3] \
                    == [0] * 7

    def test_union_differential(self):
        left_ops = seeded_ops(seed=5, n_ops=150, allow_overdelete=False)
        right_ops = seeded_ops(seed=6, n_ops=150, allow_overdelete=False)
        merged = {}
        for name, opts in BACKENDS:
            left = drive(build("ms", name, opts), left_ops)
            right = drive(build("ms", name, opts), right_ops)
            union = left.union(right)
            assert union.check_integrity() == []
            merged[name] = union.counters.to_list()
        for name in merged:
            assert merged[name] == merged["array"], name


class TestConfigurationPreservation:
    """The satellite fix: derived filters must keep backend options."""

    @pytest.mark.parametrize("name,opts", BACKENDS[1:])
    def test_union_preserves_backend_and_options(self, name, opts):
        left = build("ms", name, opts)
        right = build("ms", name, opts)
        left.insert("x", 2)
        right.insert("y", 3)
        union = left.union(right)
        assert type(union.counters) is type(left.counters)
        assert union.counters.options() == left.counters.options()
        for option, value in opts.items():
            assert union.counters.options()[option] == value
        assert union.query("x") >= 2 and union.query("y") >= 3

    def test_stream_union_keeps_codec(self):
        left = build("ms", "stream", {"codec": "steps"})
        right = build("ms", "stream", {"codec": "steps"})
        union = left.union(right)
        assert union.counters.options()["codec"] == "steps"

    def test_spawn_like_round_trips_options(self):
        for name, opts in BACKENDS:
            sbf = build("ms", name, opts)
            spawn = sbf._spawn_like()
            assert type(spawn.counters) is type(sbf.counters)
            assert spawn.counters.options() == sbf.counters.options()

    def test_rm_secondary_inherits_backend_options(self):
        sbf = build("rm", "stream", {"codec": "steps"})
        secondary = sbf.method.secondary
        assert type(secondary.counters) is StreamBackend
        assert secondary.counters.options()["codec"] == "steps"

    def test_already_constructed_backend_rejects_options(self):
        backend = ArrayBackend(M)
        with pytest.raises(ValueError):
            SpectralBloomFilter(M, K, backend=backend,
                                backend_options={"chunk_slack": 2})
