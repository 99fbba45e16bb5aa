"""Tests for key canonicalisation and the hash-function families."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.hashing import (
    BlockedHashFamily,
    DoubleHashingFamily,
    ModuloMultiplyFamily,
    MultiplyShiftFamily,
    TabulationFamily,
    canonical_key,
    make_family,
)
from repro.hashing.keys import check_key, check_keys

ALL_FAMILIES = [ModuloMultiplyFamily, MultiplyShiftFamily,
                TabulationFamily, DoubleHashingFamily]


class TestCanonicalKey:
    def test_deterministic(self):
        assert canonical_key("hello") == canonical_key("hello")
        assert canonical_key(42) == canonical_key(42)

    def test_types_do_not_collide_trivially(self):
        assert canonical_key("1") != canonical_key(1)
        assert canonical_key(b"1") != canonical_key("1")

    def test_small_ints_are_distinct(self):
        outputs = {canonical_key(i) for i in range(10_000)}
        assert len(outputs) == 10_000

    def test_bool_and_none(self):
        assert canonical_key(True) == canonical_key(1)
        assert isinstance(canonical_key(None), int)

    def test_tuples(self):
        assert canonical_key((1, "a")) == canonical_key((1, "a"))
        assert canonical_key((1, "a")) != canonical_key(("a", 1))

    def test_nested_tuples(self):
        assert canonical_key(((1, 2), 3)) != canonical_key((1, (2, 3)))

    def test_floats(self):
        assert canonical_key(1.5) == canonical_key(1.5)
        assert canonical_key(1.5) != canonical_key(2.5)

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            canonical_key([1, 2])

    @given(st.integers())
    def test_output_is_64_bit(self, x):
        out = canonical_key(x)
        assert 0 <= out < 2**64


class TestKeyRule:
    @pytest.mark.parametrize("key", [0, -5, 2 ** 70, "a", "ü", 1.5, True,
                                     None])
    def test_json_scalars_pass_as_they_are(self, key):
        assert check_key(key) is key

    def test_numpy_scalars_pass_as_their_values(self):
        for value, want in ((np.int64(5), 5), (np.uint64(2 ** 63), 2 ** 63),
                            (np.float32(1.5), 1.5), (np.bool_(True), True),
                            (np.str_("a"), "a")):
            got = check_key(value)
            assert got == want and type(got) is type(want)

    @pytest.mark.parametrize("key,error", [
        (b"x", TypeError), ((1, 2), TypeError), ([1], TypeError),
        ({"a": 1}, TypeError), ("a\ud800", ValueError),
        (np.bytes_(b"x"), TypeError), (object(), TypeError)])
    def test_refusals_and_their_types(self, key, error):
        with pytest.raises(error) as caught:
            check_key(key)
        assert type(caught.value) is error
        with pytest.raises(error):              # a batch is refused whole
            check_keys(["ok", 1, key])

    def test_batches(self):
        ints = check_keys([3, -1, 2 ** 40, np.int64(7)])
        assert ints.dtype == np.int64 and ints.tolist() == [3, -1, 2 ** 40, 7]
        arange = np.arange(5)
        assert check_keys(arange) is arange     # converted once, upstream
        assert check_keys(np.arange(4, dtype=np.uint8)).dtype == np.int64
        assert check_keys(np.array([2 ** 63, 7], dtype=np.uint64)) \
            == [2 ** 63, 7]                     # past int64: Python ints
        assert check_keys(["a", 1, None, 2.5]) == ["a", 1, None, 2.5]
        assert check_keys((np.str_("a"), np.int64(2), "b")) == ["a", 2, "b"]
        assert check_keys(np.array(["x", "y"])) == ["x", "y"]
        with pytest.raises(TypeError, match="list, tuple"):
            check_keys(iter([1]))
        with pytest.raises(TypeError):
            check_keys(np.array([[1, 2]]))


class TestFamilies:
    @pytest.mark.parametrize("cls", ALL_FAMILIES)
    def test_indices_in_range(self, cls):
        fam = cls(m=97, k=5, seed=7)
        for key in ["a", "b", 1, 2, (3, "x"), b"bytes"]:
            idx = fam.indices(key)
            assert len(idx) == 5
            assert all(0 <= i < 97 for i in idx)

    @pytest.mark.parametrize("cls", ALL_FAMILIES)
    def test_deterministic_per_seed(self, cls):
        a = cls(m=101, k=3, seed=11)
        b = cls(m=101, k=3, seed=11)
        c = cls(m=101, k=3, seed=12)
        assert a.indices("key") == b.indices("key")
        assert any(a.indices(f"key{i}") != c.indices(f"key{i}")
                   for i in range(20))

    @pytest.mark.parametrize("cls", ALL_FAMILIES)
    def test_distribution_is_roughly_uniform(self, cls):
        """Chi-square style sanity check: bucket loads near expectation."""
        m, k, n = 64, 1, 20_000
        fam = cls(m=m, k=k, seed=3)
        loads = [0] * m
        for key in range(n):
            loads[fam.indices(key)[0]] += 1
        expected = n / m
        assert all(0.5 * expected < load < 1.5 * expected for load in loads)

    @pytest.mark.parametrize("cls", ALL_FAMILIES)
    def test_invalid_parameters(self, cls):
        with pytest.raises(ValueError):
            cls(m=0, k=5)
        with pytest.raises(ValueError):
            cls(m=10, k=0)

    def test_compatibility(self):
        a = ModuloMultiplyFamily(m=50, k=4, seed=1)
        b = ModuloMultiplyFamily(m=50, k=4, seed=1)
        c = ModuloMultiplyFamily(m=50, k=4, seed=2)
        d = MultiplyShiftFamily(m=50, k=4, seed=1)
        assert a.is_compatible(b)
        assert not a.is_compatible(c)
        assert not a.is_compatible(d)

    def test_spawn_changes_size_keeps_seed(self):
        a = ModuloMultiplyFamily(m=50, k=4, seed=9)
        b = a.spawn(m=25)
        assert b.m == 25 and b.k == 4 and b.seed == 9

    def test_m_of_one_always_maps_to_zero(self):
        fam = ModuloMultiplyFamily(m=1, k=3, seed=0)
        assert fam.indices("anything") == (0, 0, 0)

    def test_double_hashing_probes_distinct_for_prime_m(self):
        fam = DoubleHashingFamily(m=101, k=5, seed=0)
        for key in range(200):
            idx = fam.indices(key)
            assert len(set(idx)) == 5


class TestMakeFamily:
    def test_by_name(self):
        fam = make_family("modmul", 100, 5, seed=1)
        assert isinstance(fam, ModuloMultiplyFamily)

    def test_by_class(self):
        fam = make_family(TabulationFamily, 100, 5, seed=1)
        assert isinstance(fam, TabulationFamily)

    def test_instance_passthrough(self):
        original = MultiplyShiftFamily(100, 5, seed=1)
        assert make_family(original, 100, 5) is original

    def test_instance_size_mismatch_raises(self):
        original = MultiplyShiftFamily(100, 5, seed=1)
        with pytest.raises(ValueError):
            make_family(original, 99, 5)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_family("nope", 10, 2)


# ----------------------------------------------------------------------
# golden positions: every WAL record and snapshot addresses its counters
# through these values, so no rewrite of the scalar hash may move one
# ----------------------------------------------------------------------
GOLDEN_KEYS = [0, 1, -1, -(2 ** 63), 2 ** 63, 2 ** 64 - 1, 2 ** 64 + 5,
               12345678901234, True, None, "user:42", "", b"\x00\xff", 3.5,
               ("a", (1, None), b"x")]

GOLDEN_CANONICAL = [
    16294208416658607535, 10451216379200822465, 16490336266968443936,
    5196802822362493915, 5196802822362493915, 16490336266968443936,
    7134611160154358618, 11436527108125952656, 10451216379200822465,
    13013184759947573853, 3924167688731281808, 16027976456189790694,
    17060760031252185799, 16015823956660004921, 2980627500448114468]

#: (family name, m, block_size) -> positions of GOLDEN_KEYS at k=3, seed=7
GOLDEN_INDICES = {
    ("modmul", 1000, None): [
        (467, 132, 499), (8, 567, 767), (380, 885, 180), (402, 72, 749),
        (402, 72, 749), (380, 885, 180), (273, 42, 695), (533, 731, 890),
        (8, 567, 767), (136, 480, 567), (751, 883, 889), (505, 569, 743),
        (124, 595, 651), (227, 575, 524), (639, 918, 871)],
    ("multiply-shift", 1000, None): [
        (486, 826, 904), (353, 823, 722), (667, 362, 605), (640, 987, 11),
        (640, 987, 11), (667, 362, 605), (161, 720, 905), (910, 375, 135),
        (353, 823, 722), (571, 211, 873), (726, 780, 846), (875, 791, 973),
        (444, 812, 942), (587, 474, 968), (550, 418, 970)],
    ("tabulation", 1000, None): [
        (697, 862, 22), (224, 132, 721), (354, 101, 744), (66, 863, 160),
        (66, 863, 160), (354, 101, 744), (335, 487, 610), (847, 172, 624),
        (224, 132, 721), (863, 556, 468), (201, 672, 947), (898, 542, 558),
        (497, 205, 491), (856, 768, 243), (449, 329, 226)],
    ("double", 1000, None): [
        (544, 682, 820), (753, 830, 907), (733, 494, 255), (787, 282, 777),
        (787, 282, 777), (733, 494, 255), (680, 378, 76), (108, 444, 780),
        (753, 830, 907), (172, 781, 390), (122, 152, 182), (250, 548, 846),
        (942, 289, 636), (418, 896, 374), (745, 731, 717)],
    ("blocked", 1000, None): [
        (945, 950, 943), (527, 529, 527), (923, 914, 923), (704, 707, 713),
        (704, 707, 713), (923, 914, 923), (166, 166, 176), (307, 301, 306),
        (527, 529, 527), (761, 765, 769), (240, 250, 246), (187, 182, 190),
        (435, 444, 441), (77, 80, 74), (208, 216, 215)],
    # 16 blocks of 62 or 63 counters: the ragged layout
    ("blocked", 1000, 64): [
        (317, 343, 327), (300, 259, 270), (160, 151, 125), (799, 754, 772),
        (799, 754, 772), (160, 151, 125), (996, 987, 964), (65, 116, 109),
        (300, 259, 270), (679, 627, 668), (264, 299, 292), (34, 3, 14),
        (562, 568, 601), (238, 217, 226), (386, 379, 435)],
    ("blocked", 1, None): [(0, 0, 0)] * len(GOLDEN_KEYS),
    ("modmul", 1, None): [(0, 0, 0)] * len(GOLDEN_KEYS),
}


@pytest.mark.parametrize("name,m,block_size", sorted(
    GOLDEN_INDICES, key=repr))
def test_golden_positions(name, m, block_size):
    """``canonical_key`` and ``indices`` equal literals recorded before
    the scalar hash was fused into one step."""
    if block_size is None:
        family = make_family(name, m, 3, seed=7)
    else:
        family = BlockedHashFamily(m, 3, seed=7, block_size=block_size)
    assert [canonical_key(key) for key in GOLDEN_KEYS] == GOLDEN_CANONICAL
    assert [tuple(family.indices(key)) for key in GOLDEN_KEYS] \
        == GOLDEN_INDICES[name, m, block_size]
    assert [tuple(family.indices_hashed(value))
            for value in GOLDEN_CANONICAL] \
        == GOLDEN_INDICES[name, m, block_size]
