"""Tests for the wire formats (§4.7.1 contiguous-memory transmission)."""

import random

import pytest

from repro import BloomFilter, SpectralBloomFilter
from repro.core.serialize import dump_bloom, dump_sbf, load_bloom, load_sbf
from repro.succinct.serialize import dump_string_array, load_string_array
from repro.succinct.string_array import StringArrayIndex


class TestStringArraySerialization:
    def test_roundtrip_values(self):
        values = [0, 1, 5, 1000, 3, 2**40, 0, 77]
        blob = dump_string_array(StringArrayIndex(values))
        assert load_string_array(blob).to_list() == values

    def test_roundtrip_after_updates(self):
        sai = StringArrayIndex([0] * 50)
        rng = random.Random(1)
        for _ in range(500):
            sai.increment(rng.randrange(50), rng.randrange(1, 20))
        restored = load_string_array(dump_string_array(sai))
        assert restored.to_list() == sai.to_list()

    def test_blob_is_compact(self):
        """The wire format ships ~N bits + widths, not the full index."""
        sai = StringArrayIndex([1] * 1000)
        blob = dump_string_array(sai)
        assert len(blob) * 8 < sai.total_bits() * 1.5

    def test_restored_structure_is_updatable(self):
        sai = load_string_array(dump_string_array(StringArrayIndex([5, 6])))
        sai.increment(0, 100)
        assert sai.get(0) == 105

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            load_string_array(b"XXXX" + b"\0" * 32)

    def test_truncated_rejected(self):
        blob = dump_string_array(StringArrayIndex([2**30] * 8))
        with pytest.raises(ValueError):
            load_string_array(blob[:-4])

    def test_every_bit_flip_rejected(self):
        """The §4.7.1 message detects corruption like every other frame."""
        blob = dump_string_array(StringArrayIndex([0, 3, 1, 9, 2, 0, 40, 5]))
        for bit in range(8 * len(blob)):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(ValueError):
                load_string_array(bytes(flipped))

    @pytest.mark.parametrize("header", [
        {"m": -1, "g1": 4, "width_bits": 8},
        {"m": 2, "g1": 0, "width_bits": 8},
        {"m": 2, "g1": 4, "width_bits": 64},
        {"m": 9, "g1": 4, "width_bits": 8},
        {"m": True, "g1": 4, "width_bits": 8},
        {"m": 2, "g1": "4", "width_bits": 8},
        {"g1": 4, "width_bits": 8},
    ], ids=["negative-m", "zero-g1", "widths-past-payload",
            "m-past-widths", "bool-m", "str-g1", "missing-m"])
    def test_out_of_range_header_rejected(self, header):
        from repro.core.serialize import WireFormatError, seal_frame
        # A well-sealed frame whose header lies: refused, never decoded.
        with pytest.raises(WireFormatError):
            load_string_array(seal_frame(b"SAI1", header, b"\xff\x00"))


class TestBloomSerialization:
    def test_roundtrip_membership(self):
        bf = BloomFilter(512, 4, seed=3)
        bf.update(f"key{i}" for i in range(100))
        restored = load_bloom(dump_bloom(bf))
        assert all(f"key{i}" in restored for i in range(100))
        assert restored.n_added == 100
        assert restored.family.is_compatible(bf.family)

    def test_roundtrip_preserves_bits_exactly(self):
        bf = BloomFilter(300, 3, seed=4, hash_family="tabulation")
        bf.update(range(50))
        restored = load_bloom(dump_bloom(bf))
        for i in range(300):
            assert restored.bits.get_bit(i) == bf.bits.get_bit(i)

    def test_bad_blob(self):
        with pytest.raises(ValueError):
            load_bloom(b"nope")
        blob = dump_bloom(BloomFilter(128, 2))
        with pytest.raises(ValueError):
            load_bloom(blob[:-8])


class TestSbfSerialization:
    @pytest.mark.parametrize("method", ["ms", "mi", "rm"])
    def test_roundtrip_estimates(self, method):
        sbf = SpectralBloomFilter(800, 4, method=method, seed=5)
        rng = random.Random(5)
        keys = [rng.randrange(200) for _ in range(2000)]
        for x in keys:
            sbf.insert(x)
        restored = load_sbf(dump_sbf(sbf))
        for x in range(200):
            assert restored.query(x) == sbf.query(x)
        assert restored.total_count == sbf.total_count

    def test_restored_filter_is_usable(self):
        sbf = SpectralBloomFilter(400, 3, seed=6)
        sbf.insert("x", 5)
        restored = load_sbf(dump_sbf(sbf))
        restored.insert("x", 2)
        restored.delete("x", 1)
        assert restored.query("x") == 6

    def test_restored_filter_is_compatible_for_algebra(self):
        """The Bloomjoin use-case: ship, multiply on arrival."""
        a = SpectralBloomFilter(600, 4, seed=7)
        b = SpectralBloomFilter(600, 4, seed=7)
        a.update({"j1": 2, "j2": 3})
        b.update({"j1": 4, "zz": 1})
        shipped = load_sbf(dump_sbf(b))
        product = a * shipped
        assert product.query("j1") >= 8
        assert product.query("zz") == 0

    def test_rm_ships_secondary_and_marker(self):
        sbf = SpectralBloomFilter(500, 4, method="rm", seed=8)
        for x in range(300):
            sbf.insert(x)
        restored = load_sbf(dump_sbf(sbf))
        assert restored.method.secondary.total_count == \
            sbf.method.secondary.total_count
        for x in range(300):
            assert restored.query(x) == sbf.query(x)

    def test_trm_degrades_to_rm(self):
        sbf = SpectralBloomFilter(500, 4, method="trm", seed=9)
        for x in range(200):
            sbf.insert(x, 2)
        restored = load_sbf(dump_sbf(sbf))
        assert restored.method.name == "rm"
        # Estimates survive the TRM -> RM degradation exactly (traps are
        # transient state, not represented multiset content).
        for x in range(200):
            assert restored.query(x) == sbf.query(x)

    def test_compact_backend_roundtrips_to_array(self):
        """The wire format is backend-independent."""
        sbf = SpectralBloomFilter(256, 3, seed=10, backend="compact")
        sbf.update({"a": 9, "b": 1})
        restored = load_sbf(dump_sbf(sbf))
        assert restored.query("a") == sbf.query("a")

    def test_wire_size_tracks_content(self):
        small = SpectralBloomFilter(1000, 4, seed=11)
        big = SpectralBloomFilter(1000, 4, seed=11)
        big.update({i: 50 for i in range(200)})
        assert len(dump_sbf(big)) > len(dump_sbf(small))

    def test_bad_blob(self):
        with pytest.raises(ValueError):
            load_sbf(b"garbage")
