"""Tests for the relational / distributed substrate."""

import pytest

from repro.db.relation import Relation
from repro.db.site import Network, tuple_bits, two_sites


class TestRelation:
    def make(self):
        return Relation("R", ("a", "b"),
                        [(1, "x"), (2, "y"), (1, "z"), (3, "x")])

    def test_schema_validation(self):
        with pytest.raises(ValueError):
            Relation("R", ())
        with pytest.raises(ValueError):
            Relation("R", ("a", "a"))
        r = self.make()
        with pytest.raises(ValueError):
            r.append((1,))
        with pytest.raises(KeyError):
            r.column_position("missing")

    def test_scan_and_len(self):
        r = self.make()
        assert len(r) == 4
        assert list(r.scan("a")) == [1, 2, 1, 3]

    def test_where(self):
        r = self.make()
        sel = r.where(lambda row: row[0] == 1)
        assert len(sel) == 2
        assert all(row[0] == 1 for row in sel)

    def test_project_bag_semantics(self):
        r = self.make()
        proj = r.project(["b"])
        assert list(proj.scan("b")) == ["x", "y", "z", "x"]

    def test_group_by_count(self):
        r = self.make()
        assert r.group_by_count("a") == {1: 2, 2: 1, 3: 1}

    def test_distinct(self):
        assert self.make().distinct("b") == {"x", "y", "z"}

    def test_join(self):
        r = self.make()
        s = Relation("S", ("a", "c"), [(1, 10), (1, 11), (3, 12), (9, 13)])
        j = r.join(s, "a")
        assert j.columns == ("a", "b", "c")
        # value 1: 2 rows in R x 2 rows in S = 4; value 3: 1 x 1.
        assert len(j) == 5
        assert all(row[0] in (1, 3) for row in j)

    def test_join_empty_intersection(self):
        r = Relation("R", ("a",), [(1,)])
        s = Relation("S", ("a",), [(2,)])
        assert len(r.join(s, "a")) == 0

    def test_extend(self):
        r = Relation("R", ("a",))
        r.extend([(1,), (2,)])
        assert len(r) == 2


class TestNetwork:
    def test_traffic_accounting(self):
        net = Network()
        net.send("s1", "s2", "filter", object(), 1024)
        net.send("s2", "s1", "tuples", object(), 4096)
        assert net.total_bits == 5120
        assert net.rounds == 2
        assert net.breakdown() == {"filter": 1024, "tuples": 4096}

    def test_negative_size_rejected(self):
        net = Network()
        with pytest.raises(ValueError):
            net.send("a", "b", "x", None, -1)

    def test_reset(self):
        net = Network()
        net.send("a", "b", "x", None, 10)
        net.reset()
        assert net.total_bits == 0
        assert net.rounds == 0

    def test_tuple_bits(self):
        assert tuple_bits([(1, 2), (3, 4, 5)]) == 5 * 64
        assert tuple_bits([], 8) == 0


class TestSite:
    def test_store_and_fetch(self):
        s1, s2, _net = two_sites()
        r = Relation("R", ("a",), [(1,)])
        s1.store(r)
        assert s1.relation("R") is r
        with pytest.raises(KeyError):
            s2.relation("R")

    def test_send_tuples_charges_per_value(self):
        s1, s2, net = two_sites()
        rows = [(1, 2), (3, 4)]
        delivered = s1.send_tuples(s2, "tuples", rows)
        assert delivered == rows
        assert net.total_bits == 4 * 64

    def test_payload_passthrough(self):
        s1, s2, net = two_sites()
        payload = {"anything": True}
        assert s1.send(s2, "blob", payload, 7) is payload
        assert (net.total_bits, net.rounds) == (7, 1)
        assert net.breakdown() == {"blob": 7}
