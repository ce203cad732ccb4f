import pytest

from delta334 import groups
from delta334.elements import compose, element_key, has_order_dividing_3
from delta334.groups import (
    ElementSet,
    GroupSpec,
    enumerate_group,
    order3_vertices,
    parse_group_spec,
)

import oracles


class TestParse:
    @pytest.mark.parametrize("text, order", [
        ("S4", 24), ("S5", 120), ("A4", 12), ("A5", 60),
        ("SL3(2)", 168), ("SL2(3)", 24), ("Z3", 3), ("Z9", 9),
        ("sum(Z3,Z3)", 9), ("sum(S4,sum(Z3,Z3))", 216),
    ])
    def test_orders(self, text, order):
        assert parse_group_spec(text).order() == order

    def test_round_trip_via_str(self):
        for text in ["S4", "SL3(2)", "sum(A4,Z9)", "sum(sum(Z3,Z3),S4)"]:
            spec = parse_group_spec(text)
            assert parse_group_spec(str(spec)) == spec

    @pytest.mark.parametrize("bad", [
        "Q8", "S7", "A7", "SL3(7)", "SL3(4)", "SL2(7)", "Z0", "Z-3",
        "sum(S4)", "sum(S4,", "S4 extra", "", "sum()",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_group_spec(bad)


class TestEnumerate:
    @pytest.mark.parametrize("text", ["S4", "A4", "SL2(3)", "Z9", "sum(Z3,Z3)", "sum(Z3,SL3(2))"])
    def test_full_group_size_and_closure(self, text):
        spec = parse_group_spec(text)
        els = enumerate_group(spec)
        assert len(els) == spec.order()
        keys = {element_key(x) for x in els}
        assert len(keys) == len(els)
        # spot-check closure on a slice of the multiplication table
        sample = list(els)[: min(len(els), 8)]
        for x in sample:
            for y in sample:
                assert compose(x, y) in els

    def test_sl3_2_has_168_elements(self):
        assert len(enumerate_group(parse_group_spec("SL3(2)"))) == 168

    @pytest.mark.parametrize("p", [2, 3])
    def test_sl3_matches_per_element_oracle(self, p):
        # the residue array holds the same elements as the row-by-row loop
        got = enumerate_group(parse_group_spec(f"SL3({p})"))
        assert got.keys == ElementSet(oracles.oracle_sl3_elements(p)).keys

    def test_deterministic_order(self):
        a = [element_key(x) for x in enumerate_group(parse_group_spec("S4"))]
        b = [element_key(x) for x in enumerate_group(parse_group_spec("S4"))]
        assert a == b


class TestOrder3Vertices:
    @pytest.mark.parametrize("text, count", [
        ("A4", 8), ("S4", 8), ("S5", 20), ("A5", 20),
        ("SL3(2)", 56), ("SL3(3)", 728), ("SL3(5)", 15_500), ("SL2(3)", 8),
        ("Z3", 2), ("Z9", 2), ("sum(Z3,Z3)", 8),
    ])
    def test_counts(self, text, count):
        verts = order3_vertices(parse_group_spec(text))
        assert len(verts) == count
        for v in verts:
            assert has_order_dividing_3(v) and not v.is_identity()

    @pytest.mark.parametrize("text", ["SL3(2)", "SL3(3)"])
    @pytest.mark.parametrize("include_identity", [False, True], ids=["no-identity", "with-identity"])
    def test_bulk_matches_per_element_oracle(self, text, include_identity):
        spec = parse_group_spec(text)
        got = order3_vertices(spec, include_identity)
        assert got.keys == oracles.oracle_order3_vertices(spec, include_identity).keys

    def test_short_residue_array_trips_the_order_assertion(self, monkeypatch):
        full = groups._sl3_residues
        monkeypatch.setattr(groups, "_sl3_residues", lambda p: full(p)[1:])
        spec = parse_group_spec("SL3(2)")
        for build in (order3_vertices, enumerate_group):
            with pytest.raises(AssertionError, match="produced 167 elements, expected 168"):
                build(spec)

    def test_include_identity_adds_one(self):
        spec = parse_group_spec("S4")
        without = order3_vertices(spec)
        with_id = order3_vertices(spec, include_identity=True)
        assert len(with_id) == len(without) + 1
        assert sum(1 for v in with_id if v.is_identity()) == 1


class TestConjugacyClasses:
    def test_a4_three_cycles_split_in_two(self):
        spec = parse_group_spec("A4")
        verts = order3_vertices(spec)
        classes = oracles.oracle_conjugacy_classes(spec, verts)
        assert sorted(len(c) for c in classes) == [4, 4]
        # each class is closed: it contains no inverse of its own members
        for cls in classes:
            keys = {element_key(x) for x in cls}
            assert len(keys) == len(cls)

    def test_s4_three_cycles_form_one_class(self):
        spec = parse_group_spec("S4")
        classes = oracles.oracle_conjugacy_classes(spec, order3_vertices(spec))
        assert sorted(len(c) for c in classes) == [8]


class TestElementSet:
    def test_membership_and_index(self):
        els = enumerate_group(parse_group_spec("Z3"))
        for i, x in enumerate(els):
            assert x in els
            assert els.keys[i] == element_key(x)

    def test_equality_is_set_like(self):
        a = enumerate_group(parse_group_spec("Z3"))
        b = ElementSet(list(a)[::-1])
        assert a == b
