import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delta334.elements import (
    DEFAULT_ENTRY_LIMIT,
    CarrierMismatchError,
    DirectSumElement,
    IntMatrix3,
    MAT3_IDENTITY,
    ModMatrix,
    OverflowBoundError,
    Permutation,
    compose,
    cubes_to_identity,
    element_key,
    element_label,
    entry_array,
    has_order_dividing_3,
    int_matrices,
    inverse,
    key_order,
    mat3_adjugate,
    mat3_det,
    mat3_mul,
    parametric_order3,
    serialize_element,
)
from delta334.groups import enumerate_group, parse_group_spec

import oracles


perms5 = st.permutations(range(5)).map(lambda im: Permutation(tuple(im)))


def three_cycle(*points, n=4):
    img = list(range(n))
    for a, b in zip(points, points[1:] + points[:1]):
        img[a] = b
    return Permutation(tuple(img))


class TestPermutation:
    def test_compose_applies_right_factor_first(self):
        # x = (0 1), y = (1 2): (x*y)(2) = x(y(2)) = x(1) = 0
        x = Permutation((1, 0, 2))
        y = Permutation((0, 2, 1))
        assert compose(x, y).images == (1, 2, 0)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    def test_rejects_too_many_points(self):
        with pytest.raises(ValueError):
            Permutation(tuple(range(13)))

    @given(perms5)
    def test_inverse_cancels(self, x):
        assert compose(x, inverse(x)).is_identity()
        assert compose(inverse(x), x).is_identity()

    @given(perms5, perms5, perms5)
    def test_associative(self, x, y, z):
        a = compose(compose(x, y), z)
        b = compose(x, compose(y, z))
        assert a.images == b.images

    def test_mixed_sizes_rejected(self):
        with pytest.raises(CarrierMismatchError):
            compose(Permutation((1, 0)), Permutation((1, 0, 2)))


class TestIntMatrix3:
    def test_requires_determinant_one(self):
        with pytest.raises(ValueError):
            IntMatrix3((2, 0, 0, 0, 1, 0, 0, 0, 1))

    def test_accepts_rows_or_flat(self):
        flat = IntMatrix3((1, 0, 0, 0, 1, 0, 0, 0, 1))
        rows = IntMatrix3(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert flat == rows

    def test_entry_limit_enforced_on_construction(self):
        with pytest.raises(OverflowBoundError):
            IntMatrix3((1, DEFAULT_ENTRY_LIMIT, 0, 0, 1, 0, 0, 0, 1))

    @pytest.mark.parametrize("big", [(1 << 62) - 1, -((1 << 62) - 1), 0, -1])
    def test_key_is_tag_then_little_endian_entries(self, big):
        for entries in ((1, big, 0, 0, 1, 0, 0, 0, 1), (1, 0, 0, big, 1, 0, big, 0, 1)):
            m = IntMatrix3(entries)
            assert element_key(m) == bytes([0x02]) + b"".join(
                e.to_bytes(8, "little", signed=True) for e in entries)
            rows = IntMatrix3([entries[0:3], list(entries[3:6]), entries[6:9]])
            assert element_key(rows) == element_key(m)

    @pytest.mark.parametrize("big", [1 << 62, -(1 << 62), 1 << 70])
    def test_entry_limit_names_the_entry(self, big):
        with pytest.raises(OverflowBoundError, match=f"entry {big} exceeds bound"):
            IntMatrix3((1, 0, 0, 0, 1, 0, 0, big, 1))

    def test_compose_overflow_guard(self):
        m = IntMatrix3((1, 1 << 61, 0, 0, 1, 0, 0, 0, 1))
        with pytest.raises(OverflowBoundError):
            compose(m, m)

    @given(st.lists(st.integers(-9, 9), min_size=9, max_size=9),
           st.lists(st.integers(-9, 9), min_size=9, max_size=9))
    def test_mat3_mul_matches_naive(self, xs, ys):
        got = mat3_mul(tuple(xs), tuple(ys))
        want = oracles.rep_mul(("intmat", tuple(xs)), ("intmat", tuple(ys)))[1]
        assert tuple(got) == want

    @given(st.lists(st.integers(-9, 9), min_size=9, max_size=9))
    def test_adjugate_identity(self, xs):
        # A * adj(A) = det(A) * I for every square matrix
        xs = tuple(xs)
        prod = mat3_mul(xs, mat3_adjugate(xs))
        d = mat3_det(xs)
        assert tuple(prod) == (d, 0, 0, 0, d, 0, 0, 0, d)

    def test_identity_constant(self):
        assert IntMatrix3.identity().is_identity()
        assert mat3_det(MAT3_IDENTITY) == 1


class TestIntMatricesInBulk:
    # the largest entries, where int64 determinants would overflow and the
    # check runs on Python ints
    ROWS = [(1, 0, 0, 0, 1, 0, 0, 0, 1), (1, (1 << 62) - 1, 0, 0, 1, 0, 0, 0, 1),
            (1, 0, 0, -((1 << 62) - 1), 1, 0, (1 << 62) - 1, 0, 1),
            parametric_order3(-3, 7, 11).entries]

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_equal_to_one_at_a_time(self, dtype):
        got = int_matrices(np.array(self.ROWS, dtype=dtype))
        want = [IntMatrix3(r) for r in self.ROWS]
        assert got == want
        assert [element_key(m) for m in got] == [element_key(m) for m in want]
        assert all(type(m.entries) is tuple and set(map(type, m.entries)) == {int}
                   for m in got)
        assert entry_array(got).tolist() == [list(r) for r in self.ROWS]

    @pytest.mark.parametrize("row, error, message", [
        ((1, 0, 0, 0, 1, 0, 0, 0, 2), ValueError, "determinant must be 1, got 2"),
        ((1, 1 << 62, 0, 0, 1, 0, 0, 0, 1), OverflowBoundError,
         f"entry {1 << 62} exceeds bound"),
        ((1, 0, 0, 0, 1, 0, 0, 0, -(1 << 62)), OverflowBoundError,
         f"entry {-(1 << 62)} exceeds bound"),
    ], ids=["det", "bound", "negative-bound"])
    def test_refused_rows_raise_intmatrix3_errors(self, row, error, message):
        with pytest.raises(error, match=message):
            IntMatrix3(row)
        with pytest.raises(error, match=message):
            int_matrices(np.array(self.ROWS + [row], dtype=object))

    def test_empty(self):
        assert int_matrices(np.empty((0, 9), np.int64)) == []
        assert entry_array([]).shape == (0, 9)

    @pytest.mark.parametrize("big", [300, (1 << 15) - 1, 1 << 15, (1 << 31) - 1, 1 << 31,
                                     (1 << 62) - 1])
    def test_key_order_is_element_key_order(self, big):
        # rows of each byte width, with byte-boundary values and repeats;
        # both sorts are stable
        rng = np.random.default_rng(big % 997)
        rows = rng.integers(-big, big, (400, 9), endpoint=True)
        rows[rng.random((400, 9)) < 0.3] = 0
        rows[::9, 0] = [255, 256, -256, -257, big, -big, 1, -1, 0, 127, -128] * 4 + [0]
        rows[1::11] = rows[2::11][:len(rows[1::11])]
        keys = [struct.pack("<9q", *r) for r in rows.tolist()]
        assert key_order(rows).tolist() == sorted(range(len(rows)), key=keys.__getitem__)


class TestParametricFamily:
    def test_all_1331_members_distinct_order3_det1(self):
        seen = set()
        for a in range(-5, 6):
            for b in range(-5, 6):
                for c in range(-5, 6):
                    m = parametric_order3(a, b, c)
                    assert mat3_det(m.entries) == 1
                    assert has_order_dividing_3(m) and not m.is_identity()
                    seen.add(m.entries)
        assert len(seen) == 11 ** 3

    def test_order_check_past_the_entry_bound(self):
        # entries fit the 62-bit bound but the square does not: the
        # predicate still decides exactly
        m = parametric_order3(1, 1, 10 ** 9)
        with pytest.raises(OverflowBoundError):
            compose(m, m)
        assert has_order_dividing_3(m)
        big = 1 << 61
        assert not has_order_dividing_3(IntMatrix3((1, big, 0, 0, 1, big, 0, 0, 1)))

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
    def test_members_cube_to_identity(self, a, b, c):
        m = parametric_order3(a, b, c)
        assert compose(compose(m, m), m).is_identity()


class TestModMatrix:
    def test_requires_prime_modulus(self):
        with pytest.raises(ValueError):
            ModMatrix((1, 0, 0, 0, 1, 0, 0, 0, 1), 4)

    def test_requires_unit_determinant(self):
        with pytest.raises(ValueError):
            ModMatrix((0, 0, 0, 0, 0, 0, 0, 0, 0), 2)

    def test_entries_are_reduced(self):
        m = ModMatrix((3, 0, 0, 0, 3, 0, 0, 0, 3), 2)
        assert m.entries == (1, 0, 0, 0, 1, 0, 0, 0, 1)
        assert m.is_identity()

    def test_dim2_supported(self):
        m = ModMatrix((0, 1, 2, 0), 3, dim=2)
        m2 = compose(m, m)
        assert not m2.is_identity()
        assert compose(m2, m2).is_identity()

    def test_mixed_modulus_rejected(self):
        a = ModMatrix((1, 1, 0, 0, 1, 0, 0, 0, 1), 2)
        b = ModMatrix((1, 1, 0, 0, 1, 0, 0, 0, 1), 3)
        with pytest.raises(CarrierMismatchError):
            compose(a, b)

    @pytest.mark.parametrize("p", [2, 5, 4_294_967_291])
    def test_key_is_tag_dim_modulus_then_entries(self, p):
        for m in (ModMatrix((0, 0, 1, 1, 0, 0, 0, 1, p - 1), p), ModMatrix((0, 1, p - 1, 0), p, 2)):
            assert element_key(m) == (bytes([0x03, m.dim]) + p.to_bytes(4, "little")
                                      + b"".join(e.to_bytes(8, "little") for e in m.entries))

    def test_modulus_checks_repeat(self):
        # the primality verdict is kept per modulus; every call still raises
        for _ in range(2):
            with pytest.raises(ValueError, match="prime"):
                ModMatrix(MAT3_IDENTITY, 2 ** 32)
            with pytest.raises(OverflowError):
                ModMatrix(MAT3_IDENTITY, 4_294_967_311)  # the least prime above 2^32

    @pytest.mark.parametrize("text", ["SL3(2)", "SL2(3)", "SL2(5)"])
    def test_order_dividing_3_matches_literal_cube(self, text):
        for x in enumerate_group(parse_group_spec(text)):
            r = oracles.to_rep(x)
            cube = oracles.rep_mul(oracles.rep_mul(r, r), r)
            assert has_order_dividing_3(x) == oracles.rep_is_identity(cube)

    @pytest.mark.parametrize("p", [3, 5, 61, 1_012_333_499, 4_294_967_291])
    def test_cubes_on_residue_rows_match_literal_cube(self, p):
        # x^3 = I tested as x^2 = adj(x) in residue_dtype(p), up to the
        # largest prime on int64 and on Python ints past it
        rng = random.Random(p)
        rot = ModMatrix((0, 1, 0, 0, 0, 1, 1, 0, 0), p)
        xs = [ModMatrix.identity(p), ModMatrix((p - 1, 0, 0, 0, p - 1, 0, 0, 0, 1), p)]
        for _ in range(12):
            e = ModMatrix((1, rng.randrange(p), rng.randrange(p), 0, 1, rng.randrange(p),
                           0, 0, 1), p)
            xs += [compose(compose(e, rot), inverse(e)), compose(e, rot), e]
        want = []
        for x in xs:
            r = oracles.to_rep(x)
            want.append(oracles.rep_is_identity(oracles.rep_mul(oracles.rep_mul(r, r), r)))
        assert cubes_to_identity(np.array([x.entries for x in xs]), p).tolist() == want
        assert True in want and False in want


int_mats = st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)).map(
    lambda abc: parametric_order3(*abc))


def entrywise_mod(x, p):
    return ModMatrix(tuple(e % p for e in x.entries), p)


class TestReduceMod:
    @given(int_mats, int_mats, st.sampled_from([2, 3, 5]))
    def test_reduction_is_a_homomorphism(self, x, y, p):
        lhs = entrywise_mod(compose(x, y), p)
        rhs = compose(entrywise_mod(x, p), entrywise_mod(y, p))
        assert lhs == rhs

    @given(int_mats, st.sampled_from([2, 3, 5]))
    def test_reduction_preserves_inverse(self, x, p):
        assert entrywise_mod(inverse(x), p) == inverse(entrywise_mod(x, p))


class TestDirectSum:
    def test_componentwise(self):
        x = DirectSumElement(three_cycle(0, 1, 2), three_cycle(0, 1, 2, n=3))
        y = compose(x, x)
        z = compose(y, x)
        assert z.is_identity()
        assert has_order_dividing_3(x)

    def test_inverse(self):
        x = DirectSumElement(three_cycle(0, 1, 2), parametric_order3(1, 2, 3))
        assert compose(x, inverse(x)).is_identity()


class TestKeysAndSerialization:
    def test_keys_distinguish_kinds(self):
        xs = [
            Permutation((0, 1, 2)),
            ModMatrix((1, 0, 0, 0, 1, 0, 0, 0, 1), 2),
            IntMatrix3.identity(),
            DirectSumElement(Permutation((0, 1, 2)), IntMatrix3.identity()),
        ]
        keys = {element_key(x) for x in xs}
        assert len(keys) == len(xs)

    @given(perms5, perms5)
    def test_key_injective_on_permutations(self, x, y):
        assert (element_key(x) == element_key(y)) == (x.images == y.images)

    def test_serialize_shapes(self):
        assert serialize_element(Permutation((1, 0))) == [1, 0]
        assert serialize_element(IntMatrix3.identity()) == [1, 0, 0, 0, 1, 0, 0, 0, 1]
        pair = serialize_element(DirectSumElement(Permutation((1, 0)), IntMatrix3.identity()))
        assert pair == [[1, 0], [1, 0, 0, 0, 1, 0, 0, 0, 1]]

    def test_labels_are_readable(self):
        assert element_label(three_cycle(0, 1, 2)) == "(123)"
        assert "1" in element_label(IntMatrix3.identity())


class TestIdentityLike:
    @given(perms5)
    def test_identity_like_is_neutral(self, x):
        e = oracles.identity_like(x)
        assert compose(e, x).images == x.images
        assert compose(x, e).images == x.images
