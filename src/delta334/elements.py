"""Exact arithmetic for the group-element carriers used throughout the package.

Carriers: permutations on up to 12 points, 3x3 integer matrices of
determinant one, small square matrices over Z/pZ with determinant one, and
direct-sum pairs.  Every value is immutable and hashable, and the operations
here are pure functions, so elements can be shared freely between workers.

Each element has a canonical byte key (`element_key`); keys are equal exactly
when elements are equal, and their byte order gives the deterministic element
order used for dedup and file output.

Permutation composition applies the right factor first (function
composition): ``compose(x, y)`` maps ``i`` to ``x(y(i))``.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import chain, repeat
from operator import attrgetter
from typing import Iterable, Sequence, Union

import numpy as np

MAX_PERM_POINTS = 12

# Integer-matrix entries must stay strictly below this magnitude (62-bit).
# Arithmetic whose *stored* result would leave the range raises
# OverflowBoundError rather than silently producing an out-of-contract value.
# Pure predicates (edge tests, order checks) compute exactly and are not
# subject to the bound.
DEFAULT_ENTRY_LIMIT = 1 << 62

_TAG_PERMUTATION = 0x01
_TAG_INT_MATRIX = 0x02
_TAG_MOD_MATRIX = 0x03
_TAG_DIRECT_SUM = 0x04


class CarrierMismatchError(TypeError):
    """Two elements from incompatible carriers were combined."""


class OverflowBoundError(OverflowError):
    """A stored matrix entry would reach ``DEFAULT_ENTRY_LIMIT``."""


@lru_cache(maxsize=256)  # a modulus is checked once, not on every ModMatrix
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# raw 3x3 helpers on row-major 9-tuples (exact, unbounded)

def mat3_mul(a, b):
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return (
        a0 * b0 + a1 * b3 + a2 * b6,
        a0 * b1 + a1 * b4 + a2 * b7,
        a0 * b2 + a1 * b5 + a2 * b8,
        a3 * b0 + a4 * b3 + a5 * b6,
        a3 * b1 + a4 * b4 + a5 * b7,
        a3 * b2 + a4 * b5 + a5 * b8,
        a6 * b0 + a7 * b3 + a8 * b6,
        a6 * b1 + a7 * b4 + a8 * b7,
        a6 * b2 + a7 * b5 + a8 * b8,
    )


def mat3_det(m):
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
    return m0 * (m4 * m8 - m5 * m7) - m1 * (m3 * m8 - m5 * m6) + m2 * (m3 * m7 - m4 * m6)


def mat3_adjugate(m):
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
    return (
        m4 * m8 - m5 * m7,
        -(m1 * m8 - m2 * m7),
        m1 * m5 - m2 * m4,
        -(m3 * m8 - m5 * m6),
        m0 * m8 - m2 * m6,
        -(m0 * m5 - m2 * m3),
        m3 * m7 - m4 * m6,
        -(m0 * m7 - m1 * m6),
        m0 * m4 - m1 * m3,
    )


def mat2_mul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 + a1 * b2, a0 * b1 + a1 * b3, a2 * b0 + a3 * b2, a2 * b1 + a3 * b3)


MAT3_IDENTITY = (1, 0, 0, 0, 1, 0, 0, 0, 1)
MAT2_IDENTITY = (1, 0, 0, 1)


# ---------------------------------------------------------------------------
# carriers

class Permutation:
    """A permutation of [0, n) with n <= 12, stored as its image tuple."""

    __slots__ = ("images", "_key")

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        if n > MAX_PERM_POINTS:
            raise ValueError(f"permutations support at most {MAX_PERM_POINTS} points, got {n}")
        if sorted(images) != list(range(n)):
            raise ValueError(f"images must be a bijection on [0, {n}): {images!r}")
        self.images = images
        self._key = bytes([_TAG_PERMUTATION, n]) + bytes(images)

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    def cycles(self) -> str:
        """1-based cycle notation; identity renders as ``"e"``."""
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            nxt = self.images[start]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self.images[nxt]
            out.append(cyc)
        if not out:
            return "e"
        sep = "" if self.n <= 9 else " "
        return "".join("(" + sep.join(str(p + 1) for p in cyc) + ")" for cyc in out)

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images))

    def parity(self) -> int:
        """0 for even permutations, 1 for odd."""
        seen = [False] * self.n
        transpositions = 0
        for start in range(self.n):
            if seen[start]:
                continue
            length = 0
            v = start
            while not seen[v]:
                seen[v] = True
                v = self.images[v]
                length += 1
            transpositions += length - 1
        return transpositions % 2

    def __repr__(self) -> str:
        return f"Permutation[{self.cycles()}; n={self.n}]"

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self._key)


class IntMatrix3:
    """A 3x3 integer matrix with determinant one (an element of SL3(Z)).

    Entries are stored row-major.  Construction and every stored arithmetic
    result are checked against ``DEFAULT_ENTRY_LIMIT``.
    """

    __slots__ = ("entries", "_key")

    def __init__(self, entries: Iterable[int]):
        entries = tuple(entries)
        if len(entries) == 3 and all(map(isinstance, entries, repeat((tuple, list)))):
            entries = tuple(chain.from_iterable(entries))
        entries = tuple(map(int, entries))
        if len(entries) != 9:
            raise ValueError("IntMatrix3 needs 9 row-major entries or 3 rows")
        if max(map(abs, entries)) >= DEFAULT_ENTRY_LIMIT:
            e = next(e for e in entries if abs(e) >= DEFAULT_ENTRY_LIMIT)
            raise OverflowBoundError(f"entry {e} exceeds bound {DEFAULT_ENTRY_LIMIT}")
        det = mat3_det(entries)
        if det != 1:
            raise ValueError(f"determinant must be 1, got {det}")
        self.entries = entries
        # the tag, then each entry as 8 little-endian signed bytes (|e| < 2^62)
        self._key = struct.pack("<B9q", _TAG_INT_MATRIX, *entries)

    @classmethod
    def identity(cls) -> "IntMatrix3":
        return cls(MAT3_IDENTITY)

    def rows(self):
        e = self.entries
        return ((e[0], e[1], e[2]), (e[3], e[4], e[5]), (e[6], e[7], e[8]))

    def is_identity(self) -> bool:
        return self.entries == MAT3_IDENTITY

    def __repr__(self) -> str:
        return f"IntMatrix3{list(map(list, self.rows()))!r}"

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix3) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self._key)


def int_matrices(rows: np.ndarray) -> list[IntMatrix3]:
    """The IntMatrix3 of each row of an (n, 9) int64 or object array of
    integers, the rows' entry bound and determinants checked at once (in
    int64 while 6 M^3 < 2^63 for the largest entry M, on Python ints
    beyond), and no __init__ call per row.  A row that IntMatrix3 refuses
    raises IntMatrix3's own error."""
    n = len(rows)
    if n == 0:
        return []
    if rows.ndim != 2 or rows.shape[1] != 9:
        raise ValueError("IntMatrix3 needs 9 row-major entries or 3 rows")
    bad = ((rows >= DEFAULT_ENTRY_LIMIT) | (rows <= -DEFAULT_ENTRY_LIMIT)).any(axis=1)
    if not bad.any():
        big = max(int(rows.max()), -int(rows.min()))
        m = rows.astype(np.int64 if 6 * big ** 3 < 2 ** 63 else object).T
        bad = mat3_det(m) != 1
    if bad.any():
        IntMatrix3(rows[np.argmax(bad)].tolist())  # raises
    # the tag, then each entry as 8 little-endian signed bytes, as __init__
    keys = np.empty((n, 73), np.uint8)
    keys[:, 0] = _TAG_INT_MATRIX
    keys[:, 1:] = rows.astype("<i8").view(np.uint8).reshape(n, 72)
    new = IntMatrix3.__new__
    out = []
    for entries, key in zip(zip(*rows.T.tolist()), keys.view("V73").ravel().tolist()):
        m = new(IntMatrix3)
        m.entries = entries
        m._key = key
        out.append(m)
    return out


def key_order(rows: np.ndarray) -> np.ndarray:
    """The stable permutation that sorts (n, 9) int64 entry rows by the
    element_key of their IntMatrix3, whose entry bytes are little-endian and
    compared as byte strings."""
    return np.lexsort(key_words(rows).T[::-1])


def key_words(rows: np.ndarray) -> np.ndarray:
    """The entry rows as big-endian uint16 columns whose order is
    element_key's.  With every entry inside w bytes (w = 2, 4 or 8), the
    first w bytes of each entry decide the byte comparison and the others
    only extend its sign; two bytes to a column, numpy's lexsort takes them
    by radix sort.  Equal rows give equal words."""
    big = int(np.abs(rows).max()) if rows.size else 0
    width = next(w for w in (2, 4, 8) if big < 1 << (8 * w - 1))
    return rows.astype(f"<i{width}").view(">u2")


def entry_array(matrices: Sequence[IntMatrix3]) -> np.ndarray:
    """The (n, 9) int64 array of n IntMatrix3 values' entries, row-major;
    their entries are below 2^62, so every one fits."""
    n = len(matrices)
    flat = chain.from_iterable(map(attrgetter("entries"), matrices))
    return np.fromiter(flat, np.int64, 9 * n).reshape(n, 9)


# a ModMatrix key: the tag, dim, p as 4 little-endian bytes, then each entry as 8
_MOD_KEYS = {2: struct.Struct("<BBI4Q"), 3: struct.Struct("<BBI9Q")}


class ModMatrix:
    """A dim x dim matrix over Z/pZ with determinant 1, dim in {2, 3}.

    dim 3 carries SL3(Z/pZ); the dim-2 variant carries SL2(Z/pZ) elements,
    which only ever need composition, inversion, and order computation.
    """

    __slots__ = ("entries", "p", "dim", "_key")

    def __init__(self, entries: Iterable[int], p: int, dim: int = 3):
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        if not is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")
        entries = tuple(int(e) % p for e in entries)
        if len(entries) != dim * dim:
            raise ValueError(f"expected {dim * dim} entries, got {len(entries)}")
        if dim == 3:
            det = mat3_det(entries) % p
        else:
            det = (entries[0] * entries[3] - entries[1] * entries[2]) % p
        if det != 1:
            raise ValueError(f"determinant must be 1 mod {p}, got {det}")
        if p >= 1 << 32:
            raise OverflowError(f"modulus {p} does not fit the 4-byte key field")
        self.entries = entries
        self.p = p
        self.dim = dim
        self._key = _MOD_KEYS[dim].pack(_TAG_MOD_MATRIX, dim, p, *entries)

    @classmethod
    def identity(cls, p: int, dim: int = 3) -> "ModMatrix":
        return cls(MAT3_IDENTITY if dim == 3 else MAT2_IDENTITY, p, dim)

    def rows(self):
        d = self.dim
        return tuple(self.entries[i * d:(i + 1) * d] for i in range(d))

    def is_identity(self) -> bool:
        return self.entries == (MAT3_IDENTITY if self.dim == 3 else MAT2_IDENTITY)

    def __repr__(self) -> str:
        return f"ModMatrix{list(map(list, self.rows()))!r} mod {self.p}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModMatrix)
            and self.p == other.p
            and self.dim == other.dim
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash(self._key)


class DirectSumElement:
    """A pair (left, right) composing and inverting componentwise."""

    __slots__ = ("left", "right", "_key")

    def __init__(self, left: "GroupElement", right: "GroupElement"):
        self.left = left
        self.right = right
        lk = element_key(left)
        rk = element_key(right)
        self._key = (
            bytes([_TAG_DIRECT_SUM])
            + struct.pack("<I", len(lk)) + lk
            + struct.pack("<I", len(rk)) + rk
        )

    def is_identity(self) -> bool:
        return self.left.is_identity() and self.right.is_identity()

    def __repr__(self) -> str:
        return f"({self.left!r}, {self.right!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DirectSumElement)
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self) -> int:
        return hash(self._key)


GroupElement = Union[Permutation, IntMatrix3, ModMatrix, DirectSumElement]


# ---------------------------------------------------------------------------
# generic operations

def element_key(x: GroupElement) -> bytes:
    """Canonical byte serialization; equal exactly when elements are equal."""
    return x._key


def compose(x: GroupElement, y: GroupElement) -> GroupElement:
    """Group product x*y.  For permutations the right factor applies first."""
    if type(x) is not type(y):
        raise CarrierMismatchError(f"cannot compose {type(x).__name__} with {type(y).__name__}")
    if isinstance(x, Permutation):
        if x.n != y.n:
            raise CarrierMismatchError(f"permutation sizes differ: {x.n} vs {y.n}")
        xi = x.images
        return Permutation(tuple(xi[j] for j in y.images))
    if isinstance(x, IntMatrix3):
        return IntMatrix3(mat3_mul(x.entries, y.entries))
    if isinstance(x, ModMatrix):
        if x.p != y.p or x.dim != y.dim:
            raise CarrierMismatchError(
                f"mod-matrix shapes differ: dim {x.dim} mod {x.p} vs dim {y.dim} mod {y.p}")
        p = x.p
        mul = mat3_mul if x.dim == 3 else mat2_mul
        return ModMatrix(tuple(e % p for e in mul(x.entries, y.entries)), p, x.dim)
    if isinstance(x, DirectSumElement):
        return DirectSumElement(compose(x.left, y.left), compose(x.right, y.right))
    raise CarrierMismatchError(f"unsupported carrier {type(x).__name__}")


def inverse(x: GroupElement) -> GroupElement:
    if isinstance(x, Permutation):
        inv = [0] * x.n
        for i, img in enumerate(x.images):
            inv[img] = i
        return Permutation(inv)
    if isinstance(x, IntMatrix3):
        # det = 1, so the adjugate is the exact integer inverse
        return IntMatrix3(mat3_adjugate(x.entries))
    if isinstance(x, ModMatrix):
        p = x.p
        if x.dim == 3:
            return ModMatrix(tuple(e % p for e in mat3_adjugate(x.entries)), p, 3)
        a, b, c, d = x.entries
        return ModMatrix((d % p, -b % p, -c % p, a % p), p, 2)
    if isinstance(x, DirectSumElement):
        return DirectSumElement(inverse(x.left), inverse(x.right))
    raise CarrierMismatchError(f"unsupported carrier {type(x).__name__}")


def has_order_dividing_3(x: GroupElement) -> bool:
    if isinstance(x, IntMatrix3):
        # exact on raw tuples: x^2 may leave the stored-entry bound
        m = x.entries
        return mat3_mul(mat3_mul(m, m), m) == MAT3_IDENTITY
    return compose(compose(x, x), x).is_identity()


def residue_dtype(p: int) -> np.dtype:
    """The narrowest numpy integer dtype that holds -9 (p - 1)^2, and so
    9 (p - 1)^2 (no power of 2 is a multiple of 9), the largest sum of nine
    products of residues mod p; object (Python ints) beyond int64."""
    return np.min_scalar_type(-9 * (p - 1) ** 2)


def cubes_to_identity(rows: np.ndarray, p: int) -> np.ndarray:
    """x^3 = I (mod p) for each row of an (n, 9) array of row-major residues
    of matrices of determinant 1 mod p, tested as x^2 = adj(x) = x^-1."""
    cols = np.asarray(rows).T.astype(residue_dtype(p))
    return np.logical_and.reduce([(a - b) % p == 0 for a, b in
                                  zip(mat3_mul(cols, cols), mat3_adjugate(cols))])


def parametric_order3(a: int, b: int, c: int) -> IntMatrix3:
    """A three-parameter family of order-3 matrices in SL3(Z).

    Every member has integer entries, determinant one, and order exactly
    three; distinct parameter triples give distinct matrices.
    """
    return IntMatrix3(
        (1, 3 * a, 3 * b,
         0, -2 - 3 * c, -1 - 3 * c - 3 * c * c,
         0, 3, 1 + 3 * c))


def serialize_element(x: GroupElement):
    """JSON-ready label: image array for permutations, row-major entry array
    for matrices, [left, right] for direct sums."""
    if isinstance(x, Permutation):
        return list(x.images)
    if isinstance(x, (IntMatrix3, ModMatrix)):
        return list(x.entries)
    if isinstance(x, DirectSumElement):
        return [serialize_element(x.left), serialize_element(x.right)]
    raise CarrierMismatchError(f"unsupported carrier {type(x).__name__}")


def element_label(x: GroupElement) -> str:
    """Short human-readable form (cycle notation / row list)."""
    if isinstance(x, Permutation):
        return x.cycles()
    if isinstance(x, (IntMatrix3, ModMatrix)):
        return str([list(r) for r in x.rows()])
    if isinstance(x, DirectSumElement):
        return f"({element_label(x.left)}, {element_label(x.right)})"
    return repr(x)
