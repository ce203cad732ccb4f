"""Enumeration of the supported finite groups and their order-3 elements.

Supported specs: symmetric and alternating groups on up to 6 points,
SL3(Z/pZ) and SL2(Z/pZ) for p in {2, 3, 5}, cyclic groups Z_m (m <= 12,
carried as m-cycles on m points), and nested direct sums of these.

SL3(Z/pZ) is enumerated once, as an (|G|, 9) array of row-major residues:
`enumerate_group` makes each row a ModMatrix, and `order3_vertices` only
the rows with x^3 = e.  Element sets are deduplicated and sorted by
canonical key, so two runs produce byte-identical results regardless of
construction order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sized

import numpy as np

from .elements import (
    DirectSumElement,
    GroupElement,
    ModMatrix,
    Permutation,
    cubes_to_identity,
    element_key,
    has_order_dividing_3,
    residue_dtype,
)

MAX_GROUP_ORDER = 10 ** 6
_SL_PRIMES = (2, 3, 5)


class GuardExceededError(RuntimeError):
    """An enumeration or closure would exceed its configured size guard."""


@dataclass(frozen=True)
class GroupSpec:
    """One of: S<n>, A<n>, SL3(p), SL2(p), Z<m>, sum(spec, spec)."""

    kind: str               # "S" | "A" | "SL3" | "SL2" | "Z" | "sum"
    n: int = 0              # point count / modulus for scalar kinds
    left: "GroupSpec | None" = None
    right: "GroupSpec | None" = None

    def __post_init__(self):
        if self.kind in ("S", "A"):
            if not 1 <= self.n <= 6:
                raise ValueError(f"{self.kind}{self.n}: point count must be in [1, 6]")
        elif self.kind in ("SL3", "SL2"):
            if self.n not in _SL_PRIMES:
                raise ValueError(f"{self.kind}({self.n}): modulus must be one of {_SL_PRIMES}")
        elif self.kind == "Z":
            if not 1 <= self.n <= 12:
                raise ValueError(f"Z{self.n}: cyclic order must be in [1, 12]")
        elif self.kind == "sum":
            if self.left is None or self.right is None:
                raise ValueError("sum spec needs two component specs")
        else:
            raise ValueError(f"unknown group kind {self.kind!r}")

    def order(self) -> int:
        if self.kind == "S":
            return math.factorial(self.n)
        if self.kind == "A":
            return max(1, math.factorial(self.n) // 2)
        if self.kind == "SL3":
            p = self.n
            return p ** 3 * (p ** 3 - 1) * (p ** 2 - 1)
        if self.kind == "SL2":
            p = self.n
            return p * (p ** 2 - 1)
        if self.kind == "Z":
            return self.n
        return self.left.order() * self.right.order()

    def __str__(self) -> str:
        if self.kind == "sum":
            return f"sum({self.left},{self.right})"
        if self.kind in ("SL3", "SL2"):
            return f"{self.kind}({self.n})"
        return f"{self.kind}{self.n}"


def parse_group_spec(text: str) -> GroupSpec:
    """Parse the CLI grammar: ``S4``, ``A5``, ``SL3(2)``, ``SL2(3)``, ``Z3``,
    ``sum(S4,Z3)`` with nested sums allowed."""
    spec, rest = _parse_spec(text.strip())
    if rest:
        raise ValueError(f"trailing input {rest!r} in group spec {text!r}")
    return spec


def _parse_spec(text: str) -> tuple[GroupSpec, str]:
    text = text.lstrip()
    if text.startswith("sum("):
        left, rest = _parse_spec(text[4:])
        rest = rest.lstrip()
        if not rest.startswith(","):
            raise ValueError(f"expected ',' in sum(...), got {rest!r}")
        right, rest = _parse_spec(rest[1:])
        rest = rest.lstrip()
        if not rest.startswith(")"):
            raise ValueError(f"expected ')' closing sum(...), got {rest!r}")
        return GroupSpec("sum", left=left, right=right), rest[1:]
    for kind in ("SL3", "SL2"):
        if text.startswith(kind + "("):
            body = text[len(kind) + 1:]
            num, rest = _read_int(body)
            if not rest.startswith(")"):
                raise ValueError(f"expected ')' in {kind}(p), got {rest!r}")
            return GroupSpec(kind, num), rest[1:]
    for kind in ("S", "A", "Z"):
        if text.startswith(kind):
            num, rest = _read_int(text[1:])
            return GroupSpec(kind, num), rest
    raise ValueError(f"cannot parse group spec at {text!r}")


def _read_int(text: str) -> tuple[int, str]:
    i = 0
    while i < len(text) and text[i].isdigit():
        i += 1
    if i == 0:
        raise ValueError(f"expected a number at {text!r}")
    return int(text[:i]), text[i:]


class ElementSet:
    """Deduplicated group elements in canonical key order."""

    __slots__ = ("elements", "keys", "includes_identity", "_index")

    def __init__(self, elements: Iterable[GroupElement]):
        keyed = {}
        for e in elements:
            keyed[element_key(e)] = e
        self.keys = tuple(sorted(keyed))
        self.elements = tuple(keyed[k] for k in self.keys)
        self.includes_identity = any(e.is_identity() for e in self.elements)
        self._index = {k: i for i, k in enumerate(self.keys)}

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[GroupElement]:
        return iter(self.elements)

    def __getitem__(self, i: int) -> GroupElement:
        return self.elements[i]

    def __contains__(self, e: GroupElement) -> bool:
        return element_key(e) in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, ElementSet) and self.keys == other.keys

    def __repr__(self) -> str:
        return f"ElementSet({len(self)} elements, identity={self.includes_identity})"


def enumerate_group(spec: GroupSpec) -> ElementSet:
    """All elements of the group, each exactly once, sorted by key."""
    return _counted(spec, lambda: ElementSet(_enumerate(spec)))


def _counted(spec: GroupSpec, enumerate_: Callable[[], Sized]) -> Sized:
    """enumerate_() after the size guard, asserted to hold spec.order() elements."""
    expected = spec.order()
    if expected > MAX_GROUP_ORDER:
        raise GuardExceededError(
            f"{spec} has order {expected} > guard {MAX_GROUP_ORDER}")
    out = enumerate_()
    if len(out) != expected:
        raise AssertionError(
            f"enumeration bug: {spec} produced {len(out)} elements, expected {expected}")
    return out


def _enumerate(spec: GroupSpec) -> Iterator[GroupElement]:
    if spec.kind == "S":
        for images in itertools.permutations(range(spec.n)):
            yield Permutation(images)
    elif spec.kind == "A":
        for images in itertools.permutations(range(spec.n)):
            perm = Permutation(images)
            if perm.parity() == 0:
                yield perm
    elif spec.kind == "SL3":
        p = spec.n
        yield from (ModMatrix(row, p) for row in _sl3_residues(p).tolist())
    elif spec.kind == "SL2":
        p = spec.n
        for entries in itertools.product(range(p), repeat=4):
            if (entries[0] * entries[3] - entries[1] * entries[2]) % p == 1:
                yield ModMatrix(entries, p, 2)
    elif spec.kind == "Z":
        m = spec.n
        for k in range(m):  # the k-th power of the m-cycle i -> i + 1
            yield Permutation((i + k) % m for i in range(m))
    else:
        rights = list(_enumerate(spec.right))
        for le in _enumerate(spec.left):
            for ri in rights:
                yield DirectSumElement(le, ri)


def _sl3_residues(p: int) -> np.ndarray:
    """SL3(Z/pZ) as an (|G|, 9) array of row-major residues, each element
    once: rows r1 and r2 run over all vectors, r3 over the plane
    r3 . (r1 x r2) = 1 (the determinant), empty unless r1, r2 are independent."""
    vecs = np.array(list(itertools.product(range(p), repeat=3)), residue_dtype(p))
    r1, r2 = np.repeat(vecs, len(vecs), axis=0), np.tile(vecs, (len(vecs), 1))
    pair, r3 = np.nonzero(np.cross(r1, r2) % p @ vecs.T % p == 1)
    return np.hstack((r1[pair], r2[pair], vecs[r3]))


def order3_vertices(spec: GroupSpec, include_identity: bool = False) -> ElementSet:
    """The elements with x^3 = e; the identity is dropped unless asked for.
    SL3(p)'s are found on its residue array before any ModMatrix is built."""
    if spec.kind == "SL3":
        p = spec.n
        res = _counted(spec, lambda: _sl3_residues(p))
        elems = (ModMatrix(row, p) for row in res[cubes_to_identity(res, p)].tolist())
    else:
        elems = filter(has_order_dividing_3, enumerate_group(spec))
    return ElementSet(x for x in elems if include_identity or not x.is_identity())
