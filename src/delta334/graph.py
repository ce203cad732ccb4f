"""The 334-triangle graph: vertices are order-dividing-3 group elements,
with an edge between a and b exactly when (ab)^4 = e.

Also here: the core decomposition, the vertex orbits under conjugation by
the graph's own labels, Kronecker (tensor) products, graph morphisms
induced by mod-p reduction, and a small-graph isomorphism test by
networkx's VF2++ search.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain, repeat
from operator import index
from typing import Callable, Iterable, Sequence, get_args

import numpy as np

from .elements import (
    CarrierMismatchError,
    DirectSumElement,
    GroupElement,
    IntMatrix3,
    ModMatrix,
    OverflowBoundError,
    Permutation,
    compose,
    cubes_to_identity,
    element_key,
    entry_array,
    has_order_dividing_3,
    inverse,
    is_prime,
    mat3_adjugate,
    mat3_mul,
    residue_dtype,
)
from .groups import ElementSet

_CARRIERS = get_args(GroupElement)  # the element classes, for a fast isinstance


class TriangleGraph:
    """An undirected graph with optional loops and per-vertex labels.

    Edges may come in either orientation and repeated, as any sequence of
    pairs or an (m, 2) integer array: they are converted to one array and
    checked as a whole.  Both orientations of each edge become one sorted,
    deduplicated array of arcs, kept as CSR: the heads, and per vertex the
    offset of its first arc.  The sorted neighbor tuples are slices of the
    heads, and edges() is derived from the arcs on each call.
    """

    __slots__ = ("labels", "loops", "meta", "_neighbors", "_indptr", "_heads",
                 "_key_index")

    def __init__(self, labels: Sequence, edges: Iterable[tuple[int, int]],
                 loops: Iterable[int] = (), meta: dict | None = None):
        self.labels = tuple(labels)
        n = len(self.labels)
        i, j = _edge_array(edges, n).T
        arcs = np.concatenate((i * n + j, j * n + i))  # both orientations
        arcs.sort()  # by tail, then head
        arcs = np.concatenate((arcs[:1], arcs[1:][arcs[1:] != arcs[:-1]]))
        tail, self._heads = np.divmod(arcs, n)
        self._indptr = np.searchsorted(tail, np.arange(n + 1))
        cuts = self._indptr.tolist()
        vertex = list(range(n)).__getitem__  # one int object per vertex in all rows
        heads = tuple(map(vertex, self._heads.tolist()))
        self._neighbors = tuple([heads[a:b] for a, b in zip(cuts, cuts[1:])])
        self.loops = frozenset(loops)
        for v in self.loops:
            if not 0 <= v < n:
                raise ValueError(f"loop vertex {v} out of range")
        self.meta = dict(meta or {})
        self._key_index = None

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return len(self._heads) // 2

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges (i, j) with i < j, lexicographically sorted."""
        i, j = self._edge_ends()
        return tuple(zip(i.tolist(), j.tolist()))

    def _edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The arrays of i and of j over the edges (i, j), in edges() order."""
        tail = np.repeat(np.arange(self.n), np.diff(self._indptr))
        out = tail < self._heads  # each edge once, still in lexicographic order
        return tail[out], self._heads[out]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._neighbors[v]

    def degree(self, v: int) -> int:
        """Neighbor count; loops do not contribute."""
        return len(self._neighbors[v])

    def has_edge(self, i: int, j: int) -> bool:
        if i == j:
            return i in self.loops
        row = self._neighbors[i]
        k = bisect_left(row, j)
        return k < len(row) and row[k] == j

    def vertex_of(self, element: GroupElement) -> int:
        """Index of the vertex labeled by this element (labels must be elements)."""
        if self._key_index is None:
            self._key_index = {element_key(lab): i for i, lab in enumerate(self.labels)}
        return self._key_index[element_key(element)]

    def degree_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for v in range(self.n):
            d = self.degree(v)
            hist[d] = hist.get(d, 0) + 1
        return hist

    def __repr__(self) -> str:
        return (f"TriangleGraph({self.n} vertices, {self.edge_count} edges, "
                f"{len(self.loops)} loops)")


def _edge_array(edges, n: int) -> np.ndarray:
    """`edges` as an (m, 2) int64 array, one conversion checked as a whole:
    integer or bool ends, pairs of distinct vertices of range(n).
    ValueError or TypeError names the first edge that is not.  A sequence
    of 2-item lists or tuples is read as the flat run of its ends through
    operator.index, which numpy takes faster than the nested lists."""
    pairs = edges if isinstance(edges, (list, tuple, np.ndarray)) else list(edges)
    try:
        if not len(pairs):
            ends = np.empty((0, 2), np.int64)
        elif (not isinstance(pairs, np.ndarray) and set(map(type, pairs)) <= {list, tuple}
              and set(map(len, pairs)) == {2}):
            ends = np.fromiter(map(index, chain.from_iterable(pairs)), np.int64, 2 * len(pairs))
            ends = ends.reshape(-1, 2)
        else:
            ends = np.asarray(pairs)
    except (ValueError, TypeError, OverflowError):  # ragged, not ints, or past int64
        raise _edge_error(pairs, n) from None
    if (ends.dtype.kind not in "iub" or ends.ndim != 2 or ends.shape[1] != 2
            or ends.size and (ends.min() < 0 or ends.max() >= n)
            or (ends[:, 0] == ends[:, 1]).any()):
        raise _edge_error(pairs, n)
    return ends.astype(np.int64, copy=False)


def _edge_error(pairs, n: int) -> Exception:
    """The ValueError for the first of `pairs` that is not two distinct
    vertices of range(n); an end that is not an int raises TypeError."""
    for e in pairs.tolist() if isinstance(pairs, np.ndarray) else pairs:
        try:
            i, j = e
        except (TypeError, ValueError):
            return ValueError(f"edge {e!r} is not a pair")
        i, j = index(i), index(j)
        if i == j:
            return ValueError(f"self-edge ({i},{i}) must be passed via loops")
        if not (0 <= i < n and 0 <= j < n):
            return ValueError(f"edge ({i},{j}) out of range for {n} vertices")
    return TypeError("edge ends must have an integer dtype")


def _core_order(graph: TriangleGraph) -> tuple[list[int], list[int]]:
    """Degeneracy order and core numbers (Batagelj and Zaversnik, "An O(m)
    algorithm for cores decomposition of networks", 2003): remove a vertex
    of least remaining degree, lowest index on ties, popped from one heap
    per degree (a vertex whose degree falls is pushed onto the lower heap,
    and its stale entry is skipped).  core[v] is the highest degree removed
    up to v, so core never falls along `order`: the vertices outside the
    k-core are a prefix of it, each with fewer than k neighbors after it."""
    n = graph.n
    deg = [graph.degree(v) for v in range(n)]  # -1 once removed
    heaps: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for v in range(n):
        heaps[deg[v]].append(v)  # ascending, so already heaps
    order: list[int] = []
    core = [0] * n
    d = k = 0
    while len(order) < n:
        while not heaps[d]:
            d += 1
        v = heappop(heaps[d])
        if deg[v] != d:
            continue
        deg[v] = -1
        order.append(v)
        core[v] = k = max(k, d)
        for w in graph.neighbors(v):
            if deg[w] >= 0:
                deg[w] -= 1
                heappush(heaps[deg[w]], w)
        d = max(d - 1, 0)  # no remaining degree fell below d - 1
    return order, core


def _conjugation_orbits(graph: TriangleGraph) -> tuple[list[int], list[list[int]]] | None:
    """(maps, orbits): the vertex orbits of the automorphisms that
    conjugation by the graph's own labels induces, each ascending and in
    order of its least vertex, and the ids of the labels whose maps merged
    them; None when no map merges two vertices.  Each map v -> x v x^-1
    must be a bijection of the labels that takes the sorted arcs onto
    themselves, so the orbits hold whether or not the maps act
    transitively.  A label that is not a group element, a missing
    conjugate or a failed check ends the attempt with None; a map that
    merges nothing is skipped.

    The label tried next is the least vertex whose orbit holds no label
    tried so far.  A label y = g x g^-1 in the orbit of a tried x, with g a
    product of tried labels, adds nothing: its map is the tried maps'
    g-conjugate of x's.  So the orbits are closed under every label's map
    once each holds a tried label, and the attempt stops there, when the
    orbits are as few as the distinct degrees (no automorphism joins two
    degrees), or after n.bit_length() + 1 labels.  A map fixes its own
    label's vertex, so the first one must take that vertex's neighbors onto
    themselves: tested before all labels are indexed, this ends a portion,
    whose conjugates leave it, within a few conjugates.  Nothing is kept on
    the graph."""
    n, labels = graph.n, graph.labels
    deg = np.diff(graph._indptr)
    count, maps, index = n, [], None
    degrees, i = 0, 0  # degrees is counted with the index; no orbit count is 0

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for _ in range(n.bit_length() + 1):
        while index is not None and i < n and tried[find(i)]:
            i += 1
        if i == n or count == degrees:
            break
        x = labels[i]
        try:
            x_inv = inverse(x)
            if index is None:
                near = list(graph.neighbors(i))
                if not all(isinstance(labels[w], _CARRIERS) for w in near):
                    return None
                keys, conjugates = _conjugate_keys(labels)
                near_keys = set(keys(near))
                if not all(key in near_keys for key in conjugates(x, x_inv, near)):
                    return None
                if not all(isinstance(y, _CARRIERS) for y in labels):
                    return None
                index = dict(zip(keys(range(n)), range(n)))
                degrees = np.count_nonzero(np.bincount(deg))  # np.unique would import numpy.ma
                arcs = np.repeat(np.arange(n), deg) * n + graph._heads  # sorted
                parent = list(range(n))  # union-find; a root is its orbit's least vertex
                tried = [False] * n      # at a root: its orbit holds a tried label
            image = [index.get(key) for key in conjugates(x, x_inv, range(n))]
        except (CarrierMismatchError, OverflowBoundError):
            return None
        if None in image or len(set(image)) < n:
            return None
        perm = np.array(image)
        if not np.array_equal(np.sort(np.repeat(perm, deg) * n + perm[graph._heads]), arcs):
            return None
        merged = count
        for v, w in enumerate(image):
            a, b = find(v), find(w)
            if a != b:
                parent[max(a, b)] = min(a, b)
                count -= 1
        tried[find(i)] = True
        if count < merged:
            maps.append(i)
    if not maps:
        return None
    orbits: dict[int, list[int]] = {}
    for v in range(n):
        orbits.setdefault(find(v), []).append(v)
    return maps, list(orbits.values())


def _conjugate_keys(labels: Sequence[GroupElement]) -> tuple[Callable, Callable]:
    """Two functions of vertex ids: the keys of their labels, and, given x
    and x^-1, the keys of x y x^-1 over their labels y (lazily, so a check
    can stop at the first miss).  Element keys; for permutations of one
    size n, and for dim-3 matrices mod one prime p, their images or entries
    as base-n or base-p numbers, conjugated in one numpy step."""
    first = labels[0]
    if isinstance(first, Permutation) and all(
            isinstance(y, Permutation) and y.n == first.n for y in labels):
        res, base = np.array([y.images for y in labels]), first.n  # n^n < 2^63 for n <= 12

        def conjugate(x, x_inv, ys: np.ndarray) -> np.ndarray:  # i -> x(y(x^-1(i)))
            return np.array(x.images)[ys[:, x_inv.images]]
    elif (isinstance(first, ModMatrix) and first.dim == 3 and first.p ** 9 < 2 ** 63
          and all(isinstance(y, ModMatrix) and y.dim == 3 and y.p == first.p for y in labels)):
        res, base = np.array([y.entries for y in labels]).reshape(-1, 3, 3), first.p

        def conjugate(x, x_inv, ys: np.ndarray) -> np.ndarray:
            return (np.reshape(x.entries, (3, 3)) @ ys % base
                    @ np.reshape(x_inv.entries, (3, 3)) % base)
    else:
        return (lambda vs: [element_key(labels[v]) for v in vs],
                lambda x, x_inv, vs: (element_key(compose(compose(x, labels[v]), x_inv))
                                      for v in vs))
    weights = base ** np.arange(res[0].size)

    def code(ys: np.ndarray) -> list[int]:
        return (ys.reshape(-1, len(weights)) @ weights).tolist()

    return (lambda vs: code(res[vs]),
            lambda x, x_inv, vs: code(conjugate(x, x_inv, res[vs])))


def _product_order_divides_4(x: GroupElement, y: GroupElement) -> bool:
    """True exactly when (xy)^4 = e.  Matrix powers are computed exactly (no
    entry bound applies to the intermediate values of a predicate)."""
    if isinstance(x, IntMatrix3):
        z = mat3_mul(x.entries, y.entries)
        z2 = mat3_mul(z, z)
        return mat3_mul(z2, z2) == (1, 0, 0, 0, 1, 0, 0, 0, 1)
    z = compose(x, y)
    z2 = compose(z, z)
    return compose(z2, z2).is_identity()


def build_delta334(elements: ElementSet, meta: dict | None = None) -> TriangleGraph:
    """Construct the 334-triangle graph over the given vertex elements.

    Every element must have order dividing 3.  Loops are recorded where a
    vertex is adjacent to itself (only the identity ever is).  Dim-3 mod-p
    labels of one prime, at any count, become one (n, 9) residue array:
    their cubes are checked on it, and `_mod_p_edge_table` decides each pair
    by tr(ab) and tr adj(ab) mod p, finds the inverse pairs by lookup, and
    checks further only the other pairs whose characteristic polynomial has
    a repeated root.  Every other carrier is tested pair by pair.
    """
    verts = list(elements)
    n = len(verts)
    meta = dict(meta or {})
    meta.setdefault("vertex_count", n)
    mod_p = bool(verts) and all(isinstance(v, ModMatrix) and v.dim == 3 for v in verts)
    if mod_p:
        p = verts[0].p
        if any(v.p != p for v in verts):
            raise ValueError("mixed moduli in one vertex set")
        res = np.array([v.entries for v in verts])
    cubed = cubes_to_identity(res, p).tolist() if mod_p else list(map(has_order_dividing_3, verts))
    if not all(cubed):
        raise ValueError(f"vertex {verts[cubed.index(False)]!r} does not satisfy v^3 = e")
    if mod_p:
        table = _mod_p_edge_table(res, p)
        edges = np.argwhere(np.triu(table, 1))
        loops = np.flatnonzero(table.diagonal()).tolist()
    else:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if _product_order_divides_4(verts[i], verts[j])]
        loops = [i for i in range(n) if _product_order_divides_4(verts[i], verts[i])]
    return TriangleGraph(verts, edges, loops, meta)


_TRANSPOSED = [0, 3, 6, 1, 4, 7, 2, 5, 8]  # row-major positions of the transpose's entries


def _mod_p_edge_table(res: np.ndarray, p: int) -> np.ndarray:
    """The n x n boolean table of (AB)^4 = I (mod p), diagonal included,
    over the rows of an (n, 9) array of row-major residues of matrices in
    SL3(Z/pZ), for any prime p.  Arithmetic runs in the narrowest integer
    dtype that holds a sum of nine residue products, below 9 (p - 1)^2
    (int8 for p = 2 and 3), and on numpy arrays of Python ints beyond int64.

    No pair's product is formed.  For every pair, t = tr(AB) and
    s = tr adj(AB), the sum of AB's principal 2 x 2 minors, come from two
    Gram sums, each nine outer products: the entries of each A against the
    transposed entries of each B, and the same over the adjugates, which
    are the inverses (det = 1), since adj(AB) = adj(B) adj(A).  As
    det(AB) = 1, the characteristic polynomial of P = AB is
    f = x^3 - t x^2 + s x - 1, and modulo f

        x^4 = (t^2 - s) x^2 + (1 - ts) x + t,

    so (t, s) = (1, 1) gives f | x^4 - 1: an edge outright, by Cayley-
    Hamilton.  For p = 2, x^4 - 1 = (x - 1)^4, so every eigenvalue of an
    edge's P is 1 and (t, s) = (3, 3) = (1, 1): these are all the edges.

    For odd p, x^4 - 1 is squarefree, so an edge's P is diagonalisable over
    the closure, its eigenvalues fourth roots of unity.  Three distinct ones
    with product 1 can only be 1, i and -i, f = (x - 1)(x^2 + 1), the
    (1, 1) class again.  Any other edge has a repeated eigenvalue lambda,
    which lies in F_p (a conjugate would repeat too), and the third is
    lambda^-2 = lambda^2, so (t, s) = (2 lambda + lambda^2,
    lambda^2 + 2 lambda^3) with lambda = 1, -1, and +-i when p = 1 (mod 4).
    A pair of such a class is an edge exactly when P is diagonalisable,
    that is when P - lambda I = A (B - lambda A^-1) has rank 3 minus
    lambda's multiplicity.  For lambda = 1 that is rank 0, B = A^-1: the
    inverse pairs, found for every p by looking each inverse up among the
    rows on all nine residues (a repeated row matches at each copy, and the
    identity's loop is among them).  Otherwise it is rank 1, every 2 x 2
    minor of B - lambda A^-1 zero; for lambda = -1 that is P^2 = I, for
    +-i P^4 = I.  These checks run on each class's pairs only.
    """
    n = len(res)
    cols = np.asarray(res).reshape(n, 9).T.astype(residue_dtype(p))  # entry k of every matrix
    inv = np.stack(mat3_adjugate(cols)) % p
    ts = 0  # (t, s) as t p + s, each a Gram sum of nine outer products
    for a in (cols, inv):
        ts = ts * p + sum(np.multiply.outer(a[k], a[kt]) for k, kt in enumerate(_TRANSPOSED)) % p
    table = ts == p + 1
    where = {}  # residue row -> the indices of its copies
    for j, row in enumerate(zip(*cols.tolist())):
        where.setdefault(row, []).append(j)
    i, j = np.array([(i, j) for i, row in enumerate(zip(*inv.tolist()))
                     for j in where.get(row, ())], np.int64).reshape(-1, 2).T
    table[i, j] = True
    roots = [] if p == 2 else [p - 1]
    if p % 4 == 1:
        c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)  # a non-square
        root = pow(c, (p - 1) // 4, p)  # a square root of -1
        roots += [root, p - root]
    for lam in roots:
        t, s = (2 * lam + lam * lam) % p, (lam * lam + 2 * lam ** 3) % p
        i, j = np.divmod(np.flatnonzero(ts == t * p + s), n)
        # B - lambda A^-1 by entries, each in (-p, p): its minors are below 2 p^2
        diff = np.take(cols, j, axis=1)
        diff -= np.take(lam * inv % p, i, axis=1)
        edge = np.logical_and.reduce([z % p == 0 for z in mat3_adjugate(diff)])
        table[i[edge], j[edge]] = True
    return table


def kronecker_product(g1: TriangleGraph, g2: TriangleGraph) -> TriangleGraph:
    """Tensor product: (a, b) ~ (a', b') iff a ~ a' and b ~ b'.

    Loops participate: a looped vertex is adjacent to itself, so G (x) on a
    single looped vertex is a copy of G.  Vertex (i, j) gets index i * n2 + j
    and label (label1[i], label2[j]).
    """
    n1, n2 = g1.n, g2.n
    adj1 = [set(g1.neighbors(i)) | ({i} if i in g1.loops else set()) for i in range(n1)]
    adj2 = [set(g2.neighbors(j)) | ({j} if j in g2.loops else set()) for j in range(n2)]
    labels = [(g1.labels[i], g2.labels[j]) for i in range(n1) for j in range(n2)]
    edges = []
    loops = []
    for i in range(n1):
        for j in range(n2):
            u = i * n2 + j
            for i2 in adj1[i]:
                for j2 in adj2[j]:
                    v = i2 * n2 + j2
                    if v > u:
                        edges.append((u, v))
                    elif v == u:
                        loops.append(u)
    meta = {"product_of": [g1.meta.get("source"), g2.meta.get("source")]}
    return TriangleGraph(labels, edges, loops, meta)


def kronecker_matches_direct_sum(product: TriangleGraph,
                                 direct: TriangleGraph) -> tuple[bool, str | None]:
    """Check the product lemma instance: the tensor product of the factor
    graphs must equal the direct-sum group's graph under the canonical
    vertex identification (a, b) <-> pair element.  Returns (ok, reason).

    Both graphs must include identity vertices or the identification is not
    even a bijection.
    """
    if product.n != direct.n:
        return False, f"vertex counts differ: {product.n} != {direct.n}"
    pi = []
    for lab in product.labels:
        pair = DirectSumElement(lab[0], lab[1])
        try:
            pi.append(direct.vertex_of(pair))
        except KeyError:
            return False, f"product vertex {lab!r} missing from direct-sum graph"
    if len(set(pi)) != len(pi):
        return False, "vertex identification is not injective"
    mapped_edges = {(min(pi[i], pi[j]), max(pi[i], pi[j])) for i, j in product.edges()}
    direct_edges = set(direct.edges())
    if mapped_edges != direct_edges:
        extra = sorted(mapped_edges - direct_edges)[:3]
        missing = sorted(direct_edges - mapped_edges)[:3]
        return False, f"edge sets differ (extra {extra}, missing {missing})"
    if {pi[v] for v in product.loops} != set(direct.loops):
        return False, "loop sets differ"
    return True, None


@dataclass(frozen=True)
class GraphMorphism:
    """A vertex map between two graphs; every domain edge maps to an edge."""

    domain: TriangleGraph
    codomain: TriangleGraph
    vertex_map: tuple[int, ...]


@dataclass
class MorphismReport:
    """Outcome of building a reduction-induced morphism.

    Failures are recorded, never silently dropped: an unpreserved edge or a
    merged adjacent pair would falsify the reduction lemma.
    """

    ok: bool
    morphism: GraphMorphism | None
    missing_vertices: list[int] = field(default_factory=list)
    unpreserved_edges: list[tuple[int, int]] = field(default_factory=list)
    merged_adjacent_pairs: list[tuple[int, int]] = field(default_factory=list)
    prime: int = 0
    checked_edges: int = 0

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "checked_edges": self.checked_edges,
                "missing_vertices": self.missing_vertices,
                "unpreserved_edges": self.unpreserved_edges,
                "merged_adjacent_pairs": self.merged_adjacent_pairs}


def induced_morphism(domain: TriangleGraph, p: int, codomain: TriangleGraph) -> MorphismReport:
    """The graph morphism induced by entrywise mod-p reduction.

    Domain vertices must be integer matrices and codomain vertices dim-3
    matrices mod p (the mod-p triangle graph).  Each domain vertex maps to
    the codomain vertex with its reduced entries; the report lists, in
    vertex and edge order, any vertex whose reduction is absent, any edge
    that fails to map to an edge, and any adjacent pair collapsed to one
    vertex.  checked_edges counts every domain edge.
    """
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
    for lab in codomain.labels:
        if not (isinstance(lab, ModMatrix) and lab.dim == 3 and lab.p == p):
            raise ValueError(f"induced_morphism codomain must have dim-3 mod-{p} labels")
    if not all(map(isinstance, domain.labels, repeat(IntMatrix3))):
        raise ValueError("induced_morphism domain must have IntMatrix3 labels")
    # each entry row mod p as the base-p number of its residues, in int64
    # while p^9 fits; the codomain's last vertex with a number is its image
    digits = np.array([p ** k for k in range(9)], np.int64 if p ** 9 < 2 ** 63 else object)
    targets = np.array([lab.entries for lab in codomain.labels], np.int64).reshape(-1, 9)
    index = dict(zip((targets @ digits).tolist(), range(codomain.n)))
    vmap = list(map(index.get, ((entry_array(domain.labels) % p) @ digits).tolist(),
                    repeat(-1)))
    images = np.array(vmap, dtype=np.int64)
    i, j = domain._edge_ends()
    mi, mj = images[i], images[j]
    mapped = (mi >= 0) & (mj >= 0)
    merged = mapped & (mi == mj)
    ci, cj = codomain._edge_ends()
    keys = np.minimum(mi, mj) * codomain.n + np.maximum(mi, mj)
    unpreserved = mapped & ~merged & ~np.isin(keys, ci * codomain.n + cj)
    missing = np.flatnonzero(images < 0).tolist()
    unpreserved_edges = list(zip(i[unpreserved].tolist(), j[unpreserved].tolist()))
    merged_pairs = list(zip(i[merged].tolist(), j[merged].tolist()))
    ok = not (missing or unpreserved_edges or merged_pairs)
    return MorphismReport(ok, GraphMorphism(domain, codomain, tuple(vmap)) if ok else None,
                          missing, unpreserved_edges, merged_pairs, p, domain.edge_count)


ISO_VERTEX_LIMIT = 100


def graph_isomorphic(g1: TriangleGraph, g2: TriangleGraph) -> list[int] | None:
    """An explicit bijection g1 -> g2 mapping edges onto edges and loops onto
    loops, as a list indexed by g1's vertices, or None.  networkx's VF2++
    search (Juttner and Madarasi, Discrete Appl. Math. 2018) on one nx.Graph
    per side, each loop a self-edge; deterministic, limited to 100 vertices
    per side."""
    if g1.n > ISO_VERTEX_LIMIT or g2.n > ISO_VERTEX_LIMIT:
        raise ValueError(f"isomorphism search limited to {ISO_VERTEX_LIMIT} vertices")
    if g1.n == g2.n == 0:
        return []  # VF2++ answers None for empty graphs
    import networkx as nx

    def as_nx(g: TriangleGraph):
        h = nx.empty_graph(g.n)  # nodes 0..n-1
        h.add_edges_from([*g.edges(), *((v, v) for v in sorted(g.loops))])
        return h

    mapping = nx.vf2pp_isomorphism(as_nx(g1), as_nx(g2))
    return None if mapping is None else [mapping[v] for v in range(g1.n)]
