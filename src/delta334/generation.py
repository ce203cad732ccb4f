"""Finite portions of the SL3(Z) triangle graph.

Vertices come from a conjugation-closure BFS: starting from seed matrices of
order three (the classic generator pairs' order-3 members plus a parametric
family), repeatedly conjugate by the elementary matrices E_ij(+-1) and close
under inverses, discarding anything whose entries leave the configured bound.
Conjugation preserves order exactly, so every vertex has order three; the
identity never appears.  Each layer of the BFS is one step on the (n, 9)
int64 entry array of its candidates, which admits exactly what offering
them one at a time would.

Edges come from one exact kernel.  If (AB)^4 = I then AB has order
dividing 4, its eigenvalues are a subset of {1, -1, i, -i} closed under
conjugation with product 1, so t = trace(AB) is 3, -1, or 1.  The same
holds for s = trace(adj(AB)), the second characteristic coefficient, and s
must equal t.  Conversely det(AB) = 1 with (t, s) = (1, 1) forces the
characteristic polynomial (x-1)(x^2+1), squarefree, so (AB)^4 = I
outright; (t, s) = (-1, -1) needs (AB)^2 = I.  An edge with t = 3 has
every eigenvalue 1, and a matrix of finite order is diagonalisable over C,
so AB = I and B = A^(-1).  Other pairs can have (t, s) = (3, 3): their
products are unipotent but not I, and they are not edges.

Reduction mod 2 is a homomorphism, so both ends of an edge reduce to
adjacent vertices of the 56-vertex SL3(2) graph.  The vertices are grouped
by their image mod 2, and traces are computed only for pairs in adjacent
classes: about 35 % of all pairs on the default portion.  Two vertices with
the same image are never adjacent (see _edges_with_prefilter).

Both traces are Gram-matrix products, one over the matrices and one over
their adjugates.  They are computed as float64 BLAS products of centred
residues modulo one prime p < 2^25, which are exact integers for any entry
size, in blocks of about 2^18 entries (2 MiB) so that each block's
elementwise passes run from a core's L2 cache.  Each block's products are
issued as tiles of fewer than 2^19 multiply-adds, which OpenBLAS runs on
the calling thread: two processes that each started BLAS threads would
oversubscribe two cores, and with 9-term dot products threads gain nothing.
A pass over at least SPLIT_PAIRS pairs shares its blocks, as units in
order, with one forked worker when a second CPU is there to use
(`_Shared`); the worker reports each block's edge keys and counters, and
any block it does not report is run here, so the edges and counters are
the same on one CPU or two.

The t block is reduced mod p only when it can wrap: |t| <= 9 M^2 for the
largest entry M, so while 9 M^2 <= p // 2 (M <= 1365, every default
portion) t is the trace over Z itself.  Pairs with (t, s) = (1, 1) or (-1, -1) mod p survive and are
decided exactly from P = AB: in int64 while 54 M^4 < 2^63, on numpy arrays
of Python ints beyond.  Pairs with t = 3 mod p are dropped: the only edges
among them are the inverse pairs, which are added from the vertex list
directly.

The mod-p verification program from the source material runs against these
portions: no vertex reduces to the identity mod p, every edge maps to an
edge with distinct endpoints, and the pulled-back coloring of the mod-2
graph is proper, bounding the portion's chromatic number by eight.
"""

from __future__ import annotations

import gc
import json
import os
import signal
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import product, repeat

import numpy as np

from .cliques import CliqueResult, clique_number
from .coloring import (Coloring, ChromaticResult, chromatic_bounds,
                       chromatic_number_exact, heuristic_chromatic_upper,
                       improve_coloring, lift_coloring)
from .elements import (DEFAULT_ENTRY_LIMIT, CarrierMismatchError, IntMatrix3,
                       MAT3_IDENTITY, element_key, entry_array,
                       has_order_dividing_3, int_matrices, is_prime, key_order,
                       key_words, mat3_adjugate, parametric_order3, serialize_element)
from .graph import (MorphismReport, TriangleGraph,
                    _mod_p_edge_table, build_delta334, induced_morphism)
from .groups import order3_vertices, parse_group_spec

# Order-3 members of the generator pairs quoted in the source material's
# introduction.  The 2x2 pair there has no order-3 members and contributes
# nothing; these four all satisfy m^3 = I.
INTRO_ORDER3_SEEDS = (
    IntMatrix3((0, 0, 1, 1, 0, 0, 0, 1, 0)),
    IntMatrix3((1, 2, 3, 0, -2, -1, 0, 3, 1)),
    IntMatrix3((1, 1, 2, 0, 1, 1, 0, -3, -2)),
    IntMatrix3((-2, 0, -1, -5, 1, -1, 3, 0, 1)),
)

DEFAULT_CONJ_DEPTH = 6
DEFAULT_ENTRY_BOUND = 10 ** 9
DEFAULT_TARGET_VERTICES = 25_000
DEFAULT_FAMILY_BOUND = 1
DEFAULT_COLOR_TIME_BUDGET = 120.0  # seconds for a portion's own chi search

VERIFICATION_PRIMES = (2, 3, 5)

# the conjugators E_ij(s) = I + s e_ij, i != j, s = +-1, as (i, j, s) in
# the BFS's order
_ELEMENTARY_CONJUGATORS = tuple(
    (i, j, s) for i in range(3) for j in range(3) if i != j for s in (1, -1))


def family_seeds(family_bound: int) -> list[IntMatrix3]:
    """Parametric-family members over |a|, |b|, |c| <= family_bound.
    A bound of zero means no family contribution at all."""
    if family_bound <= 0:
        return []
    rng = range(-family_bound, family_bound + 1)
    return [parametric_order3(a, b, c) for a, b, c in product(rng, rng, rng)]


def load_seeds_file(path) -> list[IntMatrix3]:
    """Seeds file: a JSON list of row-major 9-integer arrays."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, list):
        raise ValueError("seeds file must be a JSON list of 9-integer arrays")
    out = []
    for i, entry in enumerate(doc):
        if not (isinstance(entry, list) and len(entry) == 9
                and all(isinstance(x, int) for x in entry)):
            raise ValueError(f"seed {i} is not a 9-integer array")
        out.append(IntMatrix3(entry))
    return out


@dataclass(frozen=True)
class GenerationConfig:
    """Knobs for the conjugation-closure BFS.

    seeds None means the built-in intro-pair seeds; an explicit tuple
    replaces them (an empty tuple drops them).  The parametric family is
    controlled separately by family_bound and is always added on top;
    family_bound 0 disables it.  Every seed must have order exactly 3;
    entry_bound must stay within the carrier's own overflow contract.
    """

    seeds: tuple[IntMatrix3, ...] | None = None
    conj_depth: int = DEFAULT_CONJ_DEPTH
    entry_bound: int = DEFAULT_ENTRY_BOUND
    target_vertices: int = DEFAULT_TARGET_VERTICES
    family_bound: int = DEFAULT_FAMILY_BOUND

    def __post_init__(self):
        if self.conj_depth < 0:
            raise ValueError("conj_depth must be >= 0")
        if not 0 < self.entry_bound <= DEFAULT_ENTRY_LIMIT:
            raise ValueError(f"entry_bound must be in (0, {DEFAULT_ENTRY_LIMIT}]")
        if self.target_vertices < 1:
            raise ValueError("target_vertices must be >= 1")
        if self.family_bound < 0:
            raise ValueError("family_bound must be >= 0")
        if self.seeds is not None:
            object.__setattr__(self, "seeds", tuple(self.seeds))
            for m in self.seeds:
                if m.is_identity() or not has_order_dividing_3(m):
                    raise ValueError(f"seed {m!r} does not have order 3")
            if not self.seeds and self.family_bound == 0:
                raise ValueError("empty seed set")

    def resolved_seeds(self) -> list[IntMatrix3]:
        base = list(self.seeds) if self.seeds is not None else list(INTRO_ORDER3_SEEDS)
        seen: dict[bytes, IntMatrix3] = {}
        for m in base + family_seeds(self.family_bound):
            seen.setdefault(element_key(m), m)
        return [seen[k] for k in sorted(seen)]

    def to_json_dict(self) -> dict:
        return {
            "seeds": [serialize_element(m) for m in self.resolved_seeds()],
            "explicit_seeds": self.seeds is not None,
            "conj_depth": self.conj_depth,
            "entry_bound": self.entry_bound,
            "target_vertices": self.target_vertices,
            "family_bound": self.family_bound,
        }


@dataclass
class GenerationStats:
    """What the BFS and the edge pass did, for run-to-run comparability."""

    frontier_sizes: list[int] = field(default_factory=list)
    entry_bound_rejects: int = 0
    duplicate_hits: int = 0
    max_abs_entry: int = 0
    pairs_total: int = 0  # n (n - 1) / 2
    # pairs whose traces were computed: those with adjacent images mod 2
    pairs_evaluated: int = 0
    # evaluated pairs whose trace is 3, -1 or 1 mod p; exactly the evaluated
    # pairs with that trace over Z while 9 M^2 <= p // 2 (M the largest
    # entry, up to 1365)
    prefilter_candidates: int = 0
    exact_checks: int = 0  # pairs with t = s = -1 over Z, tested for P^2 = I
    edges_found: int = 0


@dataclass
class PortionGraph:
    """A built portion: the graph plus how it was made."""

    graph: TriangleGraph
    config: GenerationConfig
    stats: GenerationStats


def generate_portion(cfg: GenerationConfig) -> tuple[list[IntMatrix3], GenerationStats]:
    """Conjugation-closure BFS.  Returns (key-sorted vertices, stats).

    The vertex set is closed under inverses by construction: a matrix is
    admitted only together with its inverse, and only when both fit the
    entry bound.  Deterministic: layers are expanded in key order with a
    fixed conjugator order, and the target cutoff applies at admission time.
    The seeds are admitted the same way, with no cutoff.

    Each layer is one array step (`_admit`) over the (n, 9) int64 entries.
    """
    seeds = cfg.resolved_seeds()
    if not seeds:
        raise ValueError("empty seed set: no intro members, no family, none supplied")
    stats = GenerationStats()
    admitted = np.empty((0, 9), np.int64)
    frontier = entry_array(seeds)
    for depth in range(cfg.conj_depth + 1):
        if depth and (len(admitted) >= cfg.target_vertices or not len(frontier)):
            break
        room = cfg.target_vertices - len(admitted) if depth else None
        new = _admit(frontier, depth > 0, admitted, cfg.entry_bound, room, stats)
        admitted = np.concatenate((admitted, new))
        frontier = new[key_order(new)]
        stats.frontier_sizes.append(len(new))
    return int_matrices(admitted[key_order(admitted)]), stats


def _first_positions(rows: np.ndarray) -> np.ndarray:
    """For each int64 row, the position of the first row equal to it."""
    words = key_words(rows)
    order = np.lexsort(words.T[::-1])
    words = words[order]
    starts = np.ones(len(rows), bool)
    starts[1:] = (words[1:] != words[:-1]).any(axis=1)
    first = np.empty(len(rows), np.int64)
    first[order] = order[starts][np.cumsum(starts) - 1]  # stable: the first is least
    return first


def _admit(source: np.ndarray, conjugate: bool, admitted: np.ndarray, bound: int,
           room: int | None, stats: GenerationStats) -> np.ndarray:
    """One layer: the candidates (the source rows, or each source row's
    conjugates by the elementary matrices in order) offered in turn to the
    admitted set, as the scalar rule takes them.  A candidate C_t whose
    entries or whose square's (its inverse's) pass the bound is rejected.
    Otherwise it is a duplicate exactly when it is among the rows admitted
    before the layer or equals an earlier in-bound C_s or C_s^2, the rows
    the layer has added by then, so the first position of each row among
    the earlier rows, then C_0, C_0^2, C_1, C_1^2, ..., decides it.  Each
    admission adds two rows; the layer stops after the admission that
    brings the added rows to `room`.  Updates the stats over the candidates
    taken and returns the rows added, each admitted C_t and its square."""
    # a conjugate's entries are at most 4 M and its square's 48 M^2 for the
    # source's largest entry M; past int64 the products run on Python ints
    big = int(np.abs(source).max()) if len(source) else 0
    if 48 * big * big >= 2 ** 63:
        source = source.astype(object)
    cand = source.reshape(-1, 3, 3)
    if conjugate:
        cand = np.repeat(cand[:, None], len(_ELEMENTARY_CONJUGATORS), axis=1)
        for k, (i, j, s) in enumerate(_ELEMENTARY_CONJUGATORS):
            # E_ij(s) A E_ij(-s): row i += s row j, then column j -= s column i
            cand[:, k, i, :] += s * cand[:, k, j, :]
            cand[:, k, :, j] -= s * cand[:, k, :, i]
        cand = cand.reshape(-1, 3, 3)
    square = cand @ cand
    hi = np.maximum(np.abs(cand).max(axis=(1, 2)), np.abs(square).max(axis=(1, 2)))
    inbound = np.flatnonzero(hi <= bound)
    # the rows admitted before the layer, then C_t, C_t^2 for in-bound t
    rows = np.empty((len(admitted) + 2 * len(inbound), 9), np.int64)
    rows[:len(admitted)] = admitted
    pairs = rows[len(admitted):].reshape(-1, 2, 9)
    for k, arr in enumerate((cand, square)):
        np.take(arr.reshape(-1, 9), inbound, axis=0, out=pairs[:, k], mode="clip")
    del cand, square
    at = len(admitted) + 2 * np.arange(len(inbound))  # C_t's position
    admit = _first_positions(rows)[at] == at
    taken = len(hi)
    if room is not None:
        added = 2 * np.cumsum(admit)
        stop = np.searchsorted(added, room)  # the admission that reaches room
        if stop < len(inbound):
            taken = int(inbound[stop]) + 1
            admit[stop + 1:] = False
    kept = inbound < taken
    stats.entry_bound_rejects += taken - int(kept.sum())
    stats.duplicate_hits += int((kept & ~admit).sum())
    if admit.any():
        stats.max_abs_entry = max(stats.max_abs_entry, int(hi[inbound[admit]].max()))
    new = pairs[admit]
    # order three: no admitted C_t is I, and C_t C_t^2 = I (int64 products
    # wrap mod 2^64, which leaves a true product of I as I)
    assert not (new[:, 0] == MAT3_IDENTITY).all(axis=1).any()
    mats = new.reshape(-1, 2, 3, 3)
    assert (mats[:, 0] @ mats[:, 1] == np.eye(3, dtype=np.int64)).all()
    return new.reshape(-1, 9)


def build_portion_edges(vertices, cfg: GenerationConfig | None = None,
                        stats: GenerationStats | None = None,
                        validate: bool = True) -> PortionGraph:
    """Adjacency over the pairs whose images mod 2 are adjacent: a residue
    filter on the traces, then exact (AB)^4 = I decisions on the survivors."""
    verts = sorted(vertices, key=element_key)
    if validate:
        for v in verts:
            if v.is_identity() or not has_order_dividing_3(v):
                raise ValueError(f"portion vertex {v!r} does not have order 3")
    cfg = cfg or GenerationConfig()
    stats = stats or GenerationStats()
    n = len(verts)
    stats.pairs_total = n * (n - 1) // 2

    entries = entry_array(verts)
    maxabs = int(np.abs(entries).max()) if n else 0
    evaluated, candidates_count, exact_checks, edges = _edges_with_prefilter(entries, maxabs)
    stats.pairs_evaluated = evaluated
    stats.prefilter_candidates = candidates_count
    stats.exact_checks = exact_checks
    stats.edges_found = len(edges)
    stats.max_abs_entry = max(stats.max_abs_entry, maxabs)

    meta = {
        "source": "sl3z-portion",
        "generation": {"config": cfg.to_json_dict(), "stats": asdict(stats)},
    }
    graph = TriangleGraph(verts, edges, meta=meta)
    return PortionGraph(graph, cfg, stats)


# A prime just under 2^25: centred residues are below 2^24 in magnitude, so
# every partial sum of a 9-term residue dot product stays below
# 9 * (p/2)^2 < 2^53 and float64 Gram products are exact integers.
_RESIDUE_PRIME = 33_554_393

# Entries per block of the edge pass's Gram products, and so per unit of a
# split pass: 1 << 18 float64 is 2 MiB, a core's L2 cache on the 2-core VM
# of BENCH_edge_pass.json, and each block's elementwise passes run from
# there.  Smaller blocks cost more BLAS tiles and more units.  Warm 25k
# passes on two processes, medians of seven, 1 << 16 / 17 / 18 / 19 / 21:
# 0.98 / 0.84 / 0.80 / 0.81 / 0.85 s (BENCH_edge_pass_parallel.json)
_BLOCK_ENTRIES = 1 << 18

# Multiply-adds per BLAS call of the Gram products, rows x cols x 9: this
# numpy's OpenBLAS (0.3.31) runs a GEMM of fewer than 2^19 on the calling
# thread and a larger one on two threads
_TILE_MACS = 1 << 19

# A pass over at least this many pairs splits over two processes.  Below
# it, the fork costs about what the second core saves: on two CPUs, medians
# of 15 passes, the split took 0.011 against 0.007 s at 300 vertices (18 k
# pairs), 0.029 against 0.032 s at 2,000 (0.73 M) and 0.058 against
# 0.084 s at 4,000 (2.9 M)
SPLIT_PAIRS = 1 << 20


def _transposed_flat(arr: np.ndarray, n: int) -> np.ndarray:
    # trace(A @ B) is the dot product of A flattened with B-transposed
    # flattened, so one Gram product gives all pairwise traces
    return np.ascontiguousarray(arr.reshape(n, 3, 3).transpose(0, 2, 1).reshape(n, 9))


def _centred(x: np.ndarray) -> np.ndarray:
    h = _RESIDUE_PRIME // 2
    return (x + h) % _RESIDUE_PRIME - h


def _gram(rows: np.ndarray, cols: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = rows @ cols.T, written by BLAS products of fewer than
    _TILE_MACS multiply-adds each into views of `out`.  A tile spans every
    column while that leaves it at least 32 rows, and otherwise every row:
    thinner tiles cost more per entry (on a 52 x 5000 block, single-threaded,
    11-row tiles took 1.5 times as long as one product, 1120-column ones
    1.1 times)."""
    h, m = out.shape
    most = (_TILE_MACS - 1) // rows.shape[1]  # entries per tile
    r = most // m if most // m >= 32 else min(h, most)
    w = min(m, most // r)
    for c in range(0, m, w):
        tile = cols[c:c + w].T
        for i in range(0, h, r):
            np.matmul(rows[i:i + r], tile, out=out[i:i + r, c:c + w])
    return out


def _reduce_float(x: np.ndarray) -> np.ndarray:
    """x minus the nearest multiple of p, in place: an exact representative
    of x mod p, and exactly 1, -1 or 3 whenever x is congruent to one of
    them (rounding of x / p can only err near half-multiples of p)."""
    q = x * (1.0 / _RESIDUE_PRIME)
    np.rint(q, out=q)
    q *= _RESIDUE_PRIME
    x -= q
    return x


def _edges_with_prefilter(entries: np.ndarray, maxabs: int):
    """(pairs evaluated, trace candidates, exact power checks, edges), the
    edges an (m, 2) int64 array of (i, j), i < j, lexicographically sorted.

    One path for every entry size.  Reduction mod 2 is a homomorphism, so an
    edge joins two vertices whose images mod 2 are adjacent in the SL3(2)
    graph: the vertices are grouped by image, and only rows of one class
    against the columns of the adjacent classes after it are evaluated.
    Same-class pairs are never edges.  The torsion of the level-2 congruence
    subgroup has order at most 2 (Minkowski), so an order-3 matrix over Z
    reduces to an element a of order 3, and (aa)^4 = a^2 is not e; the
    table's diagonal is asserted empty.  On the evaluated pairs, residue
    Gram products mod p filter the traces and the survivors are decided
    exactly in integer arithmetic.  The units of work are the blocks of one
    class's rows, run by `_Shared`: here only, or also by one forked worker
    when the pass evaluates at least SPLIT_PAIRS pairs."""
    n = len(entries)
    if n < 2:
        return 0, 0, 0, np.empty((0, 2), np.int64)
    # P = A_i A_j has entries up to 3 M^2 and principal-minor sum up to
    # 54 M^4; past int64 the same expressions run on Python ints
    flat = entries if 54 * maxabs ** 4 < 2 ** 63 else entries.astype(object)
    codes, cls = np.unique((flat % 2).astype(np.int64) @ (1 << np.arange(9)),
                           return_inverse=True)
    adjacent = _mod_p_edge_table((codes[:, None] >> np.arange(9)) & 1, 2)
    assert not adjacent.diagonal().any(), "an order-3 vertex is adjacent to its class"
    # rows sorted by class; order maps a sorted position to its vertex
    order = np.argsort(cls, kind="stable")
    sorted_cls = cls[order]
    starts = np.searchsorted(sorted_cls, np.arange(len(codes) + 1))
    flat = flat[order]
    mats = flat.reshape(n, 3, 3)
    res = _centred((flat % _RESIDUE_PRIME).astype(np.int64))
    adj = _centred(np.stack(mat3_adjugate(res.T), axis=1))
    res_f = res.astype(np.float64)
    adj_f = adj.astype(np.float64)
    res_t = _transposed_flat(res_f, n)
    adj_t = _transposed_flat(adj_f, n)
    # |t| <= 9 M^2.  While that is at most p // 2 the centred residues are
    # the entries, t is the trace over Z and reducing it would change
    # nothing; the gathered s candidates are reduced either way
    reduce_t = 9 * maxabs ** 2 > _RESIDUE_PRIME // 2
    classes = np.arange(len(codes))
    later = adjacent & (classes > classes[:, None])  # each class's columns: adjacent, after it
    widths = later.astype(np.int64) @ np.diff(starts)
    # units of work: (class, first row, end row), the rows of one block
    units = [(a, lo, min(lo + rows, starts[a + 1]))
             for a in classes if widths[a]
             for rows in [max(1, min(1024, _BLOCK_ENTRIES // widths[a]))]
             for lo in range(starts[a], starts[a + 1], rows)]

    @lru_cache(maxsize=1)
    def columns(a):
        cols = np.flatnonzero(later[a][sorted_cls])
        return cols, res_t[cols], adj_t[cols]

    def run(u: int):
        """(trace candidates, exact power checks, edge keys) of unit u."""
        a, lo, hi = units[u]
        cols, col_res, col_adj = columns(a)
        m = cols.size
        t = _gram(res_f[lo:hi], col_res, np.empty((hi - lo, m)))
        if reduce_t:
            _reduce_float(t)
        keep = t == 1
        keep |= t == -1
        keep |= t == 3
        idx = np.flatnonzero(keep)
        # an edge with t = 3 has AB = I: the inverse pairs, added apart.
        # The (1, 1) and (-1, -1) classes must also have s = t mod p
        tr = t.ravel()[idx]
        s = _reduce_float(_gram(adj_f[lo:hi], col_adj, t).ravel()[idx])
        del t  # before the exact decision's arrays: the block is the largest
        gi, gj = np.divmod(idx[(tr != 3) & (s == tr)], m)
        gi += lo
        gj = cols[gj]
        P = mats[gi] @ mats[gj]
        tp = P[:, 0, 0] + P[:, 1, 1] + P[:, 2, 2]
        sp = (P[:, 1, 1] * P[:, 2, 2] - P[:, 1, 2] * P[:, 2, 1]
              + P[:, 0, 0] * P[:, 2, 2] - P[:, 0, 2] * P[:, 2, 0]
              + P[:, 0, 0] * P[:, 1, 1] - P[:, 0, 1] * P[:, 1, 0])
        # (1, 1): characteristic polynomial (x-1)(x^2+1), an edge outright;
        # (-1, -1): an edge exactly when P^2 = I
        edge = (tp == sp) & (tp == 1)
        minus = np.flatnonzero((tp == sp) & (tp == -1))
        Pm = P[minus]
        edge[minus] = (Pm @ Pm == np.eye(3, dtype=np.int64)).all(axis=(1, 2))
        vi = order[gi[edge]]
        vj = order[gj[edge]]
        return idx.size, minus.size, np.minimum(vi, vj) * n + np.maximum(vi, vj)

    def work(taken, send):
        for u in taken:
            send((u, *run(u)))

    pairs = int(sum((hi - lo) * widths[a] for a, lo, hi in units))
    with _Shared(len(units), work, fork=pairs >= SPLIT_PAIRS) as shared:
        inverse_keys = _inverse_keys(entries)  # while the worker takes the first units
        shared.run(run)
    results = shared.results.values()
    # edges as keys i n + j with i < j: the inverse pairs and each unit's
    keys = np.concatenate([inverse_keys, *(r[2] for r in results)])
    edges = np.stack(np.divmod(np.sort(keys), n), axis=1)
    return (pairs, sum(int(r[0]) for r in results), sum(int(r[1]) for r in results), edges)


def _inverse_keys(entries: np.ndarray) -> np.ndarray:
    """The keys i n + j of the pairs i < j of mutually inverse vertices: j
    is the last vertex equal to the square of i (inverse, at order 3).
    Squares run in int64 while 3 M^2 < 2^63, on Python ints beyond, where
    a square past the entry bound is no vertex."""
    n = len(entries)
    big = int(np.abs(entries).max()) if n else 0
    mats = entries.reshape(n, 3, 3)
    square = (mats if 3 * big * big < 2 ** 63 else mats.astype(object)) @ mats
    square = square.reshape(n, 9)
    fits = np.flatnonzero((np.abs(square) < DEFAULT_ENTRY_LIMIT).all(axis=1))
    where = _first_positions(np.concatenate((entries[::-1], square[fits].astype(np.int64))))
    inv = np.full(n, -1, dtype=np.int64)
    found = where[n:] < n
    inv[fits[found]] = n - 1 - where[n:][found]
    first = np.arange(n)
    return (first * n + inv)[inv > first]


def _second_cpu() -> bool:
    """Whether this process may run on two CPUs and can fork a worker."""
    affinity = getattr(os, "sched_getaffinity", None)
    return hasattr(os, "fork") and affinity is not None and len(affinity(0)) >= 2


class _Shared:
    """Units 0, 1, ..., count - 1 of one job, run by this process and, when
    `fork` holds and the process may run on two CPUs and can fork, by one
    forked worker as well ("Embarrassingly Parallel Search", Regin, Rezgui
    and Malapert, CP 2013).  Both processes take the units in order from a
    token passed through a pipe.  The worker runs work(taken, send):
    `taken` yields the units it takes until none is left, and `send`
    reports (unit, *result) over a second pipe into this process's
    `results`, {unit: result}.  Used as a context manager; on exit the
    worker is killed, finished or not, and reaped."""

    def __init__(self, count: int, work, fork: bool = True):
        self.count, self.results = count, {}
        self.pid = self.reports = None
        self.first = 0  # no unit before it lacks a result
        if not (fork and _second_cpu()):
            return
        # imported here: ~1 MiB of modules that a pass which never splits does not need
        from multiprocessing.connection import Pipe, wait
        self._wait = wait
        self.token_r, self.token_w = os.pipe()  # holds the next unit while no process takes it
        os.set_blocking(self.token_r, False)
        os.write(self.token_w, (0).to_bytes(4, "little"))
        self.reports, report = Pipe(duplex=False)
        try:
            self.pid = os.fork()
        except OSError:  # no worker: this process runs every unit
            pass
        if self.pid == 0:
            code = 1
            try:
                gc.disable()  # a collection would touch, and so copy, the whole inherited heap
                self.reports.close()
                work(self._taken(), report.send)
                code = 0
            finally:
                os._exit(code)
        report.close()

    @property
    def worker(self) -> bool:
        """Whether a worker may still report."""
        return self.pid is not None and not self.reports.closed

    def _taken(self):
        """The units the worker takes, in order, until none is left."""
        while True:
            i = _take(self.token_r, self.token_w)
            if i is None:
                self._wait([self.token_r])
            elif i < self.count:
                yield i
            else:
                return

    def receive(self):
        """Store the worker's next report in `results`; once the worker is
        gone, close its pipe instead, so that `worker` turns false."""
        try:
            i, *result = self.reports.recv()
        except EOFError:
            self.reports.close()
            return
        self.results[i] = tuple(result)

    def missing(self) -> int | None:
        """The first unit without a result, None when every one has one."""
        while self.first < self.count and self.first in self.results:
            self.first += 1
        return self.first if self.first < self.count else None

    def run(self, run):
        """Compute results here, run(unit), until every unit has one.  With
        no worker left, the unit run next is the first without a result.
        While there is one, this process takes units from the token until
        none is left and stores the worker's reports as they arrive."""
        taking = True
        while (i := self.missing()) is not None:
            if self.worker:
                if self.reports in self._wait([self.reports, self.token_r] if taking
                                              else [self.reports]):
                    self.receive()
                    continue
                i = _take(self.token_r, self.token_w)
                if i is None:
                    continue
                if i >= self.count:
                    taking = False
                    continue
            self.results[i] = run(i)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        if self.reports is not None:
            self.reports.close()
            os.close(self.token_r)
            os.close(self.token_w)


def _take(token_r: int, token_w: int) -> int | None:
    """The index in the token, putting back the next one, or None while the
    other process holds the token."""
    try:
        token = os.read(token_r, 4)
    except BlockingIOError:
        return None
    i = int.from_bytes(token, "little")
    os.write(token_w, (i + 1).to_bytes(4, "little"))
    return i


def generate_and_build(cfg: GenerationConfig) -> PortionGraph:
    vertices, stats = generate_portion(cfg)
    return build_portion_edges(vertices, cfg, stats, validate=False)


@dataclass
class IdentityReductionReport:
    """Mod-p identity-reduction scan: the lemma predicts zero violations."""

    p: int
    checked: int
    violations: list[int]  # vertex indices whose reduction is the identity

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_no_identity_reduction(vertices, p: int) -> IdentityReductionReport:
    """Entrywise reduction of every IntMatrix3 vertex, compared with the
    identity, on the (n, 9) entry array.  No ModMatrix is built: its
    det = 1 (mod p) check is implied by the IntMatrix3 carrier's det = 1."""
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
    verts = list(vertices)
    if not all(map(isinstance, verts, repeat(IntMatrix3))):
        raise CarrierMismatchError("identity reduction expects IntMatrix3 vertices")
    identity = (entry_array(verts) % p == MAT3_IDENTITY).all(axis=1)
    return IdentityReductionReport(p, len(verts), np.flatnonzero(identity).tolist())


def verify_edge_preservation(portion, p: int,
                             codomain: TriangleGraph | None = None) -> MorphismReport:
    """Mod-p edge preservation: every portion edge must map to a codomain
    edge with distinct endpoints."""
    graph = portion.graph if isinstance(portion, PortionGraph) else portion
    if codomain is None:
        codomain = mod_p_codomain(p)
    return induced_morphism(graph, p, codomain)


def mod_p_codomain(p: int) -> TriangleGraph:
    """The full mod-p triangle graph (identity dropped)."""
    return build_delta334(order3_vertices(parse_group_spec(f"SL3({p})")))


@dataclass(kw_only=True)
class PortionChromaticBounds(ChromaticResult):
    """`chromatic_bounds` of a portion's clique, its own search, and the
    lifted mod-2 coloring and its refinement, with the clique, the lift
    (None when reduction mod 2 is not a morphism) and the search attached.
    A clique of size four would contradict the source material's
    conjecture: it is flagged as a discovery, not an error.
    """

    clique: CliqueResult
    lifted: Coloring | None
    own: ChromaticResult

    @property
    def best_coloring(self) -> Coloring:
        """`coloring`, under the name that perfbench/workloads.py reads."""
        return self.coloring

    @property
    def clique_discovery(self) -> bool:
        """A clique larger than 3 turned up."""
        return self.clique.size > 3

    def to_json_dict(self) -> dict:
        """ChromaticResult's form plus the lift's size and the clique, the
        latter in the `clique` command's form."""
        return {**super().to_json_dict(),
                "lifted_num_colors": self.lifted.num_colors if self.lifted else None,
                "clique": asdict(self.clique), "clique_discovery": self.clique_discovery}


def portion_chromatic_bounds(portion, *,
                             codomain: TriangleGraph | None = None,
                             codomain_coloring: Coloring | None = None,
                             color_time_budget: float | None = DEFAULT_COLOR_TIME_BUDGET,
                             color_node_budget: int | None = None,
                             reduction: MorphismReport | None = None) -> PortionChromaticBounds:
    """Certified chromatic bounds for a portion graph.

    Lower bound: the clique found, budget cut or not, and whatever the
    bounded exact search proves.  Upper bound: best of the exact search's
    coloring, the mod-2 lifted coloring, and an iterated-greedy refinement of
    the lift.  The lift pulls back codomain_coloring, by default the
    codomain's heuristic coloring (eight colors on SL3(2), the optimum; no
    chi proof is run).  The exact search is time-boxed
    (DEFAULT_COLOR_TIME_BUDGET; pass None to lift the cap) because portion
    cores routinely exceed what branch-and-bound can exhaust.
    color_node_budget caps the one clique search, whose clique the exact
    search reuses, and the exact search alike; None means each solver's
    default.  `reduction` is the graph's mod-2 reduction report, such as
    verify_edge_preservation(portion, 2, codomain) gives, when the caller
    has it; otherwise it is built here.  ValueError when the labels are not
    IntMatrix3, the codomain is not a mod-2 triangle graph, or `reduction`
    is of another prime or maps another graph.
    """
    graph = portion.graph if isinstance(portion, PortionGraph) else portion

    lifted = refined = None
    if codomain is None:
        codomain = mod_p_codomain(2)
    if reduction is None:
        reduction = induced_morphism(graph, 2, codomain)
    elif reduction.prime != 2 or reduction.ok and reduction.morphism.domain is not graph:
        raise ValueError("reduction is not the portion graph's mod-2 reduction")
    morphism = reduction.morphism
    if morphism is not None:
        if codomain_coloring is None:
            codomain_coloring = heuristic_chromatic_upper(codomain)
        lifted = lift_coloring(morphism, codomain_coloring)

    clique = clique_number(graph, node_budget=color_node_budget)
    own = chromatic_number_exact(graph, time_budget=color_time_budget,
                                 node_budget=color_node_budget, clique=clique)
    if lifted is not None:
        refined = improve_coloring(graph, lifted, rounds=60)
    res = chromatic_bounds(graph, clique, own, (lifted, refined))
    return PortionChromaticBounds(**vars(res), clique=clique, lifted=lifted, own=own)
