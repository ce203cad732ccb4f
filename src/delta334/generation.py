"""Finite portions of the SL3(Z) triangle graph.

Vertices come from a conjugation-closure BFS: starting from seed matrices of
order three (the classic generator pairs' order-3 members plus a parametric
family), repeatedly conjugate by the elementary matrices E_ij(+-1) and close
under inverses, discarding anything whose entries leave the configured bound.
Conjugation preserves order exactly, so every vertex has order three; the
identity never appears.

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
elementwise passes run from a core's L2 cache.  The t block is reduced mod
p only when it can wrap: |t| <= 9 M^2 for the largest entry M, so while
9 M^2 <= p // 2 (M <= 1365, every default portion) t is the trace over Z
itself.  Pairs with (t, s) = (1, 1) or (-1, -1) mod p survive and are
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

import json
import struct
from dataclasses import asdict, dataclass, field
from itertools import chain, product

import numpy as np

from .cliques import CliqueResult, clique_number
from .coloring import (Coloring, ChromaticResult, chromatic_bounds,
                       chromatic_number_exact, heuristic_chromatic_upper,
                       improve_coloring, lift_coloring)
from .elements import (DEFAULT_ENTRY_LIMIT, CarrierMismatchError, IntMatrix3,
                       MAT3_IDENTITY, element_key,
                       has_order_dividing_3, is_prime, mat3_adjugate, mat3_mul,
                       parametric_order3, serialize_element)
from .graph import (MorphismReport, TriangleGraph,
                    _mod3_pairwise_edges, build_delta334, induced_morphism)
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

# E_ij(s) for i != j, s = +-1, as (matrix, inverse) entry tuples
_ELEMENTARY_CONJUGATORS = tuple(
    (tuple(1 if r == c else (s if (r, c) == (i, j) else 0)
           for r in range(3) for c in range(3)),
     tuple(1 if r == c else (-s if (r, c) == (i, j) else 0)
           for r in range(3) for c in range(3)))
    for i in range(3) for j in range(3) if i != j for s in (1, -1)
)


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
    """
    seeds = cfg.resolved_seeds()
    if not seeds:
        raise ValueError("empty seed set: no intro members, no family, none supplied")
    bound = cfg.entry_bound
    stats = GenerationStats()
    admitted: dict[bytes, tuple] = {}

    def admit(entries: tuple) -> bool:
        try:
            key = _entries_key(entries)
        except struct.error:  # past int64, so past any entry bound
            stats.entry_bound_rejects += 1
            return False
        if key in admitted:
            stats.duplicate_hits += 1
            return False
        inv = mat3_mul(entries, entries)  # order 3: inverse is the square
        hi = max(max(abs(e) for e in entries), max(abs(e) for e in inv))
        if hi > bound:
            stats.entry_bound_rejects += 1
            return False
        assert entries != MAT3_IDENTITY
        assert mat3_mul(entries, inv) == MAT3_IDENTITY
        admitted[key] = entries
        ikey = _entries_key(inv)
        if ikey not in admitted:
            admitted[ikey] = inv
        stats.max_abs_entry = max(stats.max_abs_entry, hi)
        return True

    before = len(admitted)
    for m in seeds:
        admit(m.entries)
    frontier = sorted(admitted)
    stats.frontier_sizes.append(len(admitted) - before)

    for _ in range(cfg.conj_depth):
        if len(admitted) >= cfg.target_vertices or not frontier:
            break
        before = len(admitted)
        for key in frontier:
            v = admitted[key]
            for conj, conj_inv in _ELEMENTARY_CONJUGATORS:
                w = mat3_mul(conj, mat3_mul(v, conj_inv))
                admit(w)
                if len(admitted) >= cfg.target_vertices:
                    break
            if len(admitted) >= cfg.target_vertices:
                break
        # dict preserves admission order, so this layer's vertices (including
        # inverses added alongside) are exactly the tail
        frontier = sorted(list(admitted)[before:])
        stats.frontier_sizes.append(len(admitted) - before)

    vertices = sorted((IntMatrix3(e) for e in admitted.values()), key=element_key)
    return vertices, stats


def _entries_key(entries: tuple) -> bytes:
    return struct.pack("<9q", *entries)


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

    entries = [v.entries for v in verts]
    maxabs = max(map(abs, chain.from_iterable(entries)), default=0)
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

# Entries per block of the edge pass's Gram products: 1 << 18 float64 is
# 2 MiB, a core's L2 cache on the 2-core VM of BENCH_edge_pass.json, and
# each block's elementwise passes run from there.  Smaller blocks cost more
# BLAS calls, each streaming all of a class's columns for fewer rows.  Warm
# passes, medians, 1 << 16 / 17 / 18 / 21: 25k 1.11 / 0.97 / 0.95 / 0.97 s,
# 100k 18.1 / 12.8 / 11.7 / 10.4 s.  The 5k pass peaks at 48 MiB RSS here,
# 55 MiB with 1 << 21 and t always reduced
_BLOCK_ENTRIES = 1 << 18


def _transposed_flat(arr: np.ndarray, n: int) -> np.ndarray:
    # trace(A @ B) is the dot product of A flattened with B-transposed
    # flattened, so one Gram product gives all pairwise traces
    return np.ascontiguousarray(arr.reshape(n, 3, 3).transpose(0, 2, 1).reshape(n, 9))


def _centred(x: np.ndarray) -> np.ndarray:
    h = _RESIDUE_PRIME // 2
    return (x + h) % _RESIDUE_PRIME - h


def _reduce_float(x: np.ndarray) -> np.ndarray:
    """x minus the nearest multiple of p, in place: an exact representative
    of x mod p, and exactly 1, -1 or 3 whenever x is congruent to one of
    them (rounding of x / p can only err near half-multiples of p)."""
    q = x * (1.0 / _RESIDUE_PRIME)
    np.rint(q, out=q)
    q *= _RESIDUE_PRIME
    x -= q
    return x


def _edges_with_prefilter(entries: list[tuple], maxabs: int):
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
    exactly in integer arithmetic."""
    n = len(entries)
    if n < 2:
        return 0, 0, 0, np.empty((0, 2), np.int64)
    # P = A_i A_j has entries up to 3 M^2 and principal-minor sum up to
    # 54 M^4; past int64 the same expressions run on Python ints
    flat = np.array(entries, dtype=np.int64 if 54 * maxabs ** 4 < 2 ** 63 else object)
    codes, cls = np.unique((flat % 2).astype(np.int64) @ (1 << np.arange(9)),
                           return_inverse=True)
    adjacent = _mod3_pairwise_edges((codes[:, None] >> np.arange(9)) & 1, 2)
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
    # edges as keys i n + j with i < j, inverse pairs first.  The keys are
    # Python ints: small arrays kept alive across blocks pin the heap above
    # the freed block products (peak RSS after a fresh-process pass, int64
    # key arrays against these: 25k 90 against 89 MiB, 100k 410 against
    # 380 MiB; 5k 47.6 against 48.5 MiB)
    inv_idx = _inverse_indices(entries)
    first = np.arange(n)
    keys = (first * n + inv_idx)[inv_idx > first].tolist()
    # |t| <= 9 M^2.  While that is at most p // 2 the centred residues are
    # the entries, t is the trace over Z and reducing it would change
    # nothing; the gathered s candidates are reduced either way
    reduce_t = 9 * maxabs ** 2 > _RESIDUE_PRIME // 2
    evaluated = candidates = exact_checks = 0
    classes = np.arange(len(codes))
    for a in classes:
        # columns: every vertex of an adjacent class after a
        cols = np.flatnonzero((adjacent[a] & (classes > a))[sorted_cls])
        m = cols.size
        if not m:
            continue
        col_res = res_t[cols]
        col_adj = adj_t[cols]
        block_size = max(1, min(1024, _BLOCK_ENTRIES // m))
        for lo in range(starts[a], starts[a + 1], block_size):
            hi = min(lo + block_size, starts[a + 1])
            t = res_f[lo:hi] @ col_res.T
            if reduce_t:
                _reduce_float(t)
            idx = np.flatnonzero((t == 1) | (t == -1) | (t == 3))
            # an edge with t = 3 has AB = I: the inverse pairs, added above.
            # The (1, 1) and (-1, -1) classes must also have s = t mod p
            tr = t.ravel()[idx]
            del t  # the adjugate product below can take its memory
            s = _reduce_float((adj_f[lo:hi] @ col_adj.T).ravel()[idx])
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
            evaluated += int(hi - lo) * m
            candidates += int(idx.size)
            exact_checks += int(minus.size)
            vi = order[gi[edge]]
            vj = order[gj[edge]]
            keys.extend((np.minimum(vi, vj) * n + np.maximum(vi, vj)).tolist())
            # drop every block array before the next block allocates its
            # products: arrays left alive under them fragment the heap
            # (peak RSS after a fresh-process pass without the dels: 5k 54
            # against 48.5 MiB, 25k 90 against 89 MiB)
            del idx, tr, s, gi, gj, P, tp, sp, edge, minus, Pm, vi, vj
        del col_res, col_adj
    edges = np.stack(np.divmod(np.sort(np.array(keys, dtype=np.int64)), n), axis=1)
    return evaluated, candidates, exact_checks, edges


def _inverse_indices(entries: list[tuple]) -> np.ndarray:
    index = {row: i for i, row in enumerate(entries)}
    inv = np.full(len(entries), -1, dtype=np.int64)
    for i, row in enumerate(entries):
        j = index.get(mat3_mul(row, row))
        if j is not None:
            inv[i] = j
    return inv


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
    identity.  No ModMatrix is built: its det = 1 (mod p) check is implied
    by the IntMatrix3 carrier's det = 1."""
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
    violations = []
    verts = list(vertices)
    for i, v in enumerate(verts):
        if not isinstance(v, IntMatrix3):
            raise CarrierMismatchError("identity reduction expects IntMatrix3 vertices")
        if tuple(e % p for e in v.entries) == MAT3_IDENTITY:
            violations.append(i)
    return IdentityReductionReport(p, len(verts), violations)


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
                             color_node_budget: int | None = None) -> PortionChromaticBounds:
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
    default.  ValueError when the labels are not IntMatrix3 or the codomain
    is not a mod-2 triangle graph.
    """
    graph = portion.graph if isinstance(portion, PortionGraph) else portion

    lifted = refined = None
    if codomain is None:
        codomain = mod_p_codomain(2)
    morphism = induced_morphism(graph, 2, codomain).morphism
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
