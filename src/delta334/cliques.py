"""Maximum clique: a degeneracy order, then one bitmask branch and bound in
each vertex's later neighborhood.

Following Eppstein, Löffler and Strash ("Listing all maximal cliques in
sparse graphs in near-optimal time", ISAAC 2010), every clique is found
under its earliest vertex v in a degeneracy order, among v's later
neighbors P.  The order is graph._core_order's, the core decomposition that
also gives the chi search its k-cores.  P is re-indexed as local bits in
vertex-id order, so the search runs on |P|-bit masks whatever the size of
the graph, and |P| is at most the degeneracy.

The local rows come from the graph's sorted arcs in one numpy pass, which
lists the triangles along the order (Chiba and Nishizeki, "Arboricity and
subgraph listing algorithms", SIAM J. Comput. 1985).  The forward arcs, those
to a later vertex, are sorted by tail and then head, so P is a slice of them
and a vertex's local bit is its offset in that slice.  Every pair of forward
arcs (v, w), (v, x) with w < x is looked up among the edges; an edge w x
sets bit loc(x) in the row of (v, w) and bit loc(w) in the row of (v, x).
The pairs go in blocks of _PAIR_BLOCK, so the pass's transient arrays stay
small, and the rows are uint64 words turned into one Python int each.

Branching is Bron-Kerbosch with a pivot of most neighbors in P (the lowest
bit on ties, and the scan stops at a vertex adjacent to all the others); a
maximum clique needs no maximality test, so there is no excluded set.  A
parent counts each child's node, checks the budget and applies the child's
two cuts (an empty P records a clique; a clique that cannot outgrow the
best one is cut) before it recurses, so a leaf costs no call.  The search
is exact unless the node budget runs out, in which case the best clique
found so far is returned flagged as a lower bound only.

A graph whose labels are group elements that conjugation maps onto one
another is searched one vertex orbit at a time (graph._conjugation_orbits:
orbits of the maps v -> x v x^-1 by its labels, each map checked to be a
bijection taking the arcs onto the arcs; a label is tried only while its
orbit holds no tried one, until the orbits are as few as the distinct
degrees or n.bit_length() + 1 labels are spent).  With the orbits O_1,
O_2, ... in order of degree and then of least vertex r_i, omega is the
largest of 1 + omega(G[N(r_i) - O_1 - ... - O_(i-1)]).  It is sound under
any set of verified automorphisms: take a maximum clique and the earliest
orbit O_i that it meets, at u; a product of the maps takes u to r_i and
keeps every orbit onto itself, so the image is a maximum clique through
r_i that misses O_1, ..., O_(i-1).  Each r_i is one outer step of the
search above, with that neighborhood as P, and the best clique so far
bounds every step; the result is exact only if every step ran to its end,
and its witness is re-checked on the graph.  The first step is the whole
search's first too, as its vertex, the least of least degree, has every
neighbor after it in the degeneracy order, so both find the same first
clique.  On SL3(3) (orbits of 104 and 624 vertices) that is 1,267 nodes
against 228,076 for the whole graph, and the same witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import TriangleGraph, _conjugation_orbits, _core_order

DEFAULT_CLIQUE_BUDGET = 20_000_000
_PAIR_BLOCK = 1 << 18  # forward-arc pairs looked up per numpy block


@dataclass
class CliqueResult:
    size: int
    witness: tuple[int, ...]
    exact: bool          # False when the node budget was exhausted
    nodes: int


def clique_number(graph: TriangleGraph, node_budget: int | None = None) -> CliqueResult:
    """Exact maximum clique (loops ignored); budget exhaustion degrades the
    result to a certified lower bound.  node_budget None means
    DEFAULT_CLIQUE_BUDGET.  A graph that conjugation by its labels splits
    into vertex orbits is searched one orbit at a time, pinned at the
    orbit's least vertex; nodes counts the pinned searches."""
    return _clique_search(graph, node_budget, _conjugation_orbits(graph))


def _clique_search(graph: TriangleGraph, node_budget: int | None,
                   found: tuple[list[int], list[list[int]]] | None) -> CliqueResult:
    """clique_number with the graph's conjugation orbits already found:
    graph._conjugation_orbits(graph), None for the plain search."""
    if node_budget is None:
        node_budget = DEFAULT_CLIQUE_BUDGET
    if graph.n == 0:
        return CliqueResult(0, (), True, 0)
    if found is None:
        order, _ = _core_order(graph)
        start, heads, rows = _later_rows(graph, order)
        return _branch_and_bound(((v, heads, rows, start[v], start[v + 1]) for v in order),
                                 node_budget)
    res = _branch_and_bound(_orbit_steps(graph, found[1]), node_budget)
    if not verify_clique(graph, res.witness):
        raise AssertionError(f"orbit-pinned clique {res.witness} is not a clique")
    return res


def _orbit_steps(graph: TriangleGraph, orbits: list[list[int]]):
    """One step of _branch_and_bound per orbit, in order of degree and
    then of least vertex: the orbit's least vertex r, the list P of the
    neighbors of r in no earlier orbit and their rows, sliced whole.  The
    first step is the plain search's first, whose vertex has every
    neighbor after it."""
    n, indptr, heads = graph.n, graph._indptr, graph._heads
    deg = np.diff(indptr)
    tail = np.repeat(np.arange(n), deg)
    fresh = np.ones(n, bool)  # in no earlier orbit
    for orbit in sorted(orbits, key=lambda o: (deg[o[0]], o[0])):
        r = orbit[0]
        near = np.zeros(n, bool)
        near[heads[indptr[r]:indptr[r + 1]]] = True
        near &= fresh
        fresh[orbit] = False
        local = np.cumsum(near) - 1
        arc = near[tail] & near[heads]
        width = int(local[-1]) + 1
        words = (width + 63) >> 6
        row_words = np.zeros(width * words, np.uint64)
        bit = local[heads[arc]]
        np.bitwise_or.at(row_words, local[tail[arc]] * words + (bit >> 6),
                         np.uint64(1) << (bit & 63).astype(np.uint64))
        yield r, np.flatnonzero(near).tolist(), _row_ints(row_words, words), 0, width


def _branch_and_bound(steps, node_budget: int) -> CliqueResult:
    """The branch and bound of the module docstring over `steps`, each a
    vertex v, lists of vertices and of rows, and the slice [a, z) of both
    that holds the vertices P that v's cliques may add and their rows:
    mask j of row i is set when P[i] and P[j] are adjacent."""
    best: list[int] = []
    nodes = 0
    later: list[int] = []   # local bit -> vertex, for the current outer vertex
    rows: list[int] = []    # local adjacency masks within P

    def expand(r: list[int], p: int):
        # r's node is counted and passed both cuts, so p is non-empty
        nonlocal best, nodes
        pivot_hits = -1
        most = p.bit_count() - 1  # no pivot has more hits, so the scan may stop
        m = p
        while m:
            b = m & -m
            u = b.bit_length() - 1
            hits = (p & rows[u]).bit_count()
            if hits > pivot_hits:
                pivot_hits, pivot = hits, u
                if hits == most:
                    break
            m ^= b
        m = p & ~rows[pivot]
        while m:
            b = m & -m
            u = b.bit_length() - 1
            m ^= b
            nodes += 1
            if nodes >= node_budget:
                return
            q = p & rows[u]
            if not q:
                if len(r) >= len(best):
                    best = r + [later[u]]
            elif len(r) + 1 + q.bit_count() > len(best):
                r.append(later[u])
                expand(r, q)
                r.pop()  # a spent budget returns at the next count
            p ^= b

    for v, heads, arc_rows, a, z in steps:
        if z - a + 1 <= len(best):
            continue
        nodes += 1
        if nodes >= node_budget:
            break
        if a == z:  # reached only while best is empty
            best = [v]
            continue
        later, rows = heads[a:z], arc_rows[a:z]
        expand([v], (1 << (z - a)) - 1)
        if nodes >= node_budget:
            break
    return CliqueResult(len(best), tuple(sorted(best)), nodes < node_budget,
                        min(nodes, node_budget))


def _later_rows(graph: TriangleGraph, order: list[int]
                ) -> tuple[list[int], list[int], list[int]]:
    """The forward arcs along `order` and their local rows: v's later
    neighbors are heads[start[v]:start[v + 1]], ascending, and the arc to
    the i-th of them has rows[start[v] + i], the mask of the later neighbors
    of v adjacent to it, bit j standing for the j-th."""
    n = graph.n
    heads = graph._heads
    tail = np.repeat(np.arange(n), np.diff(graph._indptr))
    keys = (tail * n + heads)[tail < heads]  # the edges i < j, sorted
    pos = np.empty(n, np.int64)
    pos[order] = np.arange(n)
    fwd = pos[heads] > pos[tail]
    ftail, fhead = tail[fwd], heads[fwd]
    del tail, fwd  # the widest arrays: those below have one entry per forward arc
    start = np.searchsorted(ftail, np.arange(n + 1))
    arcs = np.arange(len(fhead))
    loc = arcs - start[ftail]
    width = int(np.diff(start).max())
    words = (width + 63) >> 6
    row_words = np.zeros(len(fhead) * words, np.uint64)

    # arc a heads pairs (a, b) for the later arcs b of its tail, numbered
    # from first_pair[a] in one sequence over all arcs
    pairs = start[ftail + 1] - arcs - 1
    first_pair = np.cumsum(pairs) - pairs
    total = int(first_pair[-1] + pairs[-1]) if len(pairs) else 0
    for s in range(0, total, _PAIR_BLOCK):
        e = min(s + _PAIR_BLOCK, total)
        a0 = int(np.searchsorted(first_pair, s, side="right")) - 1
        a1 = int(np.searchsorted(first_pair, e))
        skip = s - int(first_pair[a0])  # arc a0's pairs in earlier blocks
        first = np.repeat(np.arange(a0, a1), pairs[a0:a1])[skip:skip + e - s]
        second = np.arange(s, e) - first_pair[first]
        second += first + 1
        key = fhead[first] * n
        key += fhead[second]
        at = np.searchsorted(keys, key)
        np.minimum(at, len(keys) - 1, out=at)
        hit = keys[at] == key
        first, second = first[hit], second[hit]
        arc = np.concatenate((first, second))
        bit = np.concatenate((loc[second], loc[first]))
        np.bitwise_or.at(row_words, arc * words + (bit >> 6),
                         np.uint64(1) << (bit & 63).astype(np.uint64))

    return start.tolist(), fhead.tolist(), _row_ints(row_words, words)


def _row_ints(row_words: np.ndarray, words: int) -> list[int]:
    """Each run of `words` uint64 words, low word first, as one Python int."""
    if words <= 1:  # none when there is no forward arc
        return row_words.tolist()
    raw = row_words.astype("<u8").tobytes()
    size = 8 * words
    return [int.from_bytes(raw[k:k + size], "little") for k in range(0, len(raw), size)]


def verify_clique(graph: TriangleGraph, vertices: tuple[int, ...]) -> bool:
    """The witness must list distinct vertices, every pair an edge."""
    vs = list(vertices)
    if not all(0 <= v < graph.n for v in vs) or len(set(vs)) < len(vs):
        return False
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            if not graph.has_edge(vs[i], vs[j]):
                return False
    return True
