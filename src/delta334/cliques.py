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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import TriangleGraph, _core_order

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
    DEFAULT_CLIQUE_BUDGET."""
    if node_budget is None:
        node_budget = DEFAULT_CLIQUE_BUDGET
    n = graph.n
    if n == 0:
        return CliqueResult(0, (), True, 0)
    order, _ = _core_order(graph)
    start, heads, arc_rows = _later_rows(graph, order)
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

    for v in order:
        a, z = start[v], start[v + 1]
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

    if words <= 1:  # none when there is no forward arc
        rows = row_words.tolist()
    else:
        raw = row_words.astype("<u8").tobytes()
        size = 8 * words
        rows = [int.from_bytes(raw[k:k + size], "little")
                for k in range(0, len(raw), size)]
    return start.tolist(), fhead.tolist(), rows


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
