"""Maximum clique: a degeneracy order, then one bitmask branch and bound in
each vertex's later neighborhood.

Following Eppstein, Löffler and Strash ("Listing all maximal cliques in
sparse graphs in near-optimal time", ISAAC 2010), every clique is found
under its earliest vertex v in a degeneracy order, among v's later
neighbors P.  The order is graph._core_order's, the core decomposition that
also gives the chi search its k-cores.  P is re-indexed as local bits, so
the search runs on |P|-bit masks whatever the size of the graph, and |P| is
at most the degeneracy.  Branching is Bron-Kerbosch with a pivot of most
neighbors in P; a maximum clique needs no maximality test, so there is no
excluded set.  The search is exact unless the node budget runs out, in
which case the best clique found so far is returned flagged as a lower
bound only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycles import _bits, _mask
from .graph import TriangleGraph, _core_order

DEFAULT_CLIQUE_BUDGET = 20_000_000


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
    nbrs = [frozenset(graph.neighbors(v)) for v in range(n)]
    order, _ = _core_order(graph)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    best: list[int] = []
    nodes = 0
    later: list[int] = []   # local bit -> vertex, for the current outer vertex
    rows: list[int] = []    # local adjacency masks within P

    def expand(r: list[int], p: int):
        nonlocal best, nodes
        nodes += 1
        if nodes >= node_budget:
            return
        if not p:
            if len(r) > len(best):
                best = r[:]
            return
        if len(r) + p.bit_count() <= len(best):
            return
        pivot_hits = -1
        for u in _bits(p):
            hits = (p & rows[u]).bit_count()
            if hits > pivot_hits:
                pivot_hits, pivot = hits, u
        for u in _bits(p & ~rows[pivot]):
            r.append(later[u])
            expand(r, p & rows[u])
            r.pop()
            p &= ~(1 << u)
            if nodes >= node_budget:
                return

    for v in order:
        later = sorted(w for w in nbrs[v] if pos[w] > pos[v])
        if len(later) + 1 <= len(best):
            continue
        local = {w: i for i, w in enumerate(later)}
        pset = frozenset(later)
        rows = [_mask(local[x] for x in nbrs[w] & pset) for w in later]
        expand([v], (1 << len(later)) - 1)
        if nodes >= node_budget:
            break
    return CliqueResult(len(best), tuple(sorted(best)), nodes < node_budget,
                        min(nodes, node_budget))


def verify_clique(graph: TriangleGraph, vertices: tuple[int, ...]) -> bool:
    """Every pair in the witness must be an edge."""
    vs = list(vertices)
    if not all(0 <= v < graph.n for v in vs):
        return False
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            if not graph.has_edge(vs[i], vs[j]):
                return False
    return True
