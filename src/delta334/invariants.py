"""Graph statistics with verifiable witnesses: degrees, components,
bipartiteness, girth, cliques, chromatic data, cycle census, Hamiltonicity,
and nonplanarity evidence.

Every positive claim in a report carries a witness that is re-verified
before it is recorded (a coloring, clique, cycle, odd cycle, or Kuratowski
subdivision); anything not settled within budget is flagged unresolved
rather than guessed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .cliques import CliqueResult, clique_number, verify_clique
from .coloring import (ChromaticResult, chromatic_bounds, chromatic_number_exact,
                       components, heuristic_chromatic_upper)
from .cycles import (CensusEntry, HamiltonResult, _two_coloring, census_to_json,
                     cycle_census, hamiltonian_cycle, verify_cycle)
from .graph import TriangleGraph

GIRTH_BFS_LIMIT = 2048  # full girth sweep above this is quadratic-ish; skip
KURATOWSKI_LIMIT = 100_000  # no subdivision search on more vertices than this


@dataclass
class BipartiteResult:
    """Either a verified bipartition or a verified odd cycle.

    A loop counts as an odd closed walk; its witness is the 1-tuple (v,).
    """

    bipartite: bool
    parts: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    odd_cycle: tuple[int, ...] | None = None


def is_bipartite(graph: TriangleGraph) -> BipartiteResult:
    n = graph.n
    for v in graph.loops:
        return BipartiteResult(False, odd_cycle=(v,))
    color, parent, depth, conflict = _two_coloring(graph)
    if conflict is not None:
        # same color under BFS means same depth: the cycle through the
        # conflict edge and the two tree paths has odd length >= 3
        cyc = _cycle_through(parent, depth, *conflict)
        assert len(cyc) % 2 == 1 and verify_cycle(graph, cyc)
        return BipartiteResult(False, odd_cycle=tuple(cyc))
    part0 = tuple(v for v in range(n) if color[v] == 0)
    part1 = tuple(v for v in range(n) if color[v] == 1)
    for i, j in graph.edges():
        assert color[i] != color[j]
    return BipartiteResult(True, parts=(part0, part1))


def girth(graph: TriangleGraph) -> tuple[int | None, tuple[int, ...] | None]:
    """(girth, witness cycle), or (None, None) when acyclic or when the
    graph is triangle-free and too large for the full BFS sweep."""
    tri = _find_triangle(graph)
    if tri is not None:
        assert verify_cycle(graph, tri)
        return 3, tri
    if graph.n > GIRTH_BFS_LIMIT:
        return None, None
    best_len: int | None = None
    best_cycle: tuple[int, ...] | None = None
    for s in range(graph.n):
        length, cyc = _shortest_cycle_from(graph, s)
        if length is not None and (best_len is None or length < best_len):
            best_len, best_cycle = length, tuple(cyc)
    if best_cycle is not None:
        assert verify_cycle(graph, best_cycle)
    return best_len, best_cycle


def _find_triangle(graph: TriangleGraph) -> tuple[int, int, int] | None:
    """The first edge in lex order that lies on a triangle, with the lowest
    common neighbor of its ends."""
    nbr_sets = [frozenset(graph.neighbors(v)) for v in range(graph.n)]
    for i, j in graph.edges():
        common = nbr_sets[i] & nbr_sets[j]
        if common:
            return (i, j, min(common))
    return None


def _shortest_cycle_from(graph: TriangleGraph, s: int):
    """Shortest cycle through the BFS tree rooted at s; the minimum over all
    roots is the exact girth."""
    n = graph.n
    dist = [-1] * n
    parent = [-1] * n
    dist[s] = 0
    queue = [s]
    qi = 0
    best = None
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for w in graph.neighbors(v):
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                parent[w] = v
                queue.append(w)
            elif w != parent[v] and parent[w] != v:
                cyc = _cycle_through(parent, dist, v, w)
                if cyc is not None and (best is None or len(cyc) < len(best)):
                    best = cyc
    if best is None:
        return None, None
    return len(best), best


def _cycle_through(parent: list[int], dist: list[int], u: int, w: int):
    pu, pw = [u], [w]
    a, b = u, w
    while dist[a] > dist[b]:
        a = parent[a]
        pu.append(a)
    while dist[b] > dist[a]:
        b = parent[b]
        pw.append(b)
    while a != b:
        a = parent[a]
        b = parent[b]
        pu.append(a)
        pw.append(b)
    cyc = pu + pw[-2::-1]
    return cyc if len(cyc) >= 3 else None


@dataclass
class PlanarityEvidence:
    """Nonplanarity certificate, or an explicit inconclusive flag.

    reason ∈ {'edge-count', 'chromatic', 'kuratowski'} when nonplanar.
    A kuratowski witness is the edge list of a verified K5 or K3,3
    subdivision.
    """

    status: str  # "nonplanar" | "inconclusive"
    reason: str | None = None
    detail: str = ""
    witness_kind: str | None = None
    witness_edges: tuple[tuple[int, int], ...] | None = None


def nonplanarity_check(graph: TriangleGraph,
                       chromatic: ChromaticResult | None = None) -> PlanarityEvidence:
    """Certificate-based nonplanarity: edge count, chromatic lower bound,
    then a Kuratowski subdivision extracted by the linear-time planarity
    algorithm and re-verified here.  Never claims planarity."""
    n, m = graph.n, graph.edge_count
    if n >= 3 and m > 3 * n - 6:
        return PlanarityEvidence("nonplanar", "edge-count",
                                 f"{m} > 3*{n}-6 = {3 * n - 6}")
    if chromatic is not None and chromatic.lower >= 5:
        return PlanarityEvidence("nonplanar", "chromatic",
                                 f"chromatic lower bound {chromatic.lower} >= 5")
    if n > KURATOWSKI_LIMIT:
        return PlanarityEvidence("inconclusive", detail="too large for subdivision search")
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(graph.edges())
    if nx.check_planarity(g)[0]:
        return PlanarityEvidence("inconclusive", detail="no certificate found")
    # networkx's witness graph: the kept edges added in the order they were kept
    edges = tuple(tuple(sorted(e)) for e in nx.Graph(_kuratowski_edges(g)).edges())
    kind = _verify_kuratowski(edges)
    if kind is None:
        return PlanarityEvidence("inconclusive",
                                 detail="subdivision candidate failed verification")
    for i, j in edges:
        assert graph.has_edge(i, j)
    return PlanarityEvidence("nonplanar", "kuratowski",
                             f"{kind} subdivision on {len(edges)} edges",
                             witness_kind=kind, witness_edges=edges)


def _kuratowski_edges(g) -> list[tuple[int, int]]:
    """The edges of nonplanar networkx graph `g` that networkx's
    `get_counterexample` keeps, in the order it keeps them, from O(k log m)
    planarity tests instead of one per edge; `g` is left with just them.
    That function takes the edges in `g.edges()` order and drops each one
    whose removal leaves the graph nonplanar.  Nonplanarity is monotone, so
    a run of edges whose joint removal leaves the graph nonplanar would be
    dropped one by one all the same; a run that fails the test is halved,
    down to single edges, which are kept."""
    import networkx as nx

    order = list(g.edges())
    kept = []
    runs = [(0, len(order))]
    while runs:
        lo, hi = runs.pop()
        g.remove_edges_from(order[lo:hi])
        if nx.check_planarity(g)[0]:
            g.add_edges_from(order[lo:hi])
            if hi - lo == 1:
                kept.append(order[lo])
            else:
                runs += [((lo + hi) // 2, hi), (lo, (lo + hi) // 2)]
    return kept


def _verify_kuratowski(edges) -> str | None:
    """'K5' or 'K33' when the edge set is a subdivision of one of them,
    else None.  Degree-2 vertices are suppressed and the contracted graph
    is checked explicitly."""
    adj: dict[int, set[int]] = {}
    for i, j in edges:
        if i == j:
            return None
        adj.setdefault(i, set()).add(j)
        adj.setdefault(j, set()).add(i)
    branch = {v for v, nb in adj.items() if len(nb) > 2}
    if any(len(nb) < 2 for nb in adj.values()):
        return None
    paths: set[tuple[int, int]] = set()
    used: set[int] = set()
    for b in branch:
        for start in adj[b]:
            prev, cur = b, start
            while cur not in branch:
                used.add(cur)
                nxt = [x for x in adj[cur] if x != prev]
                if len(nxt) != 1:
                    return None
                prev, cur = cur, nxt[0]
            if b == cur:
                return None
            paths.add((min(b, cur), max(b, cur)))
    inner = set(adj) - branch
    if used != inner:
        return None
    k = len(branch)
    if k == 5 and all(len(adj[b]) == 4 for b in branch) and len(paths) == 10:
        return "K5"
    if k == 6 and all(len(adj[b]) == 3 for b in branch) and len(paths) == 9:
        # complete bipartite: the non-neighbors of any branch vertex form
        # its side
        b0 = min(branch)
        side0 = {b0} | {b for b in branch if b != b0
                        and (min(b0, b), max(b0, b)) not in paths}
        side1 = branch - side0
        if len(side0) == 3 and len(side1) == 3:
            want = {(min(a, b), max(a, b)) for a in side0 for b in side1}
            if paths == want:
                return "K33"
    return None


@dataclass
class InvariantReport:
    """Everything the statistics pass computed, witnesses inline."""

    vertex_count: int
    edge_count: int
    loop_count: int
    degree_histogram: dict[int, int]
    component_sizes: list[int]
    bipartite: BipartiteResult
    girth: int | None
    girth_cycle: tuple[int, ...] | None
    clique: CliqueResult | None = None
    chromatic: ChromaticResult | None = None
    census: dict[int, CensusEntry] | None = None
    hamilton: HamiltonResult | None = None
    planarity: PlanarityEvidence | None = None

    def to_json_dict(self) -> dict:
        d: dict = {
            "vertex_count": self.vertex_count,
            "edge_count": self.edge_count,
            "loop_count": self.loop_count,
            "degree_histogram": {str(k): v for k, v in sorted(self.degree_histogram.items())},
            "component_sizes": list(self.component_sizes),
            "bipartite": asdict(self.bipartite),
            "girth": self.girth,
            "girth_cycle": self.girth_cycle,
        }
        for key, result, to_json in (("clique", self.clique, asdict),
                                     ("chromatic", self.chromatic, ChromaticResult.to_json_dict),
                                     ("cycle_census", self.census, census_to_json),
                                     ("hamiltonian", self.hamilton, asdict),
                                     ("planarity", self.planarity, asdict)):
            if result is not None:
                d[key] = to_json(result)
        return d


def full_report(graph: TriangleGraph, *,
                exact_chromatic: bool = False,
                with_census: bool = False,
                with_hamilton: bool = False,
                with_planarity: bool = True,
                node_budget: int | None = None,
                time_budget: float | None = None) -> InvariantReport:
    """Assemble an InvariantReport.  The cheap statistics always run; the
    exact chromatic search, cycle census, and Hamiltonian search are opt-in
    since their cost grows quickly with the graph.  node_budget caps every
    search and time_budget the exact chi search; None means their defaults.
    The one clique search bounds chi in both modes."""
    comp_sizes = sorted((len(c) for c in components(graph)), reverse=True)
    bip = is_bipartite(graph)
    g, gcyc = girth(graph)
    clique = clique_number(graph, node_budget=node_budget)
    if clique.witness:
        assert verify_clique(graph, clique.witness)

    if graph.loops:
        chromatic = None  # no proper coloring exists; leave chromatic data out
    elif exact_chromatic:
        chromatic = chromatic_number_exact(graph, time_budget=time_budget,
                                           node_budget=node_budget, clique=clique)
    else:
        chromatic = chromatic_bounds(graph, clique, colorings=(heuristic_chromatic_upper(graph),))

    census = cycle_census(graph, node_budget=node_budget) if with_census else None
    ham = hamiltonian_cycle(graph, node_budget=node_budget) if with_hamilton else None
    planarity = nonplanarity_check(graph, chromatic) if with_planarity else None
    return InvariantReport(
        vertex_count=graph.n,
        edge_count=graph.edge_count,
        loop_count=len(graph.loops),
        degree_histogram=graph.degree_histogram(),
        component_sizes=comp_sizes,
        bipartite=bip,
        girth=g,
        girth_cycle=gcyc,
        clique=clique,
        chromatic=chromatic,
        census=census,
        hamilton=ham,
        planarity=planarity,
    )
