"""Vertex coloring: DSATUR greedy upper bound and exact chromatic number.

DSATUR (Brélaz, CACM 1979) colors the uncolored vertex with the most
distinct neighbor colors next (then highest degree, then lowest index) with
its smallest free color, popping vertices from a heap.  Culberson's iterated
greedy then recolors whole color classes first-fit, one numpy step per
class, since each class of a proper coloring is an independent set and its
vertices' colors depend only on the classes recolored before it.  The exact
solver tests k-colorability downward from the iterated-greedy bound to one
clique of the whole graph, each k on the k-core of one core decomposition
per component (the rest is colored first-fit in reverse degeneracy order);
the core search adds that clique's pre-coloring for symmetry breaking,
forward checking on bitboards (after San Segundo, Comput. Oper. Res. 2012:
a mask per color of the vertices that may still take it, and a mask per
count of colors left as the vertex queue), and an ascending-color symmetry
cap (a vertex may only open one new color).  A color that would take a
neighbor's last color is refused before any mask moves, and a vertex's
color loop ends at its last candidate.  Chi is certified when a coloring
meets the clique or the (chi-1)-coloring search exhausts.
DSATUR has its own pass: on a whole component the bitboards would need a
mask of n bits per vertex, where the heap needs O(m log n) time and O(n)
memory at any size.

Graphs with loops cannot be properly colored; coloring operations reject
them.  Identity-free triangle graphs never carry loops.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from .cliques import CliqueResult, clique_number, verify_clique
from .graph import TriangleGraph, _core_order

DEFAULT_COLOR_NODE_BUDGET = 50_000_000
ITERATED_GREEDY_SEED = 0x334  # recorded in every CLI manifest


@dataclass(frozen=True)
class Coloring:
    """A vertex -> color-index assignment with a properness certificate."""

    colors: tuple[int, ...]
    num_colors: int
    proper: bool

    @classmethod
    def checked(cls, graph: TriangleGraph, colors) -> "Coloring":
        colors = tuple(colors)
        violation = find_coloring_violation(graph, colors)
        distinct = len(set(colors)) if colors else 0
        return cls(colors, distinct, violation is None)


def find_coloring_violation(graph: TriangleGraph, colors) -> tuple[int, int] | None:
    """First edge (or loop, as (v, v)) joining same-colored vertices, else None."""
    if len(colors) != graph.n:
        raise ValueError(f"coloring covers {len(colors)} of {graph.n} vertices")
    for v in graph.loops:
        return (v, v)
    i, j = graph._edge_ends()
    colors = np.asarray(colors)
    bad = np.flatnonzero(colors[i] == colors[j])
    return (int(i[bad[0]]), int(j[bad[0]])) if bad.size else None


@dataclass
class ChromaticResult:
    """Exact chi when lower == upper with an exhaustion certificate."""

    lower: int
    upper: int
    coloring: Coloring | None
    exact: bool
    certificate: dict = field(default_factory=dict)
    nodes: int = 0

    @property
    def chi(self) -> int | None:
        return self.upper if self.exact else None

    def to_json_dict(self) -> dict:
        return {"lower": self.lower, "upper": self.upper, "exact": self.exact,
                "chi": self.chi, "nodes": self.nodes, "certificate": dict(self.certificate),
                "coloring": self.coloring.colors if self.coloring else None}


def chromatic_bounds(graph: TriangleGraph, clique: CliqueResult,
                     search: ChromaticResult | None = None,
                     colorings=()) -> ChromaticResult:
    """Certified chi bounds from results already computed.  lower: the clique
    (found before any budget cut), the search's lower bound, 2 with an edge
    and 1 on a nonempty graph; upper: the proper coloring with the fewest
    colors among the search's and `colorings`, the first on ties.  The
    certificate is the search's plus lower_bound_clique; nodes are the
    clique's plus the search's."""
    found = [c for c in (search.coloring if search else None, *colorings)
             if c is not None and c.proper]
    best = min(found, key=lambda c: c.num_colors)
    lower = max(clique.size, search.lower if search else 0,
                2 if graph.edge_count else min(graph.n, 1))
    certificate = {**(search.certificate if search else {}),
                   "lower_bound_clique": clique.witness}
    return ChromaticResult(lower, best.num_colors, best, lower == best.num_colors,
                           certificate, clique.nodes + (search.nodes if search else 0))


def chromatic_number_exact(graph: TriangleGraph,
                           time_budget: float | None = None,
                           node_budget: int | None = None,
                           clique: CliqueResult | None = None) -> ChromaticResult:
    """Exact chromatic number with witness coloring, or best bounds on budget
    exhaustion.  One clique bounds chi from below and is the certificate's
    lower_bound_clique: `clique`, which the caller found (ValueError if it is
    not a clique of `graph`), or else one clique_number search under
    node_budget, counted apart from the chi nodes that `nodes` reports.
    time_budget's clock starts before that search, which stops only at its
    node budget.  Components are solved in turn and share the node budget;
    within one, each k-colorability search runs on the k-core.
    node_budget None means DEFAULT_COLOR_NODE_BUDGET."""
    _reject_loops(graph)
    deadline = time.monotonic() + time_budget if time_budget else None
    if node_budget is None:
        node_budget = DEFAULT_COLOR_NODE_BUDGET
    if clique is None:
        clique = clique_number(graph, node_budget=node_budget)
    elif not verify_clique(graph, clique.witness):
        raise ValueError(f"{clique.witness} is not a clique of the graph")

    colors = [0] * graph.n
    lower_all = upper_all = min(graph.n, 1)
    total_nodes = 0
    certificate: dict = {}

    for comp in components(graph):
        res = _component_chromatic(graph, comp, clique.witness, deadline,
                                   node_budget - total_nodes)
        total_nodes += res.nodes
        for v, c in zip(comp, res.coloring.colors):
            colors[v] = c
        lower_all = max(lower_all, res.lower)
        upper_all = max(upper_all, res.upper)
        if res.certificate.get("infeasible_k", -1) > certificate.get("infeasible_k", -1):
            certificate = res.certificate
    # chi is the largest component chi, so lower == upper proves it even when
    # a later component was cut by the shared node budget
    witness = Coloring.checked(graph, colors)
    exact = witness.proper and lower_all == upper_all
    return ChromaticResult(lower_all, upper_all, witness if witness.proper else None,
                           exact, {**certificate, "lower_bound_clique": clique.witness},
                           total_nodes)


def _reject_loops(graph: TriangleGraph):
    if graph.loops:
        raise ValueError("graph has loops; no proper coloring exists "
                         "(drop the identity vertex first)")


def components(graph: TriangleGraph) -> list[list[int]]:
    """Connected components as sorted vertex lists, in order of smallest
    member."""
    seen = [False] * graph.n
    comps = []
    for s in range(graph.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        queue = [s]
        while queue:
            v = queue.pop()
            for w in graph.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def _component_chromatic(graph: TriangleGraph, comp: list[int], clique: tuple[int, ...],
                         deadline: float | None, node_budget: int) -> ChromaticResult:
    """The component's coloring and upper bound, and a lower bound on chi of
    the graph: the clique's size clamped to the greedy bound, as no component
    needs fewer colors, or upper once the search below it exhausts.  The
    clique is pinned only in the component that holds it.  A component of
    one or two vertices is a clique, chi = its size, and needs no subgraph."""
    if len(comp) <= 2:
        n = len(comp)
        return ChromaticResult(n, n, Coloring(tuple(range(n)), n, True), True)
    local = {v: i for i, v in enumerate(comp)}  # the induced subgraph's labels
    sub = TriangleGraph(comp, [(i, local[w]) for i, v in enumerate(comp)
                               for w in graph.neighbors(v) if w > v and w in local])
    pinned = tuple(local[v] for v in clique if v in local)  # all of it or none

    floor = max(len(clique), 2)  # a cut clique search may stop before its first edge
    greedy = _iterated_greedy(sub, _dsatur(sub), stop_at=floor, deadline=deadline)
    upper = max(greedy) + 1
    lower = min(floor, upper)
    upper_colors = list(greedy)

    nodes_used = 0
    certificate: dict = {}
    if lower < upper:
        order, core = _core_order(sub)  # serves every k of the descent
    while lower < upper:
        k = upper - 1
        status, kcolors, used = _k_colorable(sub, k, pinned, order, core, deadline,
                                             node_budget - nodes_used)
        nodes_used += used
        if status == "sat":
            upper, upper_colors = k, kcolors
        elif status == "unsat":
            lower = upper
            certificate = {"infeasible_k": k, "nodes": used, "exhausted": True}
        else:
            break
    # proper by construction; chromatic_number_exact checks the joined coloring
    witness = Coloring(tuple(upper_colors), len(set(upper_colors)), True)
    return ChromaticResult(lower, upper, witness, lower == upper, certificate, nodes_used)


def _dsatur(graph: TriangleGraph) -> list[int]:
    """DSATUR from a heap keyed on (-saturation, rank), rank ordering the
    vertices by highest degree, then lowest index.  A vertex is pushed again
    each time its saturation grows, so its older entries pop after it is
    colored and are skipped."""
    n = graph.n
    by_rank = sorted(range(n), key=lambda v: (-graph.degree(v), v))
    rank = [0] * n
    for r, v in enumerate(by_rank):
        rank[v] = r
    colors = [-1] * n
    seen = [0] * n  # masks of the colors among each vertex's neighbors
    heap = list(range(n))  # keys rank - saturation * n; sorted, so a heap
    while heap:
        v = by_rank[heappop(heap) % n]
        if colors[v] >= 0:
            continue
        used = seen[v]
        bit = ~used & (used + 1)  # the smallest free color
        colors[v] = bit.bit_length() - 1
        for w in graph.neighbors(v):
            if colors[w] < 0 and not seen[w] & bit:
                seen[w] |= bit
                heappush(heap, rank[w] - seen[w].bit_count() * n)
    return colors


def _iterated_greedy(graph: TriangleGraph, colors: list[int], stop_at: int,
                     rounds: int | None = None,
                     deadline: float | None = None) -> list[int]:
    """Culberson iterated greedy (Culberson and Luo, DIMACS 1996): first-fit
    recoloring of whole color classes in varied orders (largest first,
    reversed, shuffled).  Never increases the color count and often sharpens
    DSATUR by a color or two, which saves the exact solver whole
    k-colorability searches.  `rounds` defaults to 2000 on graphs of at most
    200 vertices and 300 beyond; no round starts after `deadline`.
    Deterministic: fixed RNG seed.

    Each old class is recolored in one numpy step.  The input coloring is
    proper, so every class is an independent set: a vertex's first-fit color
    depends only on the classes recolored before its own, never on its
    classmates, so a whole class takes its colors at once, exactly as the
    one-vertex-at-a-time loop would give them.  The j-th class recolored
    gets a color <= j (at most j colors occur before it), so colors stay
    below k, the number of class ids.
    """
    n = graph.n
    if rounds is None:
        rounds = 2000 if n <= 200 else 300
    best = list(colors)
    best_k = max(best) + 1
    rng = random.Random(ITERATED_GREEDY_SEED)
    for it in range(rounds):
        if best_k <= stop_at:
            break
        if deadline is not None and time.monotonic() > deadline:
            break
        if it == 0:  # the graph's adjacency rows (CSR), read once a round runs
            indptr, indices = graph._indptr, graph._heads
            deg = np.diff(indptr)
            slots, edge_ids = np.arange(n), np.arange(indptr[-1])
            slot_of, estart = np.empty(n, np.intp), np.zeros(n + 1, np.intp)
            cur = np.array(best, np.intp)
            k = best_k
        sizes = np.bincount(cur, minlength=k)
        mode = it % 3
        if mode == 0:
            order = np.argsort(-sizes, kind="stable")
        elif mode == 1:
            order = np.arange(k - 1, -1, -1)
        else:
            shuffled = list(range(k))
            rng.shuffle(shuffled)
            order = np.array(shuffled)
        # lay the vertices out in slots class by class in `order`, and gather
        # the slots of each one's neighbors (edges estart[s]:estart[s+1])
        at = np.argsort(np.argsort(order)[cur], kind="stable")
        slot_of[at] = slots
        d = deg[at]
        np.cumsum(d, out=estart[1:])
        nb = slot_of[indices[edge_ids + np.repeat(indptr[at] - estart[:-1], d)]]
        owner = np.repeat(slots, d)
        cstart = np.concatenate(([0], np.cumsum(sizes[order])))
        vb, eb = cstart.tolist(), estart[cstart].tolist()
        new = np.full(n, k, np.intp)  # by slot; color k: not yet recolored
        seen = np.zeros((n, k + 1), bool)  # by slot: colors of its neighbors
        for j in range(k):
            if vb[j] < vb[j + 1]:
                e = slice(eb[j], eb[j + 1])
                seen[owner[e], new[nb[e]]] = True
                seen[vb[j]:vb[j + 1], :k].argmin(1, out=new[vb[j]:vb[j + 1]])
        cur = new[slot_of]
        k = int(cur.max()) + 1
        if k < best_k:
            best, best_k = cur.tolist(), k
    return best


def _k_colorable(graph: TriangleGraph, k: int, clique: tuple[int, ...], order: list[int],
                 core: list[int], deadline: float | None, node_budget: int):
    """('sat', colors, nodes) | ('unsat', None, nodes) | ('budget', None, nodes).

    `order, core` is graph._core_order(graph).  The search runs on the
    k-core, core[v] >= k.  The rest, a prefix of `order`, each have fewer than
    k neighbors after them, so first-fit colors them in reverse order last.
    """
    n = graph.n
    kcore = [v for v in range(n) if core[v] >= k]
    colors = [-1] * n
    nodes = 0
    if kcore:
        clique_core = [v for v in clique if core[v] >= k]
        status, nodes = _core_search(graph, k, kcore, clique_core, colors,
                                     deadline, node_budget)
        if status != "sat":
            return (status, None, nodes)
    for v in reversed(order[:n - len(kcore)]):
        used = {colors[w] for w in graph.neighbors(v) if colors[w] >= 0}
        c = 0
        while c in used:
            c += 1
        if c >= k:
            raise AssertionError("peeled vertex ran out of colors")
        colors[v] = c
    return ("sat", colors, nodes)


def _core_search(graph: TriangleGraph, k: int, core: list[int], clique: list[int],
                 colors: list[int], deadline: float | None, node_budget: int):
    """k-color the `core` vertices into `colors`: ('sat' | 'unsat' | 'budget', nodes).

    Bitboard forward checking (San Segundo, Comput. Oper. Res. 2012): core
    vertices own the bits 1 << rank (highest degree, then lowest index,
    first), cand[c] masks those that may still take color c, free the
    uncolored ones, and level[a] those with a colors left.  Coloring rank r
    with c takes d = nbr[r] & cand[c] & free.  It fails exactly when d meets
    level[1], some neighbor's last color, and then nothing moves.
    Otherwise it clears d from cand[c] and moves d down one level, one mask
    operation per level, and d is its undo.  nbr[r] is built when r is first
    colored, so a cut search on a large core holds masks only for the
    vertices it reached.  The next vertex is the lowest bit of the lowest
    non-empty level a; its colors are tried in ascending order, opening at
    most one new color, and its loop ends after its a-th candidate, as it
    has no other.  `colors` is written only on 'sat'.
    """
    by_rank = sorted(core, key=lambda u: (-graph.degree(u), u))
    rank = dict(zip(by_rank, range(len(core))))
    nbr = [-1] * len(core)
    free = (1 << len(core)) - 1
    cand = [free] * k

    def neighbor_mask(r: int) -> int:
        nbr[r] = sum(1 << rank[w] for w in graph.neighbors(by_rank[r]) if w in rank)
        return nbr[r]

    # clique pre-coloring: any k-coloring can be permuted so a fixed clique
    # uses colors 0..len-1, so pinning them is sound symmetry breaking
    clique = sorted(clique)
    if len(clique) > k:
        return ("unsat", 0)
    for c, v in enumerate(clique):
        free ^= 1 << rank[v]
        cand[c] ^= neighbor_mask(rank[v])
    level = [0] * k + [free]
    for c in range(len(clique)):  # the vertices that lost color c drop a level
        out = free & ~cand[c]
        level = [m & ~out | (level[a + 1] & out if a < k else 0) for a, m in enumerate(level)]
    if level[0]:
        return ("unsat", 0)
    # stack: (rank, color, undo mask, level taken from, one above the highest
    # level d left, candidates left untried, color cap) per colored vertex
    stack = []
    push, pop = stack.append, stack.pop
    nodes = 0
    check_at = 0  # next node count at which to stop or read the clock: first before node 1
    lim = min(len(clique) + 1, k)  # the next vertex's colors: the used ones and one new
    while free:
        a = 1  # level[0] is empty between nodes
        m = level[1]
        while not m:
            a += 1
            m = level[a]
        if nodes >= check_at:
            if nodes >= node_budget or deadline is not None and time.monotonic() > deadline:
                return ("budget", nodes)
            check_at = min(node_budget, nodes + 4096)
        nodes += 1
        b = m & -m
        level[a] ^= b
        free ^= b
        r = b.bit_length() - 1
        c, left = -1, a  # r has exactly a candidate colors
        while True:  # r's next color, or back to its parent's once none is left
            if left:
                c += 1
                while c < lim and not cand[c] >> r & 1:
                    c += 1
            if not left or c == lim:
                level[a] |= 1 << r
                free |= 1 << r
                if not stack:
                    return ("unsat", nodes)
                r, c, d, a, top, left, lim = pop()
                cand[c] |= d  # undo color c at r
                while top > a:  # d back up one level, the lowest last
                    top -= 1
                    x = level[top - 1] & d
                    if x:
                        level[top - 1] ^= x
                        level[top] |= x
                continue
            left -= 1
            m = nbr[r]
            if m < 0:
                m = neighbor_mask(r)
            d = m & cand[c] & free
            if d & level[1]:  # a neighbor's last color: c fails before any move
                continue
            cand[c] ^= d
            rest, top = d, a
            while rest:
                x = level[top] & rest
                if x:
                    level[top] ^= x
                    level[top - 1] |= x
                    rest ^= x
                top += 1
            push((r, c, d, a, top, left, lim))
            if c + 1 == lim < k:  # c is a new color: the next vertex may open one more
                lim += 1
            break
    for c, v in enumerate(clique):
        colors[v] = c
    for r, c, *_ in stack:
        colors[by_rank[r]] = c
    return ("sat", nodes)


def heuristic_chromatic_upper(graph: TriangleGraph, rounds: int | None = None) -> Coloring:
    """DSATUR (most saturated vertex first, then highest degree, then lowest
    index; smallest free color) refined by `rounds` of iterated greedy, by
    default 2000 on graphs of at most 200 vertices and 300 beyond;
    rounds=0 returns the plain DSATUR coloring."""
    _reject_loops(graph)
    if graph.n == 0:
        return Coloring((), 0, True)
    colors = _iterated_greedy(graph, _dsatur(graph), stop_at=1, rounds=rounds)
    return Coloring.checked(graph, colors)


def improve_coloring(graph: TriangleGraph, coloring: Coloring,
                     rounds: int = 200) -> Coloring:
    """Iterated-greedy refinement of an existing proper coloring.  Never
    uses more colors than the input; useful for sharpening a lifted
    coloring against the domain graph's actual structure."""
    _reject_loops(graph)
    if len(coloring.colors) != graph.n:
        raise ValueError("coloring does not cover the graph")
    if not coloring.proper:
        raise ValueError("refusing to refine an improper coloring")
    if graph.n == 0:
        return coloring
    colors = _iterated_greedy(graph, list(coloring.colors), stop_at=1, rounds=rounds)
    return Coloring.checked(graph, colors)


def lift_coloring(morphism, codomain_coloring: Coloring) -> Coloring:
    """Pull a proper codomain coloring back along a graph morphism.

    Adjacent domain vertices have adjacent (hence differently colored)
    images, so the pullback is proper; this is re-verified, and a failure
    (which would falsify the morphism) raises.
    """
    if not codomain_coloring.proper:
        raise ValueError("codomain coloring must be proper before lifting")
    dom = morphism.domain
    lifted = tuple(codomain_coloring.colors[morphism.vertex_map[v]] for v in range(dom.n))
    out = Coloring.checked(dom, lifted)
    if not out.proper:
        raise AssertionError(
            "lifted coloring is improper; the morphism does not preserve some edge")
    return out
