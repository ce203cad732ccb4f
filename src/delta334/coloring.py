"""Vertex coloring: DSATUR greedy upper bound and exact chromatic number.

DSATUR (Brélaz, CACM 1979) colors the uncolored vertex with the most
distinct neighbor colors next (then highest degree, then lowest index) with
its smallest free color, popping vertices from a heap.  Culberson's iterated
greedy then recolors whole color classes first-fit, since each class of a
proper coloring is an independent set and its vertices' colors depend only
on the classes recolored before it: on graphs of at most 256 vertices or
of edge density at least 1/64 with int masks of vertices
(`_bitset_rounds`), on the others with one numpy step per class
(`_array_rounds`).  The exact solver runs those rounds only on components
that are small or dense by the same rule: on the sparse components of SL3(Z)
portions they never gained a color over DSATUR.  It tests k-colorability
downward from the colors so found to one clique of the whole graph, each k on a
component's k-core, from one core decomposition of the graph (the rest
first-fit in reverse degeneracy order);
the core search adds that clique's pre-coloring for symmetry breaking,
forward checking on bitboards (after San Segundo, Comput. Oper. Res. 2012:
a mask per color of the vertices that may still take it, and a mask per
count of colors left as the vertex queue), and an ascending-color symmetry
cap (a vertex may only open one new color).  A color that would take a
neighbor's last color is refused before any mask moves, and a vertex's
color loop ends at its last candidate.  Chi is certified when a coloring
meets the clique or n / alpha (each color class is an independent set;
Godsil and Royle, Algebraic Graph Theory, 7.5), or when the
(chi-1)-coloring search exhausts.  Alpha is clique_number of the
complement, which keeps the labels and so their conjugation orbits; it is
tried on a graph with one orbit, where that search has one root.
Each k-colorability search is one loop in this process.
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

from .cliques import CliqueResult, _clique_search, _row_ints, clique_number, verify_clique
from .graph import TriangleGraph, _conjugation_orbits, _core_order

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
    colors = np.asarray(colors)  # arcs run by tail, so the first bad one has t < h
    bad = np.flatnonzero(np.repeat(colors, np.diff(graph._indptr)) == colors[graph._heads])
    return (int(np.searchsorted(graph._indptr, bad[0], "right")) - 1,
            int(graph._heads[bad[0]])) if bad.size else None


@dataclass
class ChromaticResult:
    """Exact chi when lower == upper, with an exhaustion or independence certificate
    (infeasible_k, exhausted, nodes; independent_set: a maximum clique of the
    complement, automorphisms: the label ids whose conjugation maps pinned it)."""

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
    search's own, 0 with no search (the clique's stay in `clique`)."""
    found = [c for c in (search.coloring if search else None, *colorings)
             if c is not None and c.proper]
    best = min(found, key=lambda c: c.num_colors)
    lower = max(clique.size, search.lower if search else 0,
                2 if graph.edge_count else min(graph.n, 1))
    certificate = {**(search.certificate if search else {}),
                   "lower_bound_clique": clique.witness}
    return ChromaticResult(lower, best.num_colors, best, lower == best.num_colors,
                           certificate, search.nodes if search else 0)


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
    node budget; a time_budget of 0 leaves the chi search no node.
    Components share the node budget, one DSATUR and at most one core
    decomposition of the whole graph: restricted to a component, each is the
    component's own, as a pop in one component moves no degree or saturation
    in another.  node_budget None means DEFAULT_COLOR_NODE_BUDGET.  On one
    orbit, alpha's search gets what that clique search left, the descent
    what remains; a cut alpha bounds nothing.
    Iterated-greedy rounds refine only components that are `_small_or_dense`."""
    _reject_loops(graph)
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    if node_budget is None:
        node_budget = DEFAULT_COLOR_NODE_BUDGET
    own_clique = clique is None  # its nodes are not the alpha search's to spend
    found = _conjugation_orbits(graph)  # for the clique search and the one-orbit rule
    if own_clique:
        clique = _clique_search(graph, node_budget, found)
    elif not verify_clique(graph, clique.witness):
        raise ValueError(f"{clique.witness} is not a clique of the graph")

    colors = _dsatur(graph)
    floor = max(len(clique.witness), 2)  # a cut clique search may stop before its first edge
    lower_all = upper_all = min(graph.n, 1)
    nodes = 0
    certificate: dict = {}
    position = core = None
    if (max(colors, default=0) + 1 > floor and (deadline is None or time.monotonic() < deadline)
            and found is not None and len(found[1]) == 1):  # one orbit: one pinned root
        alpha = clique_number(_complement(graph), max(node_budget - clique.nodes * own_clique, 0))
        nodes, bound = alpha.nodes, -(-graph.n // alpha.size) if alpha.exact else 0
        if bound > floor:
            floor = bound
            certificate = {"infeasible_k": bound - 1, "nodes": nodes, "exhausted": True,
                           "independent_set": alpha.witness, "automorphisms": found[0]}

    for comp in components(graph):
        upper = max(colors[v] for v in comp) + 1
        if upper > floor and _small_or_dense(len(comp), sum(map(graph.degree, comp))):
            greedy = _iterated_greedy(*_component_csr(graph, comp), [colors[v] for v in comp],
                                      stop_at=floor, deadline=deadline)
            for v, c in zip(comp, greedy):
                colors[v] = c
            upper = max(greedy) + 1
        lower = min(floor, upper)  # chi of the graph is at least floor
        if lower < upper:
            if core is None:  # one decomposition serves every component's descent
                order, core = _core_order(graph)
                position = np.argsort(order).tolist()  # position[v]: v's place in order
            comp = sorted(comp, key=position.__getitem__)
            pinned = [v for v in clique.witness if v in comp]  # all of it or none
        while lower < upper:
            k = upper - 1
            status, used = _k_colorable(graph, k, comp, pinned, core, colors, deadline,
                                        node_budget - nodes)
            nodes += used
            if status == "sat":
                upper = k
            elif status == "unsat":
                lower = upper
                if k > certificate.get("infeasible_k", -1):
                    certificate = {"infeasible_k": k, "nodes": used, "exhausted": True}
            else:
                break
        lower_all = max(lower_all, lower)
        upper_all = max(upper_all, upper)
    # chi is the largest component chi, so lower == upper proves it even when
    # a later component was cut by the shared node budget
    witness = Coloring.checked(graph, colors)
    exact = witness.proper and lower_all == upper_all
    return ChromaticResult(lower_all, upper_all, witness if witness.proper else None,
                           exact, {**certificate, "lower_bound_clique": clique.witness},
                           nodes)


def _complement(graph: TriangleGraph) -> TriangleGraph:
    """The graph on the same labels whose edges are the non-edges of
    `graph`, from one boolean table of its arcs (loops left out)."""
    n = graph.n
    table = np.eye(n, dtype=bool)
    table[np.repeat(np.arange(n), np.diff(graph._indptr)), graph._heads] = True
    return TriangleGraph(graph.labels, np.argwhere(~table))


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


def _component_csr(graph: TriangleGraph, comp: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The CSR (indptr, heads) of the component `comp`, ascending vertices
    relabelled 0, 1, ...: one gather of their rows, every head inside."""
    comp = np.asarray(comp)
    starts = graph._indptr[comp]
    deg = graph._indptr[comp + 1] - starts
    indptr = np.zeros(len(comp) + 1, np.int64)
    np.cumsum(deg, out=indptr[1:])
    arcs = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], deg)
    return indptr, np.searchsorted(comp, graph._heads[arcs])


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


def _iterated_greedy(indptr: np.ndarray, heads: np.ndarray, colors: list[int], stop_at: int,
                     rounds: int | None = None,
                     deadline: float | None = None) -> list[int]:
    """Culberson iterated greedy (Culberson and Luo, DIMACS 1996): first-fit
    recoloring of whole color classes in varied orders (largest first,
    reversed, shuffled).  Never increases the color count.  On group graphs
    it sharpens DSATUR (SL3(2): 10 to 8), which saves the exact solver whole
    k-colorability searches; on the sparse components of SL3(Z) portions 300
    rounds never gained a color, so the solver runs it only on components
    that are `_small_or_dense`.  `rounds` defaults to 2000 on graphs of at most
    200 vertices and 300 beyond; no round starts after `deadline` or once
    the best coloring has at most `stop_at` colors.  Returns the first
    coloring with the fewest colors.  Deterministic: fixed RNG seed.

    The input coloring is proper, so every class is an independent set: a
    vertex's first-fit color depends only on the classes recolored before
    its own, never on its classmates, so a whole class takes its colors at
    once, exactly as the one-vertex-at-a-time loop would give them.  The
    j-th class recolored gets a color <= j (at most j colors occur before
    it), so colors stay below k, the number of class ids.

    Two kernels run the rounds with the same result: `_bitset_rounds` on
    graphs of at most 256 vertices or of edge density m / (n (n - 1) / 2)
    at least 1/64, `_array_rounds` on the others.  A bitset round costs a
    few int operations per vertex, each over n bits; a numpy round, array
    calls per class and arithmetic per arc.  On G(n, p) graphs the bitset
    round was faster at nearly every density measured up to 250 vertices,
    and from 500 to 8,000 vertices the two break even at densities
    0.01-0.03 (BENCH_iterated_greedy.json).
    """
    n = len(indptr) - 1
    if rounds is None:
        rounds = 2000 if n <= 200 else 300
    kernel = _bitset_rounds if _small_or_dense(n, len(heads)) else _array_rounds
    return kernel(indptr, heads, colors, stop_at, rounds, deadline)


def _small_or_dense(n: int, arcs: int) -> bool:
    """At most 256 vertices, or edge density m / (n (n - 1) / 2) >= 1/64
    with 2 m arcs: the graphs that take `_bitset_rounds`."""
    return n <= 256 or 64 * arcs >= n * (n - 1)


def _class_order(it: int, sizes: list[int], rng: random.Random) -> list[int]:
    """The class ids in the order round `it` recolors them: largest first
    (stable), reversed, or shuffled by `rng`, by turns."""
    k = len(sizes)
    if it % 3 == 0:
        return sorted(range(k), key=lambda c: -sizes[c])
    if it % 3 == 1:
        return list(range(k - 1, -1, -1))
    order = list(range(k))
    rng.shuffle(order)
    return order


def _bitset_rounds(indptr: np.ndarray, heads: np.ndarray, colors: list[int], stop_at: int,
                   rounds: int, deadline: float | None) -> list[int]:
    """`_iterated_greedy`'s rounds for small or dense graphs.  Each adjacency
    row and each class is an int mask of vertices.  A class takes color c where it
    misses near[c], the union of the rows of the vertices given c so far,
    and the rest of it goes on to c + 1."""
    best, best_k = list(colors), max(colors) + 1
    rng = random.Random(ITERATED_GREEDY_SEED)
    for it in range(rounds):
        if best_k <= stop_at or deadline is not None and time.monotonic() > deadline:
            break
        if it == 0:
            rows = _bit_rows(indptr, heads)
            classes = [0] * best_k
            for v, c in enumerate(best):
                classes[c] |= 1 << v
        new, near = [], []
        for c in _class_order(it, [m.bit_count() for m in classes], rng):
            rest = classes[c]
            for j, blocked in enumerate(near):
                if not rest:
                    break
                take = rest & ~blocked
                if take:
                    rest ^= take
                    new[j] |= take
                    near[j] = blocked | _union(rows, take)
            if rest:
                new.append(rest)
                near.append(_union(rows, rest))
        classes = new
        if len(new) < best_k:
            best, best_k = [0] * len(best), len(new)
            for c, m in enumerate(new):
                while m:
                    v = m.bit_length() - 1
                    best[v] = c
                    m ^= 1 << v
    return best


def _bit_rows(indptr: np.ndarray, heads: np.ndarray) -> list[int]:
    """Each vertex's adjacency row as an int mask, bit w for neighbor w."""
    n = len(indptr) - 1
    words = (n + 63) >> 6
    tail = np.repeat(np.arange(n), np.diff(indptr))
    row_words = np.zeros(n * words, np.uint64)
    np.bitwise_or.at(row_words, tail * words + (heads >> 6),
                     np.uint64(1) << (heads & 63).astype(np.uint64))
    return _row_ints(row_words, words)


def _union(rows: list[int], mask: int) -> int:
    """The union of the rows of the vertices in `mask`."""
    out = 0
    while mask:
        v = mask.bit_length() - 1
        out |= rows[v]
        mask ^= 1 << v
    return out


def _array_rounds(indptr: np.ndarray, heads: np.ndarray, colors: list[int], stop_at: int,
                  rounds: int, deadline: float | None) -> list[int]:
    """`_iterated_greedy`'s rounds in numpy, for the other graphs: each round
    lays the vertices out class by class and recolors each class in one
    array step over its vertices' arcs."""
    n = len(indptr) - 1
    best, best_k = list(colors), max(colors) + 1
    rng = random.Random(ITERATED_GREEDY_SEED)
    for it in range(rounds):
        if best_k <= stop_at or deadline is not None and time.monotonic() > deadline:
            break
        if it == 0:  # set up once a round runs
            deg = np.diff(indptr)
            slots, edge_ids = np.arange(n), np.arange(indptr[-1])
            slot_of, estart = np.empty(n, np.intp), np.zeros(n + 1, np.intp)
            cur = np.array(best, np.intp)
            k = best_k
        sizes = np.bincount(cur, minlength=k)
        order = np.array(_class_order(it, sizes.tolist(), rng), np.intp)
        # lay the vertices out in slots class by class in `order` (a uint16
        # place key sorts by radix), and gather the slots of each one's
        # neighbors (edges estart[s]:estart[s+1]), their arc ids summed in place
        place = np.empty(k, np.uint16 if k <= 1 << 16 else np.intp)
        place[order] = np.arange(k)
        at = np.argsort(place[cur], kind="stable")
        slot_of[at] = slots
        d = deg[at]
        np.cumsum(d, out=estart[1:])
        nb = np.repeat(indptr[at] - estart[:-1], d)
        nb += edge_ids
        nb = slot_of[heads[nb]]
        owner = np.repeat(slots * (k + 1), d)  # each edge's row in `seen`
        cstart = np.concatenate(([0], np.cumsum(sizes[order])))
        vb, eb = cstart.tolist(), estart[cstart].tolist()
        new = np.full(n, k, np.intp)  # by slot; color k: not yet recolored
        seen = np.zeros((n, k + 1), bool)  # by slot: colors of its neighbors
        flat = seen.reshape(-1)
        for j in range(k):
            if vb[j] < vb[j + 1]:
                e = slice(eb[j], eb[j + 1])
                flat[owner[e] + new[nb[e]]] = True
                seen[vb[j]:vb[j + 1], :k].argmin(1, out=new[vb[j]:vb[j + 1]])
        cur = new[slot_of]
        del nb, owner  # the next round's arc arrays need not stack on these
        k = int(cur.max()) + 1
        if k < best_k:
            best, best_k = cur.tolist(), k
    return best


def _k_colorable(graph: TriangleGraph, k: int, comp: list[int], clique: list[int],
                 core: list[int], colors: list[int], deadline: float | None, node_budget: int):
    """('sat' | 'unsat' | 'budget', nodes) for k colors on the component
    `comp`, listed in the order of _core_order(graph), `core` its core
    numbers and `clique` the part of the pinned clique in it.  The search
    runs on the k-core, core[v] >= k.  The rest, a prefix of `comp`, each
    have fewer than k neighbors after them, so first-fit colors them in
    reverse order last.  Only 'sat' writes the coloring into `colors`.
    """
    kcore = [v for v in comp if core[v] >= k]
    nodes = 0
    if kcore:
        status, nodes = _core_search(graph, k, kcore, [v for v in clique if core[v] >= k],
                                     colors, deadline, node_budget)
        if status != "sat":
            return (status, nodes)
    peel = comp[:len(comp) - len(kcore)]
    for v in peel:  # first-fit below must not read the previous coloring
        colors[v] = -1
    for v in reversed(peel):
        used = {colors[w] for w in graph.neighbors(v) if colors[w] >= 0}
        c = 0
        while c in used:
            c += 1
        if c >= k:
            raise AssertionError("peeled vertex ran out of colors")
        colors[v] = c
    return ("sat", nodes)


def _core_search(graph: TriangleGraph, k: int, core: list[int], clique: list[int],
                 colors: list[int], deadline: float | None, node_budget: int):
    """k-color the `core` vertices into `colors`: ('sat' | 'unsat' | 'budget', nodes).

    Bitboard forward checking (San Segundo, Comput. Oper. Res. 2012): core
    vertices own the bits 1 << rank (highest degree, then lowest index,
    first), cand[c] masks those that may still take color c, free the
    uncolored ones, and level[a] those with a colors left.  `_descend` runs
    the search.  `colors` is written only on 'sat'.
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
    lim = min(len(clique) + 1, k)  # the next vertex's colors: the used ones and one new
    stack: list = []
    status, nodes = _descend(k, nbr, neighbor_mask, level, cand, free, lim, stack, deadline,
                             node_budget)
    if status == "sat":
        for c, v in enumerate(clique):
            colors[v] = c
        for r, c, *_ in stack:
            colors[by_rank[r]] = c
    return (status, nodes)


def _descend(k: int, nbr: list[int], neighbor_mask, level: list[int], cand: list[int],
             free: int, lim: int, stack: list, deadline: float | None, node_budget: int):
    """The search from one state to its end: (status, nodes).

    Coloring rank r with c takes d = nbr[r] & cand[c] & free.  It fails
    exactly when d meets level[1], some neighbor's last color, and then
    nothing moves.  Otherwise it clears d from cand[c] and moves d down one
    level, one mask operation per level, and d is its undo.  nbr[r] is built
    when r is first colored, so a cut search on a large core holds masks
    only for the vertices it reached.  The next vertex is the lowest bit of
    the lowest non-empty level a; its colors are tried in ascending order,
    below the cap `lim` (the colors in use and one new), and its loop ends
    after its a-th candidate, as it has no other.  The clique's colors,
    set before the search starts, are in the state and not on `stack`, so
    it is 'unsat' once `stack` is empty and the vertex picked has no color
    left.  On 'sat', `stack` holds the coloring.
    """
    # stack: (rank, color, undo mask, level taken from, one above the highest
    # level d left, candidates left untried, color cap) per colored vertex
    push, pop = stack.append, stack.pop
    nodes = 0
    check_at = 0  # next node count at which to stop or read the clock: first before node 1
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
    return ("sat", nodes)


def heuristic_chromatic_upper(graph: TriangleGraph, rounds: int | None = None) -> Coloring:
    """DSATUR (most saturated vertex first, then highest degree, then lowest
    index; smallest free color) refined by `rounds` of iterated greedy, by
    default 2000 on graphs of at most 200 vertices and 300 beyond;
    rounds=0 returns the plain DSATUR coloring."""
    _reject_loops(graph)
    if graph.n == 0:
        return Coloring((), 0, True)
    colors = _iterated_greedy(graph._indptr, graph._heads, _dsatur(graph), stop_at=1,
                              rounds=rounds)
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
    colors = _iterated_greedy(graph._indptr, graph._heads, list(coloring.colors), stop_at=1,
                              rounds=rounds)
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
