"""Vertex coloring: DSATUR greedy upper bound and exact chromatic number.

One saturation-ordered search, `_core_search`, serves both.  It colors the
uncolored vertex with the fewest colors left next (then highest degree, then
lowest index), keeping the vertices in int masks per count of colors left
instead of scanning them (a bucket queue after Brélaz, CACM 1979, updated
incrementally after San Segundo, Comput. Oper. Res. 2012).  DSATUR is its
first descent with k = max degree + 1, which never backtracks.  Culberson's
iterated greedy then recolors whole color classes first-fit, one numpy step
per class, since each class of a proper coloring is an independent set and
its vertices' colors depend only on the classes recolored before it.  The
exact solver tests k-colorability downward from the iterated-greedy bound:
vertices of degree < k are peeled, and the core search adds a maximum-clique
pre-coloring for symmetry breaking, forward checking on the color domains,
and an ascending-color symmetry cap (a vertex may only open one new color).
The chromatic number is certified when the (chi-1)-coloring search exhausts.

Graphs with loops cannot be properly colored; coloring operations reject
them.  Identity-free triangle graphs never carry loops.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .cliques import clique_number
from .graph import TriangleGraph

DEFAULT_COLOR_NODE_BUDGET = 50_000_000


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
    for i, j in graph.edges():
        if colors[i] == colors[j]:
            return (i, j)
    return None


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


def chromatic_number_exact(graph: TriangleGraph,
                           time_budget: float | None = None,
                           node_budget: int = DEFAULT_COLOR_NODE_BUDGET) -> ChromaticResult:
    """Exact chromatic number with witness coloring, or best bounds on budget
    exhaustion.  Components are solved independently; within a component,
    vertices with degree < k are peeled before the k-colorability search."""
    _reject_loops(graph)
    n = graph.n
    if n == 0:
        return ChromaticResult(0, 0, Coloring((), 0, True), True)
    deadline = time.monotonic() + time_budget if time_budget else None

    colors = [0] * n
    lower_all = 1 if n else 0
    upper_all = 1
    exact_all = True
    total_nodes = 0
    certificate: dict = {}

    for comp in _components(graph):
        res = _component_chromatic(graph, comp, deadline, node_budget)
        total_nodes += res.nodes
        if res.coloring is not None:
            for v, c in zip(comp, res.coloring.colors):
                colors[v] = c
        lower_all = max(lower_all, res.lower)
        upper_all = max(upper_all, res.upper)
        exact_all = exact_all and res.exact
        if res.certificate.get("infeasible_k") is not None and res.exact:
            prev = certificate.get("infeasible_k", -1)
            if res.certificate["infeasible_k"] > prev:
                certificate = res.certificate
    witness = Coloring.checked(graph, colors)
    exact_all = exact_all and witness.proper and lower_all == upper_all
    return ChromaticResult(lower_all, upper_all, witness if witness.proper else None,
                           exact_all, certificate, total_nodes)


def _reject_loops(graph: TriangleGraph):
    if graph.loops:
        raise ValueError("graph has loops; no proper coloring exists "
                         "(drop the identity vertex first)")


def _components(graph: TriangleGraph) -> list[list[int]]:
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


def _induced(graph: TriangleGraph, vertices: list[int]) -> TriangleGraph:
    """The subgraph on ascending `vertices`, relabelled 0..len(vertices)-1."""
    local = {v: i for i, v in enumerate(vertices)}
    return TriangleGraph(vertices, [(i, local[w]) for i, v in enumerate(vertices)
                                    for w in graph.neighbors(v) if w > v and w in local])


def _component_chromatic(graph: TriangleGraph, comp: list[int],
                         deadline: float | None, node_budget: int) -> ChromaticResult:
    sub = _induced(graph, comp)
    if not sub.edge_count:
        return ChromaticResult(1, 1, Coloring((0,) * sub.n, 1, True), True)

    clq = clique_number(sub)
    lower = clq.size

    greedy = _iterated_greedy(sub, _dsatur(sub), stop_at=lower, deadline=deadline)
    upper = max(greedy) + 1
    upper_colors = list(greedy)

    nodes_used = 0
    certificate: dict = {}
    exact = clq.exact
    while lower < upper:
        k = upper - 1
        status, kcolors, used = _k_colorable(sub, k, clq.witness, deadline,
                                             node_budget - nodes_used)
        nodes_used += used
        if status == "sat":
            upper = k
            upper_colors = kcolors
        elif status == "unsat":
            lower = upper
            certificate = {"infeasible_k": k, "nodes": used, "exhausted": True}
            exact = True
            break
        else:
            exact = False
            break
    witness = Coloring.checked(sub, upper_colors)
    return ChromaticResult(lower, upper, witness, exact and lower == upper,
                           certificate, nodes_used)


def _dsatur(graph: TriangleGraph) -> list[int]:
    """DSATUR: the first descent of the search with k = max degree + 1."""
    n = graph.n
    colors = [-1] * n
    k = max(graph.degree(v) for v in range(n)) + 1
    _core_search(graph, k, list(range(n)), [], colors, None, n)
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
    below k, the number of class ids.  Shuffling within a class therefore no
    longer changes the result, but those shuffles are still drawn, with the
    same lengths: they advance the RNG stream that orders the classes of the
    later shuffled rounds.
    """
    n = graph.n
    if rounds is None:
        rounds = 2000 if n <= 200 else 300
    best = list(colors)
    best_k = max(best) + 1
    rng = random.Random(0x334)
    for it in range(rounds):
        if best_k <= stop_at:
            break
        if deadline is not None and time.monotonic() > deadline:
            break
        if it == 0:  # adjacency rows (CSR), built only once a round runs
            deg = np.fromiter(map(graph.degree, range(n)), np.intp, n)
            indptr = np.concatenate(([0], np.cumsum(deg)))
            indices = np.fromiter(chain.from_iterable(map(graph.neighbors, range(n))),
                                  np.intp, indptr[-1])
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
            for size in sizes[shuffled].tolist():
                rng.shuffle([0] * size)
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


def _k_colorable(graph: TriangleGraph, k: int, clique: tuple[int, ...],
                 deadline: float | None, node_budget: int):
    """('sat', colors, nodes) | ('unsat', None, nodes) | ('budget', None, nodes).

    Vertices of degree < k are peeled first (they can always be colored at
    the end); the search runs on the remaining core.
    """
    n = graph.n
    nbrs = [graph.neighbors(v) for v in range(n)]
    alive = [True] * n
    deg = [len(row) for row in nbrs]
    peel_stack = []
    changed = True
    while changed:
        changed = False
        for v in range(n):
            if alive[v] and deg[v] < k:
                alive[v] = False
                peel_stack.append(v)
                for w in nbrs[v]:
                    if alive[w]:
                        deg[w] -= 1
                changed = True
    core = [v for v in range(n) if alive[v]]

    colors = [-1] * n
    nodes = 0
    if core:
        core_set = set(core)
        clique_core = [v for v in clique if v in core_set]
        status, nodes = _core_search(graph, k, core, clique_core, colors,
                                     deadline, node_budget)
        if status != "sat":
            return (status, None, nodes)
    for v in reversed(peel_stack):
        used = {colors[w] for w in nbrs[v] if colors[w] >= 0}
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

    avail[v] masks the colors left to v (0 off the core).  Core vertices own
    the bits 1 << rank[v] (highest degree, then lowest index, first), and
    level[a] masks the uncolored ones with a colors left.  The next vertex is
    the lowest bit of the lowest non-empty level; its colors are tried in
    ascending order, opening at most one new color.  Unless 'sat', the
    core's colors are reset to -1.
    """
    nbrs = [graph.neighbors(v) for v in range(graph.n)]
    by_rank = sorted(core, key=lambda u: (-len(nbrs[u]), u))
    rank = [0] * graph.n
    avail = [0] * graph.n
    for r, v in enumerate(by_rank):
        rank[v] = r
        avail[v] = (1 << k) - 1
    level = [0] * (k + 1)
    level[k] = (1 << len(core)) - 1
    left = len(core)

    def assign(v: int, c: int, undo: list[int]) -> bool:
        nonlocal left
        colors[v] = c
        left -= 1
        level[avail[v].bit_count()] ^= 1 << rank[v]
        bit = 1 << c
        for w in nbrs[v]:
            a = avail[w]
            if a & bit and colors[w] < 0:
                undo.append(w)
                avail[w] = a ^ bit
                size = a.bit_count()
                b = 1 << rank[w]
                level[size] ^= b
                level[size - 1] |= b
                if size == 1:
                    return False
        return True

    def unassign(v: int, undo: list[int]):
        nonlocal left
        bit = 1 << colors[v]
        colors[v] = -1
        left += 1
        level[avail[v].bit_count()] |= 1 << rank[v]
        for w in undo:
            a = avail[w]
            avail[w] = a | bit
            size = a.bit_count()
            b = 1 << rank[w]
            level[size] ^= b
            level[size + 1] |= b

    # clique pre-coloring: any k-coloring can be permuted so a fixed clique
    # uses colors 0..len-1, so pinning them is sound symmetry breaking
    for c, v in enumerate(sorted(clique)):
        if c >= k or not assign(v, c, []):
            return ("unsat", 0)
    # explicit stack: [vertex, untried color mask, undo log, max color before]
    stack = []
    nodes = 0
    ok, cur_max = True, len(clique) - 1
    while True:
        if ok:
            if not left:
                status = "sat"
                break
            nodes += 1
            if nodes % 4096 == 0 and (nodes > node_budget or (
                    deadline is not None and time.monotonic() > deadline)):
                status = "budget"
                break
            for m in level:  # level[0] is empty: an emptied avail is undone at once
                if m:
                    break
            v = by_rank[(m & -m).bit_length() - 1]
            stack.append([v, avail[v] & ((1 << min(k, cur_max + 2)) - 1), None, cur_max])
        frame = stack[-1]
        v, allowed, undo, prev_max = frame
        if undo is not None:
            unassign(v, undo)  # the last color tried here failed
        if not allowed:
            stack.pop()
            if not stack:
                status = "unsat"
                break
            ok = False
            continue
        bit = allowed & -allowed
        frame[1] = allowed ^ bit
        c = bit.bit_length() - 1
        frame[2] = undo = []
        ok = assign(v, c, undo)
        cur_max = max(prev_max, c)

    if status != "sat":
        for v in core:
            colors[v] = -1
    return (status, nodes)


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
