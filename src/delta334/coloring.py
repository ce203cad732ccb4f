"""Vertex coloring: DSATUR greedy upper bound and exact chromatic number.

The exact solver tests k-colorability downward from the greedy bound with a
branch-and-bound backtracking search: DSATUR-style branching (most saturated
vertex first, lowest index on ties), a maximum-clique pre-coloring for
symmetry breaking, forward checking on per-vertex color domains, and an
ascending-color symmetry cap (a vertex may only open one new color).  The
chromatic number is certified when the (chi-1)-coloring search exhausts.

Graphs with loops cannot be properly colored; coloring operations reject
them.  Identity-free triangle graphs never carry loops.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

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


@dataclass
class _SubGraph:
    """Induced subgraph view with local indices."""

    vertices: list[int]
    nbrs: list[list[int]]


def _induced(graph: TriangleGraph, vertices: list[int]) -> _SubGraph:
    local = {v: i for i, v in enumerate(vertices)}
    nbrs = [[local[w] for w in graph.neighbors(v) if w in local] for v in vertices]
    return _SubGraph(vertices, nbrs)


def _component_chromatic(graph: TriangleGraph, comp: list[int],
                         deadline: float | None, node_budget: int) -> ChromaticResult:
    sub = _induced(graph, comp)
    n = len(comp)
    if all(not row for row in sub.nbrs):
        return ChromaticResult(1, 1, Coloring(tuple([0] * n), 1, True), True)

    # clique lower bound on the component's induced subgraph
    comp_graph = TriangleGraph(range(n),
                               [(i, j) for i in range(n) for j in sub.nbrs[i] if i < j])
    clq = clique_number(comp_graph)
    lower = clq.size
    clique_vs = list(clq.witness)

    greedy = _iterated_greedy(sub, _dsatur_local(sub), stop_at=lower,
                              rounds=2000 if n <= 200 else 300)
    upper = max(greedy) + 1
    upper_colors = list(greedy)

    nodes_used = 0
    certificate: dict = {}
    exact = clq.exact
    while lower < upper:
        k = upper - 1
        status, kcolors, used = _k_colorable(sub, k, clique_vs, deadline,
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
    witness = Coloring.checked(graph=comp_graph, colors=upper_colors)
    return ChromaticResult(lower, upper, witness, exact and lower == upper,
                           certificate, nodes_used)


def _dsatur_local(sub: _SubGraph) -> list[int]:
    n = len(sub.vertices)
    colors = [-1] * n
    sat: list[set[int]] = [set() for _ in range(n)]
    deg = [len(row) for row in sub.nbrs]
    for _ in range(n):
        v = min((u for u in range(n) if colors[u] < 0),
                key=lambda u: (-len(sat[u]), -deg[u], u))
        c = 0
        while c in sat[v]:
            c += 1
        colors[v] = c
        for w in sub.nbrs[v]:
            if colors[w] < 0:
                sat[w].add(c)
    return colors


def _iterated_greedy(sub: _SubGraph, colors: list[int], stop_at: int,
                     rounds: int = 2000) -> list[int]:
    """Culberson iterated greedy: regreedy whole color classes in varied
    orders (largest first / reversal / shuffled, with within-class shuffles).
    Class-at-a-time regreedy never increases the color count and often
    sharpens DSATUR by a color or two, which saves the exact solver whole
    k-colorability searches.  Deterministic: fixed RNG seed."""
    n = len(sub.vertices)
    best = list(colors)
    best_k = max(best) + 1
    cur = best
    rng = random.Random(0x334)
    for it in range(rounds):
        if best_k <= stop_at:
            break
        k = max(cur) + 1
        classes: list[list[int]] = [[] for _ in range(k)]
        for v in range(n):
            classes[cur[v]].append(v)
        mode = it % 3
        if mode == 0:
            classes.sort(key=len, reverse=True)
        elif mode == 1:
            classes.reverse()
        else:
            rng.shuffle(classes)
            for cls in classes:
                rng.shuffle(cls)
        nxt = [-1] * n
        for cls in classes:
            for v in cls:
                used = {nxt[w] for w in sub.nbrs[v] if nxt[w] >= 0}
                c = 0
                while c in used:
                    c += 1
                nxt[v] = c
        cur = nxt
        ck = max(cur) + 1
        if ck < best_k:
            best, best_k = list(cur), ck
    return best


def _k_colorable(sub: _SubGraph, k: int, clique: list[int],
                 deadline: float | None, node_budget: int):
    """('sat', colors, nodes) | ('unsat', None, nodes) | ('budget', None, nodes).

    Vertices of degree < k are peeled first (they can always be colored at
    the end); the search runs on the remaining core.
    """
    n = len(sub.vertices)
    if k <= 0:
        return ("unsat", None, 0) if n else ("sat", [], 0)

    alive = [True] * n
    deg = [len(row) for row in sub.nbrs]
    peel_stack = []
    changed = True
    while changed:
        changed = False
        for v in range(n):
            if alive[v] and deg[v] < k:
                alive[v] = False
                peel_stack.append(v)
                for w in sub.nbrs[v]:
                    if alive[w]:
                        deg[w] -= 1
                changed = True
    core = [v for v in range(n) if alive[v]]

    colors = [-1] * n
    nodes = 0
    if core:
        core_set = set(core)
        clique_core = [v for v in clique if v in core_set]
        status, nodes = _core_search(sub, k, core, clique_core, colors,
                                     deadline, node_budget)
        if status != "sat":
            return (status, None, nodes)
    for v in reversed(peel_stack):
        used = {colors[w] for w in sub.nbrs[v] if colors[w] >= 0}
        c = 0
        while c in used:
            c += 1
        if c >= k:
            raise AssertionError("peeled vertex ran out of colors")
        colors[v] = c
    return ("sat", colors, nodes)


def _core_search(sub: _SubGraph, k: int, core: list[int], clique: list[int],
                 colors: list[int], deadline: float | None, node_budget: int):
    full_mask = (1 << k) - 1
    avail = {v: full_mask for v in core}
    uncolored = set(core)
    nodes = 0
    max_used = -1

    def assign(v: int, c: int, undo: list[tuple[int, int]]) -> bool:
        colors[v] = c
        uncolored.discard(v)
        bit = 1 << c
        for w in sub.nbrs[v]:
            if w in avail and colors[w] < 0 and avail[w] & bit:
                undo.append((w, avail[w]))
                avail[w] &= ~bit
                if avail[w] == 0:
                    return False
        return True

    def unassign(v: int, undo: list[tuple[int, int]]):
        colors[v] = -1
        uncolored.add(v)
        for w, m in reversed(undo):
            avail[w] = m

    # clique pre-coloring: any k-coloring can be permuted so a fixed clique
    # uses colors 0..len-1, so pinning them is sound symmetry breaking
    pre_undo: list[tuple[int, int]] = []
    for c, v in enumerate(sorted(clique)):
        if c >= k:
            return ("unsat", 0)
        if not (avail[v] & (1 << c)):
            return ("unsat", 0)
        if not assign(v, c, pre_undo):
            return ("unsat", 0)
        max_used = c

    def pick() -> int:
        return min(uncolored,
                   key=lambda u: (avail[u].bit_count(), -len(sub.nbrs[u]), u))

    # explicit stack: [vertex, untried color mask, undo log, max_used before]
    status = None
    if not uncolored:
        status = "sat"
    else:
        v0 = pick()
        stack = [[v0, avail[v0] & ((1 << min(k, max_used + 2)) - 1), None, max_used]]
        nodes += 1
    while status is None:
        if not stack:
            status = "unsat"
            break
        frame = stack[-1]
        v, allowed, undo, prev_max = frame
        if undo is not None:
            # back from a failed subtree: retract this frame's assignment
            unassign(v, undo)
            frame[2] = None
        if not allowed:
            stack.pop()
            continue
        bit = allowed & -allowed
        frame[1] = allowed & (allowed - 1)
        c = bit.bit_length() - 1
        undo = []
        frame[2] = undo
        if assign(v, c, undo):
            cur_max = max(prev_max, c)
            if not uncolored:
                status = "sat"
                break
            nodes += 1
            if nodes % 4096 == 0:
                if deadline is not None and time.monotonic() > deadline:
                    status = "budget"
                    break
                if nodes > node_budget:
                    status = "budget"
                    break
            w = pick()
            stack.append([w, avail[w] & ((1 << min(k, cur_max + 2)) - 1), None, cur_max])
        else:
            unassign(v, undo)
            frame[2] = None

    if status != "sat":
        for v in core:
            colors[v] = -1
    return (status, nodes)


def heuristic_chromatic_upper(graph: TriangleGraph, rounds: int = 2000) -> Coloring:
    """DSATUR (ties broken by lowest index) refined by `rounds` of iterated
    greedy; rounds=0 returns the plain DSATUR coloring."""
    _reject_loops(graph)
    if graph.n == 0:
        return Coloring((), 0, True)
    sub = _induced(graph, list(range(graph.n)))
    colors = _iterated_greedy(sub, _dsatur_local(sub), stop_at=1, rounds=rounds)
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
    sub = _induced(graph, list(range(graph.n)))
    colors = _iterated_greedy(sub, list(coloring.colors), stop_at=1, rounds=rounds)
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
