"""Cycle structure: Hamiltonian cycle search and a per-length cycle census.

The Hamiltonian solver runs a rotation (Posa) heuristic first, then an exact
backtracking search with degree-sorted branching; exhaustion of the exact
search proves absence.  The census works downward from the longest length,
seeding witnesses from the Hamiltonian search's paths: every chord of a known
cycle splits it into two shorter cycles, and the closure of that derivation
usually covers most lengths before any per-length search runs.

Loops are ignored throughout; a cycle here means a simple cycle on at least
three distinct vertices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import TriangleGraph

DEFAULT_HAMILTON_NODE_BUDGET = 5_000_000
DEFAULT_CENSUS_NODE_BUDGET = 5_000_000

# absence proofs by exhaustive search are attempted only this far up
ABSENCE_VERTEX_LIMIT = 64

FOUND = "found"
ABSENT = "absent"
NONE = "none"
UNRESOLVED = "unresolved"


def verify_cycle(graph: TriangleGraph, cycle) -> bool:
    """True when cycle is a closed walk of >= 3 distinct adjacent vertices."""
    cyc = list(cycle)
    if len(cyc) < 3 or len(set(cyc)) != len(cyc):
        return False
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        if b not in graph.neighbors(a):
            return False
    return True


@dataclass
class HamiltonResult:
    """Outcome of the Hamiltonian cycle search.

    status 'found' carries the witness; 'none' means the exact search
    exhausted (or a degree/connectivity obstruction was hit); 'unresolved'
    means the node budget ran out first.
    """

    status: str
    cycle: tuple[int, ...] | None
    nodes: int


def hamiltonian_cycle(graph: TriangleGraph, node_budget: int | None = None) -> HamiltonResult:
    """Rotation heuristic, then the exact search within node_budget nodes
    (None means DEFAULT_HAMILTON_NODE_BUDGET)."""
    if node_budget is None:
        node_budget = DEFAULT_HAMILTON_NODE_BUDGET
    n = graph.n
    if n < 3:
        return HamiltonResult(NONE, None, 0)
    adj = [_mask(graph.neighbors(v)) for v in range(n)]
    # degree < 2 or disconnection rules a Hamiltonian cycle out immediately
    full = (1 << n) - 1
    if any(m.bit_count() < 2 for m in adj) or _reach(adj, 0, full) != full:
        return HamiltonResult(NONE, None, 0)

    cycle, _ = _posa(adj, n)
    if cycle is not None:
        assert verify_cycle(graph, cycle)
        return HamiltonResult(FOUND, tuple(cycle), 0)

    status, cycle, nodes = _hamilton_exact(adj, n, node_budget)
    assert cycle is None or verify_cycle(graph, cycle)
    return HamiltonResult(status, tuple(cycle) if cycle else None, nodes)


@dataclass
class CensusEntry:
    """Per-length census verdict: a witness cycle, a proof of absence, or
    an unresolved flag when the budget ran out before exhaustion."""

    length: int
    status: str
    cycle: tuple[int, ...] | None = None
    reason: str | None = None


def census_to_json(census: dict[int, CensusEntry]) -> dict:
    """The JSON form of a cycle census, keyed by length as text."""
    return {str(L): {"status": e.status, "cycle": e.cycle, "reason": e.reason}
            for L, e in sorted(census.items())}


def cycle_census(graph: TriangleGraph, min_len: int = 3, max_len: int | None = None,
                 node_budget: int | None = None) -> dict[int, CensusEntry]:
    """Census of simple cycle lengths in [min_len, max_len] (max_len defaults
    to |V| and is clamped there).  Lengths are settled in descending order;
    absence by exhaustive search is only attempted for |V| <= 64, odd lengths
    in bipartite graphs are settled by parity.  node_budget is shared by all
    lengths; None means DEFAULT_CENSUS_NODE_BUDGET."""
    if node_budget is None:
        node_budget = DEFAULT_CENSUS_NODE_BUDGET
    n = graph.n
    if min_len < 3:
        raise ValueError("cycles have length >= 3")
    max_len = n if max_len is None else min(max_len, n)
    entries: dict[int, CensusEntry] = {}
    if max_len < min_len:
        return entries
    adj = [_mask(graph.neighbors(v)) for v in range(n)]
    bipartite = _two_coloring(graph)[3] is None

    witnesses: dict[int, list[int]] = {}
    seeds: list[list[int]] = []
    ham_cycle, best_path = _posa(adj, n)
    if ham_cycle is not None:
        seeds.append(ham_cycle)
    elif best_path:
        closed = _longest_chord_closure(adj, best_path)
        if closed is not None:
            seeds.append(closed)
    for seed in seeds:
        _derive_subcycles(adj, seed, witnesses)

    budget = node_budget
    for length in range(max_len, min_len - 1, -1):
        if length in witnesses:
            cyc = witnesses[length]
            assert verify_cycle(graph, cyc)
            entries[length] = CensusEntry(length, FOUND, tuple(cyc))
            continue
        if bipartite and length % 2 == 1:
            entries[length] = CensusEntry(length, ABSENT, reason="bipartite")
            continue
        if budget <= 0:
            entries[length] = CensusEntry(length, UNRESOLVED, reason="budget")
            continue
        status, cyc, used = _find_cycle_of_length(adj, n, length, budget)
        budget -= used
        if cyc is not None:
            assert verify_cycle(graph, cyc)
            entries[length] = CensusEntry(length, FOUND, tuple(cyc))
            _derive_subcycles(adj, cyc, witnesses)
        elif status == ABSENT and n <= ABSENCE_VERTEX_LIMIT:
            entries[length] = CensusEntry(length, ABSENT, reason="exhausted")
        else:
            reason = "budget" if status == UNRESOLVED else "too large for exhaustion"
            entries[length] = CensusEntry(length, UNRESOLVED, reason=reason)

    return {length: entries[length] for length in sorted(entries)}


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _bits(m: int):
    while m:
        b = m & -m
        yield b.bit_length() - 1
        m ^= b


def _reach(adj: list[int], start: int, allowed: int) -> int:
    """Mask of the vertices reachable from start through `allowed` ones."""
    seen = frontier = 1 << start
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= adj[v]
        frontier = nxt & allowed & ~seen
        seen |= frontier
    return seen


def _two_coloring(graph: TriangleGraph):
    """BFS 2-coloring with loops ignored: (color, parent, depth, conflict).

    The lists describe the BFS forest; conflict is the first edge (v, w)
    found with both ends one color, where the search stops, or None when the
    graph without its loops is bipartite.
    """
    n = graph.n
    color = [-1] * n
    parent = [-1] * n
    depth = [0] * n
    for s in range(n):
        if color[s] >= 0:
            continue
        color[s] = 0
        queue = [s]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for w in graph.neighbors(v):
                if color[w] < 0:
                    color[w] = color[v] ^ 1
                    parent[w] = v
                    depth[w] = depth[v] + 1
                    queue.append(w)
                elif color[w] == color[v]:
                    return color, parent, depth, (v, w)
    return color, parent, depth, None


def _posa(adj: list[int], n: int):
    """Rotation heuristic.  Returns (hamiltonian cycle | None, longest path).

    Deterministic: fixed seed, and the walk prefers fewest-continuations
    extensions with index tie-breaks before falling back to seeded choice.
    """
    if n < 3:
        return None, []
    steps = max(4000, 80 * n)
    rng = random.Random(0xD334)
    start = max(range(n), key=lambda v: (adj[v].bit_count(), -v))
    path = [start]
    onpath = 1 << start
    best_path = list(path)
    for _ in range(steps):
        end = path[-1]
        ext = adj[end] & ~onpath
        if ext:
            cands = list(_bits(ext))
            w = min(cands, key=lambda u: ((adj[u] & ~onpath).bit_count(), u))
            path.append(w)
            onpath |= 1 << w
            if len(path) > len(best_path):
                best_path = list(path)
            if len(path) == n:
                closed = _close_path(adj, path)
                if closed is not None:
                    return closed, best_path
        else:
            if len(path) == n:
                closed = _close_path(adj, path)
                if closed is not None:
                    return closed, best_path
            # rotate: edge from the endpoint to path[i] flips the tail
            pivots = [i for i in range(len(path) - 2) if adj[end] >> path[i] & 1]
            if not pivots:
                break
            i = rng.choice(pivots)
            path[i + 1:] = reversed(path[i + 1:])
    return None, best_path


def _close_path(adj: list[int], path: list[int]) -> list[int] | None:
    """Close a spanning path into a cycle, rotating once if needed."""
    if adj[path[-1]] >> path[0] & 1:
        return list(path)
    end = path[-1]
    for i in range(len(path) - 2):
        # rotation at i keeps a spanning path but moves the endpoint
        if adj[end] >> path[i] & 1 and adj[path[i + 1]] >> path[0] & 1:
            rotated = path[:i + 1] + list(reversed(path[i + 1:]))
            return rotated
    return None


def _hamilton_exact(adj: list[int], n: int, node_budget: int):
    """Complete backtracking search; ('found', cycle, nodes) or
    ('none', None, nodes) on exhaustion, ('unresolved', None, nodes) on
    budget."""
    full = (1 << n) - 1
    start = 0
    path = [start]
    nodes = 0

    def prune(avail: int, end: int) -> bool:
        # every unvisited vertex still needs two usable incident edges, and
        # the closing edge into start must come from an unvisited vertex
        region = avail | (1 << end) | (1 << start)
        if avail and not adj[start] & avail:
            return True
        for u in _bits(avail):
            if (adj[u] & region).bit_count() < 2:
                return True
        # the rest of the cycle lives in avail + end; it must be connected
        rest = avail | (1 << end)
        return _reach(adj, end, rest) != rest

    def dfs(end: int, avail: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise _Budget
        if not avail:
            return bool(adj[end] >> start & 1)
        if prune(avail, end):
            return False
        cands = list(_bits(adj[end] & avail))
        cands.sort(key=lambda w: ((adj[w] & avail).bit_count(), w))
        for w in cands:
            path.append(w)
            if dfs(w, avail & ~(1 << w)):
                return True
            path.pop()
        return False

    try:
        if dfs(start, full & ~(1 << start)):
            return FOUND, path, nodes
        return NONE, None, nodes
    except _Budget:
        return UNRESOLVED, None, nodes


class _Budget(Exception):
    pass


def _longest_chord_closure(adj: list[int], path: list[int]) -> list[int] | None:
    """Longest cycle formed by one chord of the path."""
    best = None
    for i in range(len(path)):
        for j in range(i + 2, len(path)):
            if adj[path[i]] >> path[j] & 1 and j - i + 1 >= 3:
                if best is None or j - i + 1 > len(best):
                    best = path[i:j + 1]
    return best


def _derive_subcycles(adj: list[int], cycle: list[int], witnesses: dict[int, list[int]]):
    """Chord-split closure: every chord of a known cycle yields two shorter
    cycles; iterate until no new length appears."""
    queue = [list(cycle)]
    if len(cycle) not in witnesses:
        witnesses[len(cycle)] = list(cycle)
    while queue:
        cyc = queue.pop()
        length = len(cyc)
        for i in range(length):
            for j in range(i + 2, length):
                if i == 0 and j == length - 1:
                    continue
                if not adj[cyc[i]] >> cyc[j] & 1:
                    continue
                inner = cyc[i:j + 1]
                outer = cyc[j:] + cyc[:i + 1]
                for sub in (inner, outer):
                    if len(sub) >= 3 and len(sub) not in witnesses:
                        witnesses[len(sub)] = sub
                        queue.append(sub)


def _find_cycle_of_length(adj: list[int], n: int, length: int, node_budget: int):
    """Search for one simple cycle of exactly the given length.

    Exhaustive over cycles grouped by their minimum vertex, with a
    shortest-distance-to-root prune.  Returns (status, cycle | None, nodes).
    """
    nodes = 0
    for s in range(n):
        allowed = _mask(range(s, n))
        if (adj[s] & allowed).bit_count() < 2:
            continue
        dist = _bfs_dist(adj, s, allowed, n)
        path = [s]

        def dfs(end: int, onpath: int, remaining: int) -> bool:
            nonlocal nodes
            nodes += 1
            if nodes > node_budget:
                raise _Budget
            if remaining == 0:
                return bool(adj[end] >> s & 1)
            for w in _bits(adj[end] & allowed & ~onpath):
                if dist[w] > remaining:
                    continue
                path.append(w)
                if dfs(w, onpath | (1 << w), remaining - 1):
                    return True
                path.pop()
            return False

        try:
            if dfs(s, 1 << s, length - 1):
                return FOUND, path, nodes
        except _Budget:
            return UNRESOLVED, None, nodes
    return ABSENT, None, nodes


def _bfs_dist(adj: list[int], s: int, allowed: int, n: int) -> list[int]:
    INF = n + 1
    dist = [INF] * n
    dist[s] = 0
    frontier = 1 << s
    seen = frontier
    d = 0
    while frontier:
        d += 1
        nxt = 0
        for v in _bits(frontier):
            nxt |= adj[v]
        frontier = nxt & allowed & ~seen
        for w in _bits(frontier):
            dist[w] = d
        seen |= frontier
    return dist
