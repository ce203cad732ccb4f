"""Brute-force reference implementations, kept deliberately naive.

Everything here trades speed for obviousness: exhaustive enumeration,
literal fourth powers on plain tuples, no bitsets, no pruning beyond
discarding assignments that are already improper.  Feasible only on tiny
inputs, which is the point: the fast package code is checked against
these on every graph small enough to afford it.  The exceptions are
oracle_core_search and oracle_clique_search, earlier, slower loops of the
exact chi search and of the clique search: they pin the search tree, not
just the answer, so they keep those loops' bitsets; and
oracle_generate_portion, the conjugation BFS as a loop over one candidate
at a time, which pins the vertices, their order and every counter; and
oracle_mod_p_edge_table, the earlier mod-p edge kernel, which forms every
pair's product and its fourth power in batched numpy products, so that
whole SL3(3) tables can be compared; and oracle_order3_vertices, which
enumerates SL3(p) one element at a time, so that SL3(3) and its 5,616
cubes can be compared.
"""

import random
import struct
import time
from itertools import combinations, permutations, product

import numpy as np

from delta334.elements import (MAT3_IDENTITY, DirectSumElement, IntMatrix3, ModMatrix,
                               Permutation, compose, element_key, inverse, mat3_mul)
from delta334.generation import GenerationStats
from delta334.graph import TriangleGraph
from delta334.graphio import label_descriptor, label_to_wire
from delta334.groups import ElementSet, enumerate_group


def oracle_chromatic(graph):
    """Smallest k admitting a proper coloring, with a witness.

    Tries k = 1, 2, ... and enumerates assignments depth-first, rejecting
    a partial assignment as soon as it repeats a color across an edge.
    """
    n = graph.n
    if graph.loops:
        raise ValueError("loops admit no proper coloring")
    if n == 0:
        return 0, ()
    earlier = [[] for _ in range(n)]
    for i, j in graph.edges():
        earlier[max(i, j)].append(min(i, j))
    for k in range(1, n + 1):
        colors = [-1] * n

        def fill(v):
            if v == n:
                return True
            for c in range(k):
                if all(colors[w] != c for w in earlier[v]):
                    colors[v] = c
                    if fill(v + 1):
                        return True
            colors[v] = -1
            return False

        if fill(0):
            return k, tuple(colors)
    raise AssertionError("unreachable: n colors always suffice")


def oracle_independence_number(graph):
    """The size of a largest independent set: every vertex subset, the
    largest first."""
    for size in range(graph.n, 0, -1):
        for subset in combinations(range(graph.n), size):
            if not any(graph.has_edge(a, b) for a, b in combinations(subset, 2)):
                return size
    return 0


def oracle_clique(graph):
    """Largest complete subgraph, by checking every subset, biggest first."""
    n = graph.n
    for size in range(n, 0, -1):
        for subset in combinations(range(n), size):
            if all(graph.has_edge(i, j) for i, j in combinations(subset, 2)):
                return size, subset
    return 0, ()


def oracle_induced_subgraph(graph, comp):
    """The subgraph induced on the ascending vertices `comp`, relabelled 0,
    1, ... in that order, edge by edge from their neighbor lists."""
    local = {v: i for i, v in enumerate(comp)}
    return TriangleGraph(range(len(comp)), [(i, local[w]) for i, v in enumerate(comp)
                                            for w in graph.neighbors(v) if w > v and w in local])


def oracle_dsatur(graph):
    """DSATUR by a linear scan per step: the uncolored vertex with the most
    distinct neighbor colors, then the highest degree, then the lowest index,
    takes its smallest free color."""
    n = graph.n
    colors = [-1] * n
    sat = [set() for _ in range(n)]
    for _ in range(n):
        v = min((u for u in range(n) if colors[u] < 0),
                key=lambda u: (-len(sat[u]), -graph.degree(u), u))
        c = 0
        while c in sat[v]:
            c += 1
        colors[v] = c
        for w in graph.neighbors(v):
            sat[w].add(c)
    return colors


def oracle_iterated_greedy(graph, colors, stop_at, rounds):
    """Culberson's iterated greedy one vertex at a time: each round lists the
    classes of the current coloring (ascending vertices), orders them
    largest first (stable), reversed, or shuffled (by turns, one seeded
    RNG), and gives every vertex in that order its smallest color unused by
    the neighbors recolored so far.  Returns the first coloring with the
    fewest colors; stops once that is <= stop_at."""
    n = graph.n
    best = list(colors)
    best_k = max(best) + 1
    cur = best
    rng = random.Random(0x334)
    for it in range(rounds):
        if best_k <= stop_at:
            break
        classes = [[] for _ in range(max(cur) + 1)]
        for v in range(n):
            classes[cur[v]].append(v)
        if it % 3 == 0:
            classes.sort(key=len, reverse=True)
        elif it % 3 == 1:
            classes.reverse()
        else:
            rng.shuffle(classes)
        nxt = [-1] * n
        for cls in classes:
            for v in cls:
                used = {nxt[w] for w in graph.neighbors(v) if nxt[w] >= 0}
                c = 0
                while c in used:
                    c += 1
                nxt[v] = c
        cur = nxt
        if max(cur) + 1 < best_k:
            best, best_k = cur, max(cur) + 1
    return best


def oracle_degeneracy_order(graph):
    """Repeatedly remove the remaining vertex of least remaining degree,
    lowest index on ties, found by a linear scan."""
    deg = [graph.degree(v) for v in range(graph.n)]
    left = set(range(graph.n))
    order = []
    while left:
        v = min(left, key=lambda u: (deg[u], u))
        left.remove(v)
        order.append(v)
        for w in graph.neighbors(v):
            deg[w] -= 1
    return order


def oracle_core_numbers(graph):
    """Each vertex's core number: the largest k for which deleting, again and
    again, every vertex with fewer than k remaining neighbors leaves it."""
    core = [0] * graph.n
    k = 1
    while True:
        left = set(range(graph.n))
        while True:
            low = {v for v in left if sum(w in left for w in graph.neighbors(v)) < k}
            if not low:
                break
            left -= low
        if not left:
            return core
        for v in left:
            core[v] = k
        k += 1


def oracle_isomorphic(g1, g2):
    """A permutation of g1's vertices that maps its edges onto g2's edges and
    its loops onto g2's loops, or None, by trying every permutation."""
    if g1.n != g2.n:
        return None
    edges2 = set(g2.edges())
    for perm in permutations(range(g1.n)):
        if ({perm[v] for v in g1.loops} == g2.loops
                and {tuple(sorted((perm[i], perm[j]))) for i, j in g1.edges()} == edges2):
            return perm
    return None


def oracle_cycle_lengths(graph):
    """Set of simple cycle lengths, by enumerating all closed paths whose
    smallest vertex is the start."""
    lengths = set()
    n = graph.n

    def extend(start, path, on_path):
        v = path[-1]
        for w in graph.neighbors(v):
            if w == start and len(path) >= 3:
                lengths.add(len(path))
            elif w > start and w not in on_path:
                on_path.add(w)
                path.append(w)
                extend(start, path, on_path)
                path.pop()
                on_path.remove(w)

    for s in range(n):
        extend(s, [s], {s})
    return lengths


def identity_like(x):
    """The identity of x's group."""
    if isinstance(x, Permutation):
        return Permutation.identity(x.n)
    if isinstance(x, IntMatrix3):
        return IntMatrix3.identity()
    if isinstance(x, ModMatrix):
        return ModMatrix.identity(x.p, x.dim)
    if isinstance(x, DirectSumElement):
        return DirectSumElement(identity_like(x.left), identity_like(x.right))
    raise TypeError(f"unsupported carrier {type(x).__name__}")


def group_generators(spec):
    """A small generating set of the group `spec` names."""
    if spec.kind == "S":
        n = spec.n
        if n <= 1:
            return [Permutation.identity(max(n, 1))]
        gens = [Permutation((1, 0) + tuple(range(2, n)))]
        if n >= 3:
            gens.append(Permutation(tuple(range(1, n)) + (0,)))
        return gens
    if spec.kind == "A":
        n = spec.n
        if n <= 2:
            return [Permutation.identity(max(n, 1))]
        gens = []
        for k in range(2, n):  # 3-cycles (0 1 k) generate A_n
            images = list(range(n))
            images[0], images[1], images[k] = images[1], images[k], images[0]
            gens.append(Permutation(images))
        return gens
    if spec.kind == "SL3":
        p = spec.n
        gens = []
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                ent = list((1, 0, 0, 0, 1, 0, 0, 0, 1))
                ent[3 * i + j] = 1
                gens.append(ModMatrix(ent, p, 3))
        return gens
    if spec.kind == "SL2":
        p = spec.n
        return [ModMatrix((1, 1, 0, 1), p, 2), ModMatrix((1, 0, 1, 1), p, 2)]
    if spec.kind == "Z":
        m = spec.n
        return [Permutation(tuple((i + 1) % m for i in range(m)))]
    left_id = identity_like(group_generators(spec.left)[0])
    right_id = identity_like(group_generators(spec.right)[0])
    return ([DirectSumElement(g, right_id) for g in group_generators(spec.left)]
            + [DirectSumElement(left_id, h) for h in group_generators(spec.right)])


def oracle_conjugacy_classes(spec, subset):
    """Partition of the ElementSet `subset` under conjugation by the full
    group, as ElementSets in order of their smallest key.

    Orbits are computed under conjugation by a generating set and its
    inverses, which yields the same classes.
    """
    gens = group_generators(spec)
    gens = gens + [inverse(g) for g in gens]
    assigned = set()
    parts = []
    for x in subset:
        if element_key(x) in assigned:
            continue
        orbit = {element_key(x): x}
        frontier = [x]
        while frontier:
            v = frontier.pop()
            for g in gens:
                w = compose(compose(g, v), inverse(g))
                kw = element_key(w)
                if kw not in orbit:
                    orbit[kw] = w
                    frontier.append(w)
        part = [e for e in orbit.values() if e in subset]
        parts.append(ElementSet(part))
        assigned.update(element_key(e) for e in part)
    parts.sort(key=lambda es: es.keys[0])
    return parts


# Literal (xy)^4 = e adjacency on plain data.  Elements are converted to
# tuples first so none of the package's arithmetic is involved.  The edge
# relation itself is composition-convention independent: (yx)^4 is a
# conjugate of (xy)^4, so either order gives the same graph.

def to_rep(x):
    if hasattr(x, "images"):
        return ("perm", tuple(x.images))
    if hasattr(x, "p"):
        return ("modmat", x.p, x.dim, tuple(x.entries))
    if hasattr(x, "entries"):
        return ("intmat", tuple(x.entries))
    if hasattr(x, "left"):
        return ("pair", to_rep(x.left), to_rep(x.right))
    raise TypeError(f"unknown element {x!r}")


def rep_mul(a, b):
    kind = a[0]
    if kind != b[0]:
        raise TypeError("mixed kinds")
    if kind == "perm":
        return ("perm", tuple(a[1][i] for i in b[1]))
    if kind == "modmat":
        _, p, d, xs = a
        ys = b[3]
        ent = tuple(sum(xs[i * d + t] * ys[t * d + j] for t in range(d)) % p
                    for i in range(d) for j in range(d))
        return ("modmat", p, d, ent)
    if kind == "intmat":
        xs, ys = a[1], b[1]
        ent = tuple(sum(xs[i * 3 + t] * ys[t * 3 + j] for t in range(3))
                    for i in range(3) for j in range(3))
        return ("intmat", ent)
    if kind == "pair":
        return ("pair", rep_mul(a[1], b[1]), rep_mul(a[2], b[2]))
    raise TypeError(kind)


def rep_is_identity(a):
    kind = a[0]
    if kind == "perm":
        return all(i == v for i, v in enumerate(a[1]))
    if kind == "modmat":
        _, p, d, ent = a
        return all(ent[i * d + j] == (1 if i == j else 0) % p
                   for i in range(d) for j in range(d))
    if kind == "intmat":
        return a[1] == (1, 0, 0, 0, 1, 0, 0, 0, 1)
    if kind == "pair":
        return rep_is_identity(a[1]) and rep_is_identity(a[2])
    raise TypeError(kind)


def oracle_product_order_divides_4(x, y):
    return _rep_order_divides_4(to_rep(x), to_rep(y))


def _rep_order_divides_4(a, b):
    m = rep_mul(a, b)
    m2 = rep_mul(m, m)
    return rep_is_identity(rep_mul(m2, m2))


def oracle_mod_p_edge_table(res, p):
    """The n x n boolean table of (AB)^4 = I (mod p), diagonal included,
    over the rows of an (n, 9) array of row-major residues mod p: AB, its
    square and its fourth power for every ordered pair, as batched 3 x 3
    products reduced mod p, in blocks of rows.  A product entry is a sum of
    three products of residues: int64 while that fits, numpy arrays of
    Python ints beyond."""
    n = len(res)
    dtype = np.int64 if 3 * (p - 1) ** 2 < 2 ** 63 else object
    arr = np.asarray(res).astype(dtype).reshape(n, 3, 3)
    ident = np.eye(3, dtype=np.int64)
    table = np.empty((n, n), dtype=bool)
    block = max(1, 4_000_000 // (n * 9))
    for start in range(0, n, block):
        prod = np.matmul(arr[start:start + block, None, :, :], arr[None, :, :, :]) % p
        prod = np.matmul(prod, prod) % p
        prod = np.matmul(prod, prod) % p
        table[start:start + block] = (prod == ident).all(axis=(2, 3))
    return table


def oracle_sl3_elements(p):
    """SL3(Z/pZ) one element at a time, row by row: det([r1; r2; r3]) =
    r3 . (r1 x r2), so for each independent (r1, r2) the valid third rows
    form an affine plane, solved for its pivot coordinate."""
    vectors = [v for v in product(range(p), repeat=3) if any(v)]
    for r1 in vectors:
        for r2 in vectors:
            c = ((r1[1] * r2[2] - r1[2] * r2[1]) % p,
                 (r1[2] * r2[0] - r1[0] * r2[2]) % p,
                 (r1[0] * r2[1] - r1[1] * r2[0]) % p)
            if c == (0, 0, 0):
                continue  # r2 parallel to r1
            pivot = next(i for i in range(3) if c[i])
            inv_piv = pow(c[pivot], p - 2, p)
            free = [i for i in range(3) if i != pivot]
            for a in range(p):
                for b in range(p):
                    r3 = [0, 0, 0]
                    r3[free[0]] = a
                    r3[free[1]] = b
                    r3[pivot] = (1 - a * c[free[0]] - b * c[free[1]]) * inv_piv % p
                    yield ModMatrix(r1 + r2 + tuple(r3), p, 3)


def oracle_order3_vertices(spec, include_identity=False):
    """The ElementSet of the x in the group with x^3 = e by literal cubes,
    the identity dropped unless asked for; SL3(p) from oracle_sl3_elements,
    its count asserted to be the group order, and any other group from
    enumerate_group."""
    if spec.kind == "SL3":
        elems = list(oracle_sl3_elements(spec.n))
        assert len(elems) == spec.order()
    else:
        elems = enumerate_group(spec)
    keep = []
    for x in elems:
        r = to_rep(x)
        if rep_is_identity(rep_mul(rep_mul(r, r), r)) and (include_identity
                                                           or not rep_is_identity(r)):
            keep.append(x)
    return ElementSet(keep)


# The SL3(Z) edge pass's residue prime; its counters are defined mod p
PREFILTER_PRIME = 33_554_393


def oracle_prefilter_counts(entries):
    """(evaluated, candidates, exact_checks) of the SL3(Z) edge pass on a
    list of row-major 9-tuples, pair by pair in Python ints.

    evaluated: pairs whose images mod 2 are adjacent, by the literal fourth
    power on the images.  candidates: evaluated pairs whose t = trace(AB) is
    1, -1 or 3 mod p.  exact_checks: candidates with t not 3 mod p and
    s = trace(adj(AB)) equal to t mod p, whose t and s over Z are both -1."""
    p = PREFILTER_PRIME
    images = [("modmat", 2, 3, tuple(e % 2 for e in x)) for x in entries]
    adjacent = {(a, b): _rep_order_divides_4(a, b)
                for a in set(images) for b in set(images)}
    evaluated = candidates = exact_checks = 0
    for i, j in combinations(range(len(entries)), 2):
        if not adjacent[images[i], images[j]]:
            continue
        evaluated += 1
        _, P = rep_mul(("intmat", entries[i]), ("intmat", entries[j]))
        t = P[0] + P[4] + P[8]
        if t % p not in (1, p - 1, 3):
            continue
        candidates += 1
        s = (P[4] * P[8] - P[5] * P[7] + P[0] * P[8] - P[2] * P[6]
             + P[0] * P[4] - P[1] * P[3])
        if t % p != 3 and (s - t) % p == 0 and t == s == -1:
            exact_checks += 1
    return evaluated, candidates, exact_checks


def oracle_graph_json_dict(graph):
    """The graph file's document built the plain way: one label at a time,
    the edges as the list of graph.edges() pairs."""
    meta = dict(graph.meta)
    generation = meta.pop("generation", None)
    if graph.n:
        meta["labels"] = label_descriptor(graph.labels[0])
    doc = {"meta": meta,
           "vertices": [{"id": k, "label": label_to_wire(x)} for k, x in enumerate(graph.labels)],
           "edges": [list(e) for e in graph.edges()],
           "loops": sorted(graph.loops)}
    if generation is not None:
        doc["generation"] = generation
    return doc


def oracle_adjacency(n, edges):
    """Neighbor rows and the edge list of a graph on range(n), from one
    neighbor set per vertex: each row sorted, the edges (i, j) with i < j
    in lexicographic order, repeats and either orientation allowed."""
    nbrs = [set() for _ in range(n)]
    for i, j in edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    rows = tuple(tuple(sorted(s)) for s in nbrs)
    return rows, tuple((i, j) for i in range(n) for j in rows[i] if i < j)


def oracle_coloring_violation(graph, colors):
    """A loop, else the first edge (i, j), i < j, in lexicographic order over
    the neighbor rows, whose ends share a color; None if there is none."""
    for v in graph.loops:
        return (v, v)
    for i in range(graph.n):
        for j in graph.neighbors(i):
            if j > i and colors[i] == colors[j]:
                return (i, j)
    return None


def oracle_induced_morphism(domain, p, codomain):
    """(missing vertices, unpreserved edges, merged adjacent pairs) of the
    map sending each domain vertex to the codomain vertex labeled by its
    entries mod p, edge by edge in lexicographic order over the neighbor
    rows; an edge with an unmapped end is skipped."""
    where = {tuple(lab.entries): k for k, lab in enumerate(codomain.labels)}
    image = [where.get(tuple(e % p for e in lab.entries), -1) for lab in domain.labels]
    missing = [v for v in range(domain.n) if image[v] < 0]
    unpreserved, merged = [], []
    for i in range(domain.n):
        for j in domain.neighbors(i):
            a, b = image[i], image[j]
            if j < i or a < 0 or b < 0:
                continue
            if a == b:
                merged.append((i, j))
            elif not codomain.has_edge(a, b):
                unpreserved.append((i, j))
    return missing, unpreserved, merged


def oracle_core_search(graph, k, core, clique, colors, deadline, node_budget):
    """The exact chi search's k-coloring of `core` as the library first ran
    it on bitboards, kept as the reference its faster loop must match node
    for node: ('sat' | 'unsat' | 'budget', nodes), with `colors` written
    only on 'sat'.  Each color is tried by moving d = nbr[r] & cand[c] &
    free down every level and undone when level[0] fills, and a vertex's
    colors are scanned up to its cap even after its last candidate.
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
    # stack: (rank, color, undo mask, max color before, level taken from,
    # one above the highest level d left) per colored vertex on the path
    stack = []
    nodes = 0
    check_at = 0  # next node count at which to stop or read the clock: first before node 1
    cur_max = len(clique) - 1
    status = None
    while not status:
        for a, m in enumerate(level):  # level[0] is empty: a failed color is undone at once
            if m:
                break
        else:
            status = "sat"
            break
        if nodes >= check_at:
            if nodes >= node_budget or deadline is not None and time.monotonic() > deadline:
                status = "budget"
                break
            check_at = min(node_budget, nodes + 4096)
        nodes += 1
        b = m & -m
        level[a] ^= b
        free ^= b
        r = b.bit_length() - 1
        c, prev_max = -1, cur_max
        while True:  # r's next color, or back to its parent's once none is left
            lim = prev_max + 2 if prev_max < k - 2 else k
            c += 1
            while c < lim and not cand[c] >> r & 1:
                c += 1
            if c == lim:
                level[a] |= 1 << r
                free |= 1 << r
                if not stack:
                    status = "unsat"
                    break
                r, c, d, prev_max, a, top = stack.pop()
            else:
                m = nbr[r]
                if m < 0:
                    m = neighbor_mask(r)
                d = rest = m & cand[c] & free
                cand[c] ^= d
                top = a
                while rest:
                    x = level[top] & rest
                    if x:
                        level[top] ^= x
                        level[top - 1] |= x
                        rest ^= x
                    top += 1
                if not level[0]:
                    stack.append((r, c, d, prev_max, a, top))
                    cur_max = c if c > prev_max else prev_max
                    break
            cand[c] |= d  # undo color c at r
            for t in range(top - 2, a - 2, -1):
                x = level[t] & d
                if x:
                    level[t] ^= x
                    level[t + 1] |= x

    if status == "sat":
        for c, v in enumerate(clique):
            colors[v] = c
        for r, c, *_ in stack:
            colors[by_rank[r]] = c
    return (status, nodes)


def oracle_clique_search(graph, node_budget=None, orbits=None):
    """The clique search as the library first ran it, kept as the reference
    its faster loop must match node for node: the same CliqueResult under
    every budget.  Its local rows are built per outer vertex from frozenset
    neighborhoods, and every node, leaves included, is one call.  The outer
    vertices and their ranks are the degeneracy order and the positions in
    it, or, given the vertex orbits of graph._conjugation_orbits, the
    orbits' least vertices and the orbits' indices, the orbits sorted by
    degree and then least vertex; an outer vertex's P is its neighbors of
    rank at least its own."""
    from delta334.cliques import DEFAULT_CLIQUE_BUDGET, CliqueResult
    from delta334.cycles import _bits, _mask
    from delta334.graph import _core_order

    if node_budget is None:
        node_budget = DEFAULT_CLIQUE_BUDGET
    n = graph.n
    if n == 0:
        return CliqueResult(0, (), True, 0)
    nbrs = [frozenset(graph.neighbors(v)) for v in range(n)]
    if orbits is None:
        order, _ = _core_order(graph)
        parts = [[v] for v in order]
    else:
        parts = sorted(orbits, key=lambda o: (graph.degree(min(o)), min(o)))
        order = [min(o) for o in parts]
    rank = [0] * n
    for i, part in enumerate(parts):
        for v in part:
            rank[v] = i
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
        later = sorted(w for w in nbrs[v] if rank[w] >= rank[v])
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


# E_ij(s) for i != j, s = +-1, as (matrix, inverse) entry tuples
_ELEMENTARY_CONJUGATORS = tuple(
    (tuple(1 if r == c else (s if (r, c) == (i, j) else 0)
           for r in range(3) for c in range(3)),
     tuple(1 if r == c else (-s if (r, c) == (i, j) else 0)
           for r in range(3) for c in range(3)))
    for i in range(3) for j in range(3) if i != j for s in (1, -1)
)


def _entries_key(entries: tuple) -> bytes:
    return struct.pack("<9q", *entries)


def oracle_generate_portion(cfg):
    """The conjugation-closure BFS as the library first ran it, one
    candidate at a time against a dict of byte keys: (key-sorted vertices,
    stats) for a GenerationConfig."""
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
