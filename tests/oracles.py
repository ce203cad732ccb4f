"""Brute-force reference implementations, kept deliberately naive.

Everything here trades speed for obviousness: exhaustive enumeration,
literal fourth powers on plain tuples, no bitsets, no pruning beyond
discarding assignments that are already improper.  Feasible only on tiny
inputs, which is the point: the fast package code is checked against
these on every graph small enough to afford it.
"""

import random
from itertools import combinations


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


def oracle_clique(graph):
    """Largest complete subgraph, by checking every subset, biggest first."""
    n = graph.n
    for size in range(n, 0, -1):
        for subset in combinations(range(n), size):
            if all(graph.has_edge(i, j) for i, j in combinations(subset, 2)):
                return size, subset
    return 0, ()


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
    largest first (stable), reversed, or shuffled with each class shuffled
    too (by turns, one seeded RNG), and gives every vertex in that order its
    smallest color unused by the neighbors recolored so far.  Returns the
    first coloring with the fewest colors; stops once that is <= stop_at."""
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
            for cls in classes:
                rng.shuffle(cls)
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
    m = rep_mul(to_rep(x), to_rep(y))
    m2 = rep_mul(m, m)
    return rep_is_identity(rep_mul(m2, m2))
