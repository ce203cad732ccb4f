"""Small ad hoc graphs for exercising the solvers, a clique-search spy, and
the test process's CPUs and children.

TriangleGraph does not care what the labels are, so plain integers do."""

import glob
import importlib
import os
import pkgutil

import pytest

import delta334
from delta334 import cliques
from delta334.graph import TriangleGraph


def spy_clique_nodes(monkeypatch) -> list[int]:
    """Record the nodes of every clique search the library runs: the spy
    replaces clique_number wherever a delta334 module binds it."""
    real = cliques.clique_number
    spent = []

    def spy(graph, node_budget=None):
        res = real(graph, node_budget)
        spent.append(res.nodes)
        return res

    modules = [delta334] + [importlib.import_module(f"delta334.{info.name}")
                            for info in pkgutil.iter_modules(delta334.__path__)]
    for module in modules:
        if getattr(module, "clique_number", None) is real:
            monkeypatch.setattr(module, "clique_number", spy)
    return spent


def live_children() -> list[int]:
    """The pids of this process's children that are running or not yet
    reaped, read from /proc (none where it has no children files)."""
    pids = []
    for path in glob.glob("/proc/self/task/*/children"):
        with open(path) as f:
            pids += map(int, f.read().split())
    return pids


def run_as_on_cpus(mp, cpus=2) -> list[int]:
    """Let the library see `cpus` CPUs, whatever the machine has, and record
    the pid of every worker it forks: the list returned."""
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    forked = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    mp.setattr(os, "fork", fork)
    return forked


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def cycle_graph(n):
    if n < 3:
        raise ValueError("need n >= 3")
    return TriangleGraph(range(n),
                         [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def complete_graph(n):
    return TriangleGraph(range(n),
                         [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a, b):
    return TriangleGraph(range(a + b),
                         [(i, a + j) for i in range(a) for j in range(b)])


def path_graph(n):
    return TriangleGraph(range(n), [(i, i + 1) for i in range(n - 1)])


def star_graph(n):
    """One hub, n leaves."""
    return TriangleGraph(range(n + 1), [(0, i) for i in range(1, n + 1)])


def octahedron():
    """K_{2,2,2}: every pair except the antipodes i, i + 3; omega = chi = 3.
    Its clique search finds a triangle within 4 nodes and exhausts at 11."""
    return TriangleGraph(range(6), [(i, j) for i in range(6)
                                    for j in range(i + 1, 6) if j != i + 3])


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return TriangleGraph(range(10), outer + spokes + inner)


def disjoint_union(g1, g2):
    off = g1.n
    edges = list(g1.edges()) + [(i + off, j + off) for i, j in g2.edges()]
    loops = list(g1.loops) + [v + off for v in g2.loops]
    return TriangleGraph(list(g1.labels) + list(g2.labels), edges, loops)


def mycielski(g):
    """The Mycielskian: g, a twin n + v of each vertex v joined to v's
    neighbors, and an apex 2n joined to every twin.  It has no triangle when
    g has none and one more color than g; from K2 it gives C5 (M3), the
    Groetzsch graph (M4, 11 vertices), then M5 (23) and M6 (47)."""
    n = g.n
    edges = list(g.edges()) + [(n + v, w) for v in range(n) for w in g.neighbors(v)]
    return TriangleGraph(range(2 * n + 1), edges + [(n + v, 2 * n) for v in range(n)])
