import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delta334 import cliques
from delta334.cliques import CliqueResult, clique_number, verify_clique
from delta334.generation import GenerationConfig, generate_and_build
from delta334.graph import TriangleGraph, _core_order, build_delta334
from delta334.groups import order3_vertices, parse_group_spec

import oracles
import toys


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    return TriangleGraph(range(n), edges)


class TestCliqueNumber:
    @pytest.mark.parametrize("graph, want", [
        (toys.complete_graph(5), 5),
        (toys.cycle_graph(5), 2),
        (toys.complete_bipartite(4, 4), 2),
        (toys.petersen_graph(), 2),
        (toys.path_graph(1), 1),
        (TriangleGraph([], []), 0),
        # the K4 lies under a later outer vertex than the Petersen part
        (toys.disjoint_union(toys.petersen_graph(), toys.complete_graph(4)), 4),
    ])
    def test_known_values(self, graph, want):
        res = clique_number(graph)
        assert res.exact and res.size == want
        if want:
            assert verify_clique(graph, res.witness)

    def test_a4_clique_number_two(self):
        g = build_delta334(order3_vertices(parse_group_spec("A4")))
        res = clique_number(g)
        assert res.exact and res.size == 2

    def test_budget_exhaustion_flags_inexact(self):
        res = clique_number(toys.complete_graph(30), node_budget=3)
        assert not res.exact
        assert res.nodes == 3
        assert verify_clique(toys.complete_graph(30), res.witness)

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_oracle(self, graph):
        want, _ = oracles.oracle_clique(graph)
        res = clique_number(graph)
        assert res.exact and res.size == want
        if want:
            assert verify_clique(graph, res.witness)


@st.composite
def clique_cases(draw):
    """A random graph of up to 90 vertices, so that the densest ones have
    later sets of more than 64 vertices (rows of two words), with loops."""
    n = draw(st.integers(1, 90) | st.integers(75, 90))
    density = draw(st.sampled_from([0.05, 0.2, 0.5, 0.8, 0.95]))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < density]
    loops = [v for v in range(n) if rnd.random() < 0.05]
    return TriangleGraph(range(n), edges, loops=loops), density


@pytest.fixture(scope="module")
def sl33():
    return build_delta334(order3_vertices(parse_group_spec("SL3(3)")))


@pytest.fixture(scope="module")
def portion_5k():
    return generate_and_build(GenerationConfig(target_vertices=5000)).graph


class TestSameTreeAsTheOracle:
    """clique_number must visit the search tree of oracle_clique_search node
    for node: the same size, witness, exactness and nodes at every budget."""

    @given(clique_cases())
    @settings(max_examples=80, deadline=None)
    def test_random_graphs_at_every_budget(self, case):
        graph, density = case
        # unbudgeted searches of the densest graphs run to millions of nodes
        top = None if density <= 0.5 else 20_000
        for budget in (top, 0, 1, 2, 3, 7, 50, 400):
            assert clique_number(graph, budget) == oracles.oracle_clique_search(graph, budget)

    def test_sl32(self):
        g = build_delta334(order3_vertices(parse_group_spec("SL3(2)")))
        want = CliqueResult(5, (0, 3, 8, 26, 42), True, 687)
        assert clique_number(g) == oracles.oracle_clique_search(g) == want

    @pytest.mark.parametrize("budget, want", [
        (5, CliqueResult(4, (1, 17, 23, 27), False, 5)),
        (50_000, CliqueResult(6, (1, 17, 29, 53, 391, 722), False, 50_000)),
        (None, CliqueResult(6, (1, 17, 29, 53, 391, 722), True, 228_076)),
    ])
    def test_sl33(self, sl33, budget, want):
        assert clique_number(sl33, budget) == oracles.oracle_clique_search(sl33, budget) == want

    def test_portion_5k(self, portion_5k):
        res = clique_number(portion_5k)
        assert res == oracles.oracle_clique_search(portion_5k)
        assert (res.size, res.exact, res.nodes) == (3, True, 17_019)

    def test_k70(self):
        # later sets of up to 69 vertices: rows of two words
        g = toys.complete_graph(70)
        res = clique_number(g)
        assert res == oracles.oracle_clique_search(g)
        assert (res.size, res.witness, res.exact) == (70, tuple(range(70)), True)

    def test_loops_are_ignored(self):
        g = TriangleGraph(range(5), [(0, 1), (1, 2), (0, 2), (2, 3)], loops=[1, 3, 4])
        res = clique_number(g)
        assert res == oracles.oracle_clique_search(g)
        assert (res.size, res.witness, res.exact) == (3, (0, 1, 2), True)


class TestPairBlocks:
    # blocks smaller than one arc's pairs, so a block can end inside an arc,
    # inside a vertex's later set and inside a row's bits
    @pytest.mark.parametrize("graph, block", [("sl33", 97), ("portion_5k", 7)])
    def test_small_blocks_change_no_row(self, graph, block, request, monkeypatch):
        g = request.getfixturevalue(graph)
        order, _ = _core_order(g)
        rows = cliques._later_rows(g, order)
        want = [clique_number(g, budget) for budget in (5, 50_000, None)]
        monkeypatch.setattr(cliques, "_PAIR_BLOCK", block)
        assert cliques._later_rows(g, order) == rows
        assert [clique_number(g, budget) for budget in (5, 50_000, None)] == want


class TestDegeneracyOrder:
    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_peel(self, graph):
        order, core = _core_order(graph)
        assert order == oracles.oracle_degeneracy_order(graph)
        assert core == oracles.oracle_core_numbers(graph)

    def test_matches_naive_peel_on_sl33(self):
        g = build_delta334(order3_vertices(parse_group_spec("SL3(3)")))
        order, core = _core_order(g)
        assert order == oracles.oracle_degeneracy_order(g)
        assert core == oracles.oracle_core_numbers(g)

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_peel_is_a_prefix_with_few_later_neighbors(self, graph):
        # the chi search's peel for k: the vertices outside the k-core, which
        # first-fit colors in reverse order with fewer than k colors taken
        order, core = _core_order(graph)
        pos = {v: i for i, v in enumerate(order)}
        for k in range(max(core) + 2):
            peel = [v for v in order if core[v] < k]
            assert peel == order[:len(peel)]
            for v in peel:
                assert sum(pos[w] > pos[v] for w in graph.neighbors(v)) < k


class TestVerifyClique:
    def test_rejects_non_clique(self):
        g = toys.cycle_graph(5)
        assert not verify_clique(g, [0, 1, 2])

    def test_rejects_duplicates(self):
        g = toys.complete_graph(4)
        assert not verify_clique(g, [0, 0, 1])

    def test_rejects_a_repeated_looped_vertex(self):
        # Z3 with the identity: vertex 0 carries a loop
        g = build_delta334(order3_vertices(parse_group_spec("Z3"), include_identity=True))
        assert g.loops == {0}
        assert not verify_clique(g, (0, 0)) and not verify_clique(g, (0, 0, 0))

    def test_accepts_real_clique(self):
        g = toys.complete_graph(4)
        assert verify_clique(g, [0, 1, 2, 3])
