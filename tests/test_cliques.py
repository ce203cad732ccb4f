import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delta334.cliques import clique_number, verify_clique
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

    def test_accepts_real_clique(self):
        g = toys.complete_graph(4)
        assert verify_clique(g, [0, 1, 2, 3])
