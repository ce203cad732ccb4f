import random

import networkx as nx
import pytest
from networkx.algorithms.planarity import get_counterexample

from delta334.coloring import chromatic_number_exact
from delta334.generation import GenerationConfig, generate_and_build
from delta334.graph import TriangleGraph, build_delta334
from delta334.groups import order3_vertices, parse_group_spec
from delta334.invariants import (
    _kuratowski_edges,
    components,
    full_report,
    girth,
    is_bipartite,
    nonplanarity_check,
)
from delta334.cycles import verify_cycle

import toys


class TestComponents:
    def test_counts_and_covers(self):
        g = toys.disjoint_union(toys.cycle_graph(3), toys.path_graph(4))
        comps = components(g)
        assert sorted(len(c) for c in comps) == [3, 4]
        assert sorted(v for c in comps for v in c) == list(range(7))

    def test_isolated_vertices(self):
        g = TriangleGraph(range(3), [])
        assert len(components(g)) == 3


class TestBipartite:
    def test_k44_parts(self):
        res = is_bipartite(toys.complete_bipartite(4, 4))
        assert res.bipartite
        assert sorted(len(p) for p in res.parts) == [4, 4]
        for part in res.parts:
            part = set(part)
            for i, j in toys.complete_bipartite(4, 4).edges():
                assert not (i in part and j in part)

    def test_odd_cycle_witness(self):
        g = toys.cycle_graph(7)
        res = is_bipartite(g)
        assert not res.bipartite
        assert len(res.odd_cycle) % 2 == 1
        assert verify_cycle(g, res.odd_cycle)

    def test_loop_breaks_bipartiteness(self):
        g = TriangleGraph(range(2), [(0, 1)], loops=[0])
        res = is_bipartite(g)
        assert not res.bipartite
        assert res.odd_cycle == (0,)


class TestGirth:
    @pytest.mark.parametrize("graph, want", [
        (toys.cycle_graph(5), 5),
        (toys.petersen_graph(), 5),
        (toys.complete_graph(4), 3),
        (toys.complete_bipartite(3, 3), 4),
        (toys.path_graph(4), None),
    ])
    def test_known_girths(self, graph, want):
        g, cyc = girth(graph)
        assert g == want
        if want is not None:
            assert len(cyc) == want
            assert verify_cycle(graph, cyc)


class TestNonplanarity:
    def test_k5_by_edge_count(self):
        ev = nonplanarity_check(toys.complete_graph(5))
        assert ev.status == "nonplanar"
        assert ev.reason == "edge-count"

    def test_k33_by_kuratowski_witness(self):
        g = toys.complete_bipartite(3, 3)
        ev = nonplanarity_check(g)
        assert ev.status == "nonplanar"
        assert ev.reason == "kuratowski"
        assert ev.witness_kind in ("K5", "K33")
        for i, j in ev.witness_edges:
            assert g.has_edge(i, j)

    def test_planar_graph_is_inconclusive(self):
        ev = nonplanarity_check(toys.cycle_graph(6))
        assert ev.status == "inconclusive"

    def test_chromatic_five_shortcut(self):
        res = chromatic_number_exact(toys.complete_graph(5))
        ev = nonplanarity_check(toys.complete_graph(5), chromatic=res)
        assert ev.status == "nonplanar"

    @staticmethod
    def networkx_witness(g):
        """networkx's witness edges, and ours from a copy of g."""
        want = list(get_counterexample(g).edges())
        assert list(nx.Graph(_kuratowski_edges(nx.Graph(g))).edges()) == want
        return want

    def test_witness_matches_networkx_on_random_graphs(self):
        rng = random.Random(0x334)
        tried = 0
        while tried < 30:
            n = rng.randint(6, 24)
            g = nx.gnm_random_graph(n, rng.randint(3 * n - 6, min(n * (n - 1) // 2, 4 * n)),
                                    seed=rng.randrange(1 << 30))
            if not nx.check_planarity(g)[0]:
                self.networkx_witness(g)
                tried += 1

    def test_witness_matches_networkx_on_a_portion(self):
        # 300 vertices and 316 edges: under 3n - 6, so only a subdivision
        # shows the portion nonplanar
        portion = generate_and_build(GenerationConfig(target_vertices=300)).graph
        g = nx.Graph()
        g.add_nodes_from(range(portion.n))
        g.add_edges_from(portion.edges())
        assert (g.number_of_nodes(), g.number_of_edges()) == (300, 316)
        want = self.networkx_witness(g)
        ev = nonplanarity_check(portion)
        assert ev.reason == "kuratowski"
        assert ev.witness_edges == tuple(tuple(sorted(e)) for e in want)


class TestFullReport:
    def test_a4_report(self):
        g = build_delta334(order3_vertices(parse_group_spec("A4")))
        rep = full_report(g, exact_chromatic=True, with_census=True,
                          with_hamilton=True)
        assert rep.vertex_count == 8
        assert rep.edge_count == 16
        assert rep.degree_histogram == {4: 8}
        assert rep.component_sizes == [8]
        assert rep.bipartite.bipartite
        assert rep.girth == 4
        assert rep.clique.size == 2 and rep.clique.exact
        assert rep.chromatic.chi == 2
        found = {L for L, e in rep.census.items() if e.status == "found"}
        assert found == {4, 6, 8}
        assert rep.hamilton.status == "found"

    def test_exact_report_runs_one_clique_search(self, monkeypatch):
        g = build_delta334(order3_vertices(parse_group_spec("sum(Z3,A4)")))
        clique_nodes = toys.spy_clique_nodes(monkeypatch)
        rep = full_report(g, exact_chromatic=True)
        assert len(clique_nodes) == 1
        assert rep.chromatic.certificate["lower_bound_clique"] == rep.clique.witness

    def test_report_serializes(self):
        import json
        g = toys.petersen_graph()
        rep = full_report(g, exact_chromatic=True, with_census=True,
                          with_hamilton=True)
        text = json.dumps(rep.to_json_dict(), sort_keys=True)
        assert "cycle_census" in text and "hamiltonian" in text

    def test_cut_clique_search_bounds_chi(self):
        rep = full_report(toys.octahedron(), node_budget=4)
        assert rep.clique.size == 3 and not rep.clique.exact
        assert rep.chromatic.lower == rep.clique.size == rep.chromatic.chi

    def test_loops_suppress_chromatic(self):
        g = TriangleGraph(range(2), [(0, 1)], loops=[0])
        rep = full_report(g)
        assert rep.chromatic is None
        assert rep.loop_count == 1

    def test_degree_sequence_matches_histogram(self):
        g = toys.star_graph(5)
        assert full_report(g).degree_histogram == g.degree_histogram() == {1: 5, 5: 1}
