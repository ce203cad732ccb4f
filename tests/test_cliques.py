import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delta334 import cliques
from delta334 import graph as graph_module
from delta334.cliques import CliqueResult, clique_number, verify_clique
from delta334.elements import compose, inverse
from delta334.generation import GenerationConfig, generate_and_build
from delta334.graph import TriangleGraph, _conjugation_orbits, _core_order, build_delta334
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

    # the group graphs integer-labelled, so the whole graph is searched; as
    # labelled, their conjugation orbits pin the search (TestOrbitSearch)
    def test_sl32(self):
        g = toys.integer_labelled(build_delta334(order3_vertices(parse_group_spec("SL3(2)"))))
        want = CliqueResult(5, (0, 3, 8, 26, 42), True, 687)
        assert clique_number(g) == oracles.oracle_clique_search(g) == want

    @pytest.mark.parametrize("budget, want", [
        (5, CliqueResult(4, (1, 17, 23, 27), False, 5)),
        (50_000, CliqueResult(6, (1, 17, 29, 53, 391, 722), False, 50_000)),
        (None, CliqueResult(6, (1, 17, 29, 53, 391, 722), True, 228_076)),
    ])
    def test_sl33(self, sl33, budget, want):
        g = toys.integer_labelled(sl33)
        assert clique_number(g, budget) == oracles.oracle_clique_search(g, budget) == want

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


def group_graph(spec, include_identity=False):
    return build_delta334(order3_vertices(parse_group_spec(spec), include_identity))


ORBIT_GRAPHS = ["Z3", "A4", "S4", "SL2(3)", "S5", "A5", "SL2(5)", "A6", "SL3(2)",
                "sum(Z3,Z3)", "A4+e"]


class TestConjugationOrbits:
    """Orbits of verified conjugation maps, against the group's conjugacy
    classes found by conjugating with its generators."""

    def test_sl33_orbits_are_the_conjugacy_classes(self, sl33):
        spec = parse_group_spec("SL3(3)")
        classes = oracles.oracle_conjugacy_classes(spec, order3_vertices(spec))
        want = sorted(sorted(sl33.vertex_of(x) for x in part) for part in classes)
        maps, orbits = _conjugation_orbits(sl33)
        assert orbits == want and [len(o) for o in orbits] == [104, 624]
        assert maps == [0, 1, 3]  # label 2's map merges nothing and is skipped

    def test_sl32_is_one_orbit(self):
        assert _conjugation_orbits(group_graph("SL3(2)")) == ([0, 1, 2], [list(range(56))])

    def test_a6_orbits_keep_the_cycle_type(self, monkeypatch):
        # inner conjugation never joins the 3-cycles to the double
        # 3-cycles: 40 of each.  Labels 1 and 21 merge nothing, and once
        # each orbit holds a tried label the attempt stops, 6 labels into
        # its 8
        g = group_graph("A6")
        tried = []
        monkeypatch.setattr(graph_module, "inverse",
                            lambda x: tried.append(g.vertex_of(x)) or inverse(x))
        maps, orbits = _conjugation_orbits(g)
        assert tried == [0, 1, 2, 8, 20, 21]
        assert maps == [0, 2, 8, 20] and [len(o) for o in orbits] == [40, 40]
        for orbit in orbits:
            assert len({g.labels[v].cycles().count("(") for v in orbit}) == 1

    @pytest.mark.parametrize("spec", ["A4", "SL2(3)", "S5", "SL2(5)", "A6", "SL3(2)", "A4+e"])
    def test_orbits_are_closed_under_every_label(self, spec):
        # the attempt stops once every orbit holds a tried label: every
        # other label's map must then keep each orbit onto itself
        g = group_graph("A4", True) if spec == "A4+e" else group_graph(spec)
        maps, orbits = _conjugation_orbits(g)
        orbit_of = {v: i for i, orbit in enumerate(orbits) for v in orbit}
        for x in g.labels:
            x_inv = inverse(x)
            assert all(orbit_of[g.vertex_of(compose(compose(x, y), x_inv))] == orbit_of[v]
                       for v, y in enumerate(g.labels))

    @pytest.mark.parametrize("spec", ["SL3(2)", "SL3(3)", "A6", "S5", "A4+e", "SL2(5)"])
    def test_conjugate_keys_are_the_group_conjugates(self, spec):
        # SL3(p) and permutation labels conjugate in one numpy step,
        # SL2(5)'s by compose
        g = group_graph("A4", True) if spec == "A4+e" else group_graph(spec)
        keys, conjugates = graph_module._conjugate_keys(g.labels)
        index = dict(zip(keys(range(g.n)), range(g.n)))
        for i in (0, 1, 5, g.n - 1):
            x, x_inv = g.labels[i], inverse(g.labels[i])
            assert [index[key] for key in conjugates(x, x_inv, range(g.n))] == [
                g.vertex_of(compose(compose(x, y), x_inv)) for y in g.labels]

    @pytest.mark.parametrize("spec", ["Z3", "sum(Z3,Z3)"])
    def test_abelian_groups_have_no_orbits(self, spec):
        assert _conjugation_orbits(group_graph(spec)) is None

    def test_integer_labels_have_no_orbits(self):
        assert _conjugation_orbits(toys.petersen_graph()) is None

    def test_a_portion_ends_at_its_first_neighbors(self, portion_5k, monkeypatch):
        # label 0's neighbors conjugate out of the portion, so no index of
        # all its labels is built, and nothing is kept on the graph
        seen = []
        real = graph_module.element_key
        monkeypatch.setattr(graph_module, "element_key", lambda x: seen.append(x) or real(x))
        assert _conjugation_orbits(portion_5k) is None
        assert len(seen) <= 2 * portion_5k.degree(0)
        assert portion_5k._key_index is None


class TestOrbitSearch:
    """One pinned search per conjugation orbit: at every budget the result
    stays within it, its witness is a clique, and an exact size is the
    whole-graph search's on an integer-labelled copy."""

    @pytest.mark.parametrize("spec", ORBIT_GRAPHS)
    def test_matches_the_oracle_at_every_budget(self, spec):
        g = group_graph("A4", True) if spec == "A4+e" else group_graph(spec)
        want = oracles.oracle_clique_search(toys.integer_labelled(g)).size
        for budget in (None, 0, 1, 2, 3, 7, 50, 400):
            res = clique_number(g, budget)
            assert res.nodes <= (cliques.DEFAULT_CLIQUE_BUDGET if budget is None else budget)
            assert len(res.witness) == res.size and verify_clique(g, res.witness)
            assert res.size == want if res.exact else res.size <= want
        assert clique_number(g).exact

    def test_identity_vertex_is_its_own_orbit(self):
        g = group_graph("A4", True)
        maps, orbits = _conjugation_orbits(g)
        assert g.loops == {0} and [0] in orbits

    def test_sl32(self):
        # one orbit: the whole-graph search's first step, and its witness
        g = group_graph("SL3(2)")
        assert clique_number(g) == CliqueResult(5, (0, 3, 8, 26, 42), True, 40)

    @pytest.mark.parametrize("budget, want", [
        (5, CliqueResult(4, (1, 17, 23, 27), False, 5)),
        (1_267, CliqueResult(6, (1, 17, 29, 53, 391, 722), False, 1_267)),
        (None, CliqueResult(6, (1, 17, 29, 53, 391, 722), True, 1_267)),
    ])
    def test_sl33(self, sl33, budget, want):
        # the 624-class has the lower degree (118 against 136), so its
        # vertex 1 goes first: 1,242 nodes find the whole-graph search's
        # witness; vertex 0's 28 neighbors outside that class take 25 more
        assert clique_number(sl33, budget) == want

    @pytest.mark.parametrize("spec", ["SL3(2)", "SL3(3)", "A6", "S5"])
    def test_first_step_is_the_whole_graph_searchs(self, spec, sl33):
        # the least vertex of least degree comes first in the degeneracy
        # order too, with every neighbor after it, so both searches find
        # the same first clique; on these graphs it is a maximum one
        g = sl33 if spec == "SL3(3)" else group_graph(spec)
        assert clique_number(g).witness == clique_number(toys.integer_labelled(g)).witness


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
