import hashlib
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delta334 import cliques, coloring
from delta334.coloring import (
    Coloring,
    _array_rounds,
    _bitset_rounds,
    _core_search,
    _iterated_greedy,
    _k_colorable,
    chromatic_number_exact,
    find_coloring_violation,
    heuristic_chromatic_upper,
    improve_coloring,
    lift_coloring,
)
from delta334.graph import (
    TriangleGraph,
    _conjugation_orbits,
    _core_order,
    build_delta334,
    induced_morphism,
)
from delta334.generation import GenerationConfig, generate_and_build, mod_p_codomain
from delta334.groups import ElementSet, order3_vertices, parse_group_spec
from delta334.elements import compose, inverse, parametric_order3

import oracles
import toys


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    return TriangleGraph(range(n), edges)


@st.composite
def random_graphs(draw):
    """Up to 18 vertices at edge densities from sparse to dense: k-coloring
    searches of up to a few hundred nodes."""
    n = draw(st.integers(1, 18))
    p = draw(st.sampled_from([0.2, 0.35, 0.5, 0.65]))
    rng = draw(st.randoms(use_true_random=False))
    return TriangleGraph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)
                                    if rng.random() < p])


SL32 = build_delta334(order3_vertices(parse_group_spec("SL3(2)")))
DEEP_TREES = pytest.mark.parametrize("graph, k", [
    (toys.mycielski(toys.mycielski(toys.mycielski(toys.complete_graph(2)))), 4),
    (SL32, 7),
], ids=["mycielski-23", "SL3(2)"])
KERNELS = pytest.mark.parametrize("kernel", [_bitset_rounds, _array_rounds],
                                  ids=["bitset", "array"])


def largest_component(graph):
    """The induced subgraph on the largest component, vertices relabelled
    in order."""
    return oracles.oracle_induced_subgraph(graph, max(coloring.components(graph), key=len))


def csr(graph):
    """The CSR pair that the iterated-greedy kernels read."""
    return graph._indptr, graph._heads


def spy_calls(monkeypatch, *names):
    """Record the first argument (the graph, or the indptr of the CSR pair)
    of every call to each named coloring function."""
    calls = {name: [] for name in names}
    for name in names:
        def spy(graph, *args, _real=getattr(coloring, name), _name=name, **kwargs):
            calls[_name].append(graph)
            return _real(graph, *args, **kwargs)

        monkeypatch.setattr(coloring, name, spy)
    return calls


def assert_whole_graph_passes_restrict(graph):
    """DSATUR and the core decomposition of the whole graph, restricted to
    a component, must give what they give on the component's induced
    subgraph: the same colors, core numbers and order; and _component_csr
    must build that subgraph's CSR."""
    colors = coloring._dsatur(graph)
    order, core = _core_order(graph)
    position = {v: i for i, v in enumerate(order)}
    for comp in coloring.components(graph):
        sub = oracles.oracle_induced_subgraph(graph, comp)
        indptr, heads = coloring._component_csr(graph, comp)
        assert indptr.tolist() == sub._indptr.tolist()
        assert heads.tolist() == sub._heads.tolist()
        assert [colors[v] for v in comp] == coloring._dsatur(sub)
        sub_order, sub_core = _core_order(sub)
        assert [core[v] for v in comp] == sub_core
        assert sorted(comp, key=position.__getitem__) == [comp[v] for v in sub_order]


def core_and_clique(graph, k, peel, pin):
    """The k-core, as _k_colorable passes it, or every vertex; the whole
    graph's clique within it, or none."""
    _, core = _core_order(graph)
    kcore = [v for v in range(graph.n) if core[v] >= k or not peel]
    return kcore, [v for v in cliques.clique_number(graph).witness if v in kcore] if pin else []


def assert_core_search_matches(graph, k, core, clique, budget):
    """The search must stop where the reference loop does, with the same
    status, nodes and coloring."""
    got, want = [-1] * graph.n, [-1] * graph.n
    result = _core_search(graph, k, core, clique, got, None, budget)
    assert result == oracles.oracle_core_search(graph, k, core, clique, want, None, budget)
    assert got == want
    return result


class TestExact:
    @pytest.mark.parametrize("graph, chi", [
        (toys.cycle_graph(5), 3),
        (toys.cycle_graph(6), 2),
        (toys.complete_graph(4), 4),
        (toys.complete_bipartite(4, 4), 2),
        (toys.petersen_graph(), 3),
        (toys.path_graph(1), 1),
    ])
    def test_known_values(self, graph, chi):
        res = chromatic_number_exact(graph)
        assert res.exact and res.chi == chi
        assert find_coloring_violation(graph, res.coloring.colors) is None
        assert res.coloring.num_colors == chi

    @pytest.mark.parametrize("steps, chi, nodes", [(2, 4, 21), (3, 5, 663)])
    def test_mycielski_proofs_backtrack(self, steps, chi, nodes):
        # triangle-free, so the clique pins only two colors and the search
        # must undo assignments many levels deep to prove chi - 1 infeasible
        g = toys.complete_graph(2)
        for _ in range(steps):
            g = toys.mycielski(g)
        res = chromatic_number_exact(g)
        assert res.exact and res.chi == chi
        assert res.certificate["infeasible_k"] == chi - 1
        assert res.nodes == nodes
        assert find_coloring_violation(g, res.coloring.colors) is None

    def test_certificate_records_infeasible_k(self):
        res = chromatic_number_exact(toys.cycle_graph(5))
        assert res.certificate.get("infeasible_k") == 2
        assert res.certificate.get("exhausted") is True

    def test_empty_graph(self):
        res = chromatic_number_exact(TriangleGraph([], []))
        assert res.chi == 0

    def test_loops_rejected(self):
        g = TriangleGraph([0], [], loops=[0])
        with pytest.raises(ValueError):
            chromatic_number_exact(g)

    def test_node_budget_yields_valid_bounds(self):
        res = chromatic_number_exact(toys.petersen_graph(), node_budget=1)
        assert res.lower <= res.upper
        if res.coloring is not None:
            assert find_coloring_violation(toys.petersen_graph(),
                                           res.coloring.colors) is None

    # the clique search, pinned in the one conjugation orbit, finds omega = 5
    # in 40 nodes; cut before its first edge, it leaves the trivial lower
    # bound 2.  The complement's clique search, pinned in the same orbit,
    # gets what the clique search leaves: it proves alpha = 7, so chi = 8,
    # in 1,886 nodes, so 40 + 1,886 is one node short, and a cut one adds
    # nothing.  The spy sees both searches
    @pytest.mark.parametrize("budget, bounds", [pytest.param(0, (2, 8, False), id="0"),
                                                pytest.param(1, (2, 8, False), id="1"),
                                                pytest.param(1860, (5, 8, False), id="1860"),
                                                pytest.param(1926, (5, 8, False), id="1926"),
                                                pytest.param(1927, (8, 8, True), id="1927"),
                                                pytest.param(2000, (8, 8, True), id="2000"),
                                                pytest.param(5000, (8, 8, True), id="5000")])
    def test_node_budget_is_a_hard_cap(self, budget, bounds, monkeypatch):
        g = build_delta334(order3_vertices(parse_group_spec("SL3(2)")))
        clique_nodes = toys.spy_clique_nodes(monkeypatch)
        res = chromatic_number_exact(g, node_budget=budget)
        assert res.nodes <= budget and sum(clique_nodes) <= budget
        assert (res.lower, res.upper, res.exact) == bounds

    def test_node_budget_caps_the_clique_search(self, monkeypatch):
        # unbudgeted, SL3(3)'s orbit-pinned clique search proves omega = 6 in
        # 1,267 nodes
        g = build_delta334(order3_vertices(parse_group_spec("SL3(3)")))
        clique_nodes = toys.spy_clique_nodes(monkeypatch)
        res = chromatic_number_exact(g, node_budget=5)
        assert res.nodes <= 5 and clique_nodes == [5]
        assert res.lower == 4 and not res.exact
        assert find_coloring_violation(g, res.coloring.colors) is None

    def test_time_budget_covers_the_clique_search(self):
        # SL3(3)'s clique search (1,267 nodes, ~0.01 s) runs inside the budget
        g = build_delta334(order3_vertices(parse_group_spec("SL3(3)")))
        start = time.monotonic()
        res = chromatic_number_exact(g, time_budget=1.0)
        assert time.monotonic() - start < 1.5
        assert res.lower == 6 <= res.upper
        assert find_coloring_violation(g, res.coloring.colors) is None

    def test_search_entered_after_its_deadline_runs_no_node(self):
        # the orbits, the clique search and DSATUR (~0.02 s) use up the time
        # budget before the chi search starts, and the chi search reads the
        # clock before its first node
        g = build_delta334(order3_vertices(parse_group_spec("SL3(3)")))
        res = chromatic_number_exact(g, time_budget=0.01)
        assert res.nodes == 0 and not res.exact
        assert res.lower == 6 <= res.upper
        assert find_coloring_violation(g, res.coloring.colors) is None

    def test_sl33_budgeted_search_is_pinned(self):
        # the nodes and coloring of the search, from before its forward
        # checking moved to bitboards, and kept since by the loop that refuses
        # a dead color before moving a mask and stops at a vertex's last
        # candidate: the search order must not change, and passing the clique
        # it would find itself, or the whole-graph search's, changes nothing
        g = build_delta334(order3_vertices(parse_group_spec("SL3(3)")))
        for clique in (None, cliques.clique_number(g, node_budget=50_000),
                       cliques.clique_number(toys.integer_labelled(g), node_budget=50_000)):
            res = chromatic_number_exact(g, node_budget=50_000, clique=clique)
            assert (res.lower, res.upper, res.nodes, res.exact) == (6, 29, 50_000, False)
            digest = hashlib.sha256(bytes(res.coloring.colors)).hexdigest()
            assert digest[:16] == "5bca5e1c1511086c"

    def test_sparse_portion_search_is_pinned(self, monkeypatch):
        # bounds, nodes and coloring from before sparse components lost their
        # greedy rounds, which never changed DSATUR's coloring there: the
        # 1,578-vertex component goes from DSATUR straight to the descent
        g = generate_and_build(GenerationConfig(target_vertices=2000)).graph
        calls = spy_calls(monkeypatch, "_iterated_greedy")
        res = chromatic_number_exact(g, node_budget=20_000)
        assert calls == {"_iterated_greedy": []}
        assert (res.lower, res.upper, res.nodes, res.exact) == (3, 5, 20_000, False)
        assert hashlib.sha256(bytes(res.coloring.colors)).hexdigest() == (
            "9e5dc43a91e834ad278732b8174a339eb29622fd1b259f16524a42b504b3d665")

    def test_components_share_the_node_budget(self, monkeypatch):
        # the first copy's chi = 5 proof takes 663 nodes, which leaves the
        # second 37: it is cut, but its greedy 5-coloring still meets the
        # first copy's lower bound, so chi of the union is proved; one
        # clique search, one DSATUR and one core decomposition serve both
        # copies
        m5 = toys.complete_graph(2)
        for _ in range(3):
            m5 = toys.mycielski(m5)
        g = toys.disjoint_union(m5, m5)
        clique_nodes = toys.spy_clique_nodes(monkeypatch)
        calls = spy_calls(monkeypatch, "_dsatur", "_core_order")
        res = chromatic_number_exact(g, node_budget=700)
        assert res.nodes == 700
        assert len(clique_nodes) == 1 and sum(clique_nodes) <= 700
        assert calls == {"_dsatur": [g], "_core_order": [g]}
        assert res.exact and res.chi == 5
        assert res.certificate["infeasible_k"] == 4
        assert find_coloring_violation(g, res.coloring.colors) is None

    def test_clique_bounds_every_component(self, monkeypatch):
        # K4 + C5: the whole-graph clique proves chi = 4 with no search; C5
        # needs no k = 2 refutation, as it cannot raise chi above 4
        g = toys.disjoint_union(toys.complete_graph(4), toys.cycle_graph(5))
        clique_nodes = toys.spy_clique_nodes(monkeypatch)
        res = chromatic_number_exact(g)
        assert len(clique_nodes) == 1
        assert res.exact and res.chi == 4 and res.nodes == 0
        assert res.certificate == {"lower_bound_clique": (0, 1, 2, 3)}
        assert find_coloring_violation(g, res.coloring.colors) is None

    def test_components_of_one_or_two_vertices_build_no_subgraph(self, monkeypatch):
        # an edge, a lone vertex, C5 and an edge: no graph is built, only C5
        # is searched (k = 2 refuted in 4 nodes); the others are cliques,
        # colored 0 and 0, 1 as DSATUR on their own subgraphs would color them
        g = toys.disjoint_union(toys.disjoint_union(toys.path_graph(2), toys.path_graph(1)),
                                toys.disjoint_union(toys.cycle_graph(5), toys.path_graph(2)))
        built, init = [], TriangleGraph.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(TriangleGraph, "__init__", spy)
        res = chromatic_number_exact(g)
        assert built == []
        assert (res.lower, res.upper, res.exact, res.nodes) == (3, 3, True, 4)
        assert res.coloring == Coloring((0, 1, 0, 0, 1, 0, 1, 2, 0, 1), 3, True)
        assert res.certificate == {"infeasible_k": 2, "nodes": 4, "exhausted": True,
                                   "lower_bound_clique": (0, 1)}

    @pytest.mark.parametrize("witness", [(0, 1, 2), (-1, 0), (5, 4)],
                             ids=["non-edge", "negative", "past-end"])
    def test_given_clique_is_verified(self, witness):
        # on C5, -1 would index vertex 4, a neighbor of 0
        fake = cliques.CliqueResult(len(witness), witness, True, 0)
        with pytest.raises(ValueError):
            chromatic_number_exact(toys.cycle_graph(5), clique=fake)

    def test_cut_clique_search_still_proves_chi(self, monkeypatch):
        # the default budget is read at call time; at 4 nodes the search has
        # found a triangle but not finished, and a 3-coloring still proves chi
        g = toys.octahedron()
        monkeypatch.setattr(cliques, "DEFAULT_CLIQUE_BUDGET", 4)
        clique = cliques.clique_number(g)
        assert clique.size == 3 and not clique.exact
        res = chromatic_number_exact(g)
        assert res.exact and res.chi == 3

    def test_zero_time_budget_runs_no_node(self):
        # unbudgeted, chi(M5) = 5 is proved in 663 nodes
        g = toys.mycielski(toys.mycielski(toys.mycielski(toys.complete_graph(2))))
        res = chromatic_number_exact(g, time_budget=0)
        assert res.nodes == 0 and res.exact is False
        assert (res.lower, res.upper) == (2, 5)
        # nor the alpha search that proves chi(SL3(2)) = 8, nor the greedy
        res = chromatic_number_exact(SL32, time_budget=0)
        assert res.nodes == 0 and (res.lower, res.upper, res.exact) == (5, 10, False)

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_oracle(self, graph):
        want, _ = oracles.oracle_chromatic(graph)
        res = chromatic_number_exact(graph)
        assert res.exact and res.chi == want

    @given(random_graphs(), st.integers(2, 5), st.booleans(), st.booleans(),
           st.integers(1, 2000))
    @settings(max_examples=200, deadline=None)
    def test_core_search_matches_reference_node_for_node(self, graph, k, peel, pin, budget):
        # on the k-core or every vertex, with or without the clique pinned
        assert_core_search_matches(graph, k, *core_and_clique(graph, k, peel, pin), budget)

    @DEEP_TREES
    def test_core_search_matches_reference_on_deep_trees(self, graph, k):
        # trees far deeper than random graphs of 18 vertices give (663 nodes
        # and a 20,000-node cut of the 1,176,185), with and without the clique
        for pin in (True, False):
            assert_core_search_matches(graph, k, *core_and_clique(graph, k, False, pin), 20_000)

    def test_sl32_k7_exhaustion_is_pinned(self, monkeypatch):
        # the k = 7 exhaustion that chromatic_number_exact ran before the
        # symmetry bound made it unneeded: its node count stays pinned, a
        # search of over a million nodes forks no worker even where two CPUs
        # are there, and 'unsat' leaves the chi coloring it starts from as
        # it is
        forked = toys.run_as_on_cpus(monkeypatch, 2)
        order, core = _core_order(SL32)
        colors = list(chromatic_number_exact(SL32).coloring.colors)
        clique = list(cliques.clique_number(SL32).witness)
        result = _k_colorable(SL32, 7, order, clique, core, colors, None,
                              coloring.DEFAULT_COLOR_NODE_BUDGET)
        assert result == ("unsat", 1_176_185)
        assert hashlib.sha256(bytes(colors)).hexdigest()[:16] == "89bbd549ce01c0f8"
        assert forked == []


class TestWholeGraphPasses:
    """chromatic_number_exact runs DSATUR and the core decomposition once on
    the whole graph and reads each component's slice of them."""

    @given(st.lists(small_graphs(), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_restrict_to_components_of_disjoint_unions(self, parts):
        graph = parts[0]
        for part in parts[1:]:
            graph = toys.disjoint_union(graph, part)
        assert_whole_graph_passes_restrict(graph)

    def test_restrict_to_every_component_of_a_portion(self):
        # the 5,476-vertex depth-2 portion: 521 components
        assert_whole_graph_passes_restrict(
            generate_and_build(GenerationConfig(conj_depth=2)).graph)


class TestHeuristics:
    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_dsatur_matches_oracle(self, graph):
        colors = heuristic_chromatic_upper(graph, rounds=0).colors
        assert list(colors) == oracles.oracle_dsatur(graph)

    def test_dsatur_matches_oracle_on_sl33(self):
        g = build_delta334(order3_vertices(parse_group_spec("SL3(3)")))
        colors = heuristic_chromatic_upper(g, rounds=0).colors
        assert list(colors) == oracles.oracle_dsatur(g)

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_upper_bounds_bracket_exact(self, graph):
        exact = chromatic_number_exact(graph).chi
        greedy = heuristic_chromatic_upper(graph, rounds=0)
        better = heuristic_chromatic_upper(graph, rounds=50)
        assert greedy.proper and better.proper
        assert exact <= better.num_colors <= greedy.num_colors

    @staticmethod
    def start_coloring(graph, start):
        """DSATUR; DSATUR with colors c -> 2c + 1 (empty classes, and ids past
        those of a compact coloring); or every vertex its own color, which
        leaves the greedy improving over many rounds."""
        if start == "singletons":
            return list(range(graph.n))
        colors = list(heuristic_chromatic_upper(graph, rounds=0).colors)
        return [2 * c + 1 for c in colors] if start == "spread" else colors

    @given(small_graphs(), st.integers(0, 7), st.integers(1, 3),
           st.sampled_from(["dsatur", "spread", "singletons"]))
    @settings(max_examples=80, deadline=None)
    def test_iterated_greedy_matches_oracle(self, graph, rounds, stop_at, start):
        colors = self.start_coloring(graph, start)
        want = oracles.oracle_iterated_greedy(graph, colors, stop_at, rounds)
        for run in (_iterated_greedy, _bitset_rounds, _array_rounds):
            got = run(*csr(graph), list(colors), stop_at, rounds, None)
            assert got == want, run.__name__
            assert all(type(c) is int for c in got)

    @KERNELS
    @pytest.mark.parametrize("graph, start, rounds", [
        ("SL3(2)", "dsatur", 2000),
        ("SL3(3)", "singletons", 30),
        ("portion-2000", "dsatur", 30),
        ("portion-2000", "singletons", 30),
    ])
    def test_kernels_match_oracle_on_larger_graphs(self, kernel, graph, start, rounds):
        # DSATUR's 10 colors on SL3(2) fall to 8 only after many rounds,
        # and the portion's component is sparse, so each kernel also meets
        # the other's kind of graph
        if graph == "portion-2000":
            g = largest_component(generate_and_build(GenerationConfig(target_vertices=2000)).graph)
        else:
            g = build_delta334(order3_vertices(parse_group_spec(graph)))
        colors = self.start_coloring(g, start)
        want = oracles.oracle_iterated_greedy(g, colors, 1, rounds)
        assert kernel(*csr(g), list(colors), 1, rounds, None) == want
        if graph == "SL3(2)":
            assert (max(colors) + 1, max(want) + 1) == (10, 8)

    def test_dense_and_small_graphs_take_the_bitset_kernel(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("wrong kernel")

        def first_pairs(n, m):
            return TriangleGraph(range(n), [(i, j) for i in range(n)
                                            for j in range(i + 1, n)][:m])

        bitset = [SL32, build_delta334(order3_vertices(parse_group_spec("SL3(3)"))),
                  toys.cycle_graph(256), first_pairs(300, 701)]  # 128 m >= n (n - 1)
        array = [generate_and_build(GenerationConfig(target_vertices=2000)).graph,
                 toys.cycle_graph(257), first_pairs(300, 700)]
        for kernel, takes, refused in (("_array_rounds", bitset, array),
                                       ("_bitset_rounds", array, bitset)):
            monkeypatch.setattr(coloring, kernel, refuse)
            for g in takes:
                _iterated_greedy(*csr(g), list(range(g.n)), 1, 3)
            for g in refused:
                with pytest.raises(AssertionError, match="wrong kernel"):
                    _iterated_greedy(*csr(g), list(range(g.n)), 1, 3)
            monkeypatch.undo()

    @pytest.mark.parametrize("start", ["dsatur", "singletons"])
    def test_iterated_greedy_matches_oracle_on_sl33(self, start):
        # from singletons the best coloring still improves in rounds 8-11,
        # after two shuffled rounds, so the RNG stream must match too
        g = build_delta334(order3_vertices(parse_group_spec("SL3(3)")))
        colors = self.start_coloring(g, start)
        assert (_iterated_greedy(*csr(g), list(colors), 1, 30)
                == oracles.oracle_iterated_greedy(g, colors, 1, 30))

    @pytest.mark.parametrize("stop_at, rounds, deadline", [
        (1, 0, None),
        (6, 10, None),
        (1, 10, -1.0),
    ], ids=["no-rounds", "stop-at-met", "past-deadline"])
    def test_iterated_greedy_early_exit_keeps_input(self, stop_at, rounds, deadline):
        g = toys.petersen_graph()
        colors = [2 * c + 1 for c in heuristic_chromatic_upper(g, rounds=0).colors]
        assert max(colors) + 1 == 6
        if deadline is not None:
            deadline += time.monotonic()
        assert _iterated_greedy(*csr(g), list(colors), stop_at, rounds, deadline) == colors

    def test_iterated_greedy_isolated_vertices_take_color_0(self):
        g = TriangleGraph(range(5), [(0, 1), (1, 2)])
        assert _iterated_greedy(*csr(g), [0, 1, 0, 2, 3], 1, 1) == [0, 1, 0, 0, 0]

    def test_improve_never_increases(self):
        g = toys.petersen_graph()
        start = heuristic_chromatic_upper(g, rounds=0)
        improved = improve_coloring(g, start, rounds=100)
        assert improved.proper
        assert improved.num_colors <= start.num_colors

    def test_improve_rejects_improper_input(self):
        g = toys.cycle_graph(5)
        bad = Coloring((0,) * 5, 1, False)
        with pytest.raises(ValueError):
            improve_coloring(g, bad)


class TestSymmetryBound:
    """chi >= n / alpha, alpha being the clique number of the complement,
    which keeps the labels: on a group graph with one conjugation orbit its
    search is pinned at one vertex."""

    @pytest.mark.parametrize("graph", [*(toys.cycle_graph(n) for n in range(5, 10)),
                                       toys.petersen_graph(), toys.complete_bipartite(3, 3),
                                       toys.octahedron(), toys.complete_graph(5)],
                             ids=[*(f"C{n}" for n in range(5, 10)), "petersen", "K3,3",
                                  "octahedron", "K5"])
    def test_pinned_alpha_matches_brute_force(self, graph):
        res = cliques.clique_number(coloring._complement(graph))
        assert res.exact and res.size == oracles.oracle_independence_number(graph)
        assert len(res.witness) == res.size
        assert not any(graph.has_edge(a, b) for a in res.witness for b in res.witness)

    @pytest.mark.parametrize("name", ["S5", "A5", "SL2(5)"])
    def test_pinned_alpha_certificate_matches_brute_force(self, name):
        # one conjugation orbit: the complement's search is pinned at vertex 0
        g = build_delta334(order3_vertices(parse_group_spec(name)))
        assert len(_conjugation_orbits(g)[1]) == 1
        cert = chromatic_number_exact(g).certificate
        assert len(cert["independent_set"]) == oracles.oracle_independence_number(g) == 6
        assert 0 in cert["independent_set"]
        assert not any(g.has_edge(a, b) for a in cert["independent_set"]
                       for b in cert["independent_set"])

    def test_sl32_maps_are_verified_automorphisms(self):
        maps, orbits = _conjugation_orbits(SL32)
        assert maps == [0, 1, 2] and orbits == [list(range(56))]
        edges = set(SL32.edges())
        for i in maps:
            x, x_inv = SL32.labels[i], inverse(SL32.labels[i])
            image = [SL32.vertex_of(compose(compose(x, y), x_inv)) for y in SL32.labels]
            assert {tuple(sorted((image[a], image[b]))) for a, b in edges} == edges

    @pytest.mark.parametrize("name", ["portion-5k", "SL3(3)", "SL3(2)-swapped"])
    def test_not_transitive(self, name):
        if name == "portion-5k":  # conjugates leave the portion: no orbits
            graph = generate_and_build(GenerationConfig(target_vertices=5000)).graph
            assert _conjugation_orbits(graph) is None
        elif name == "SL3(3)":  # two orbits, of degrees 136 and 118
            graph = build_delta334(order3_vertices(parse_group_spec("SL3(3)")))
            assert [len(orbit) for orbit in _conjugation_orbits(graph)[1]] == [104, 624]
        else:  # edges a b, c d swapped for a c, b d: still 19-regular, but
            # conjugation by label 0 no longer maps the arcs onto the arcs.
            # All four lie outside N[0], so the map still takes label 0's
            # neighbors onto themselves and only the arc check can fail
            far = {v for v in range(1, SL32.n) if not SL32.has_edge(0, v)}
            a, b = next((a, b) for a, b in SL32.edges() if {a, b} <= far)
            c, d = next((c, d) for c, d in SL32.edges() if {c, d} <= far
                        and len({a, b, c, d}) == 4
                        and not SL32.has_edge(a, c) and not SL32.has_edge(b, d))
            graph = TriangleGraph(SL32.labels,
                                  set(SL32.edges()) - {(a, b), (c, d)} | {(a, c), (b, d)})
            assert graph.degree_histogram() == {19: 56}
            assert graph.neighbors(0) == SL32.neighbors(0)
            assert _conjugation_orbits(graph) is None

    def test_a6_is_not_certified_by_independence(self, monkeypatch):
        # A6 is 28-regular, but conjugation keeps the 40 3-cycles apart from
        # the 40 double 3-cycles: with two orbits no alpha search runs (the
        # one-orbit rule is a cost rule), and chi = 9 is never reported
        g = build_delta334(order3_vertices(parse_group_spec("A6")))
        calls = spy_calls(monkeypatch, "_complement")
        for budget in (0, 1_000, 20_000):
            res = chromatic_number_exact(g, node_budget=budget)
            assert "independent_set" not in res.certificate
            assert not (res.exact and res.chi == 9)
        assert calls == {"_complement": []}

    def test_sl32_chi_needs_no_descent(self, monkeypatch):
        # SL3(2) is small, so its greedy rounds run, and their coloring meets
        # n / alpha: no core decomposition and no k-colorability search run
        calls = spy_calls(monkeypatch, "_core_order", "_iterated_greedy")
        res = chromatic_number_exact(SL32)
        assert calls["_core_order"] == [] and len(calls["_iterated_greedy"]) == 1
        assert res.exact and res.chi == 8 and res.nodes == 1886
        assert len(res.certificate["independent_set"]) == 7
        assert (res.certificate["infeasible_k"], res.certificate["nodes"]) == (7, 1886)


class TestViolationDetection:
    def test_reports_first_bad_edge(self):
        g = toys.cycle_graph(4)
        assert find_coloring_violation(g, (0, 0, 1, 1)) == (0, 1)
        assert find_coloring_violation(g, (0, 1, 0, 1)) is None

    def test_loop_is_always_a_violation(self):
        g = TriangleGraph([0, 1], [(0, 1)], loops=[1])
        assert find_coloring_violation(g, (0, 1)) == (1, 1)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            find_coloring_violation(toys.cycle_graph(3), (0, 1))

    @given(small_graphs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_edge_by_edge_oracle(self, graph, data):
        k = data.draw(st.integers(1, 4))
        colors = data.draw(st.lists(st.integers(0, k - 1), min_size=graph.n, max_size=graph.n))
        loops = data.draw(st.lists(st.integers(0, graph.n - 1), max_size=2))
        looped = TriangleGraph(range(graph.n), graph.edges(), loops)
        for g in (graph, looped):
            want = oracles.oracle_coloring_violation(g, colors)
            assert find_coloring_violation(g, colors) == want

    @given(st.integers(0, 6), st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_matches_oracle_on_sl32(self, changes, rng):
        # DSATUR's proper coloring with a few vertices recolored: no bad
        # edge, one, or several
        colors = coloring._dsatur(SL32)
        for v in rng.sample(range(SL32.n), changes):
            colors[v] = rng.randrange(10)
        want = oracles.oracle_coloring_violation(SL32, colors)
        assert find_coloring_violation(SL32, colors) == want


class TestLift:
    def test_lift_along_reduction_is_proper(self):
        mats = [parametric_order3(a, b, c)
                for a in range(2) for b in range(2) for c in range(2)]
        mats += [inverse(m) for m in mats]
        dom = build_delta334(ElementSet(mats))
        codomain = mod_p_codomain(2)
        morphism = induced_morphism(dom, 2, codomain).morphism
        assert morphism is not None
        base = heuristic_chromatic_upper(codomain, rounds=50)
        lifted = lift_coloring(morphism, base)
        assert lifted.proper
        assert lifted.num_colors <= base.num_colors
