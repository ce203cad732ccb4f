import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delta334.coloring import (
    Coloring,
    _iterated_greedy,
    chromatic_number_exact,
    find_coloring_violation,
    heuristic_chromatic_upper,
    improve_coloring,
    lift_coloring,
)
from delta334.graph import TriangleGraph, build_delta334, induced_morphism
from delta334.generation import mod_p_codomain
from delta334.groups import ElementSet, order3_vertices, parse_group_spec
from delta334.elements import inverse, parametric_order3

import oracles
import toys


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    return TriangleGraph(range(n), edges)


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

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_oracle(self, graph):
        want, _ = oracles.oracle_chromatic(graph)
        res = chromatic_number_exact(graph)
        assert res.exact and res.chi == want


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
        got = _iterated_greedy(graph, list(colors), stop_at, rounds)
        assert got == oracles.oracle_iterated_greedy(graph, colors, stop_at, rounds)
        assert all(type(c) is int for c in got)

    @pytest.mark.parametrize("start", ["dsatur", "singletons"])
    def test_iterated_greedy_matches_oracle_on_sl33(self, start):
        # from singletons the best coloring still improves in rounds 8-11,
        # after two shuffled rounds, so the RNG stream must match too
        g = build_delta334(order3_vertices(parse_group_spec("SL3(3)")))
        colors = self.start_coloring(g, start)
        assert (_iterated_greedy(g, list(colors), 1, 30)
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
        assert _iterated_greedy(g, list(colors), stop_at, rounds, deadline) == colors

    def test_iterated_greedy_isolated_vertices_take_color_0(self):
        g = TriangleGraph(range(5), [(0, 1), (1, 2)])
        assert _iterated_greedy(g, [0, 1, 0, 2, 3], 1, 1) == [0, 1, 0, 0, 0]

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
