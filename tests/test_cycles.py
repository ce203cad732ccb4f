import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delta334.cycles import (
    ABSENT,
    FOUND,
    NONE,
    UNRESOLVED,
    cycle_census,
    hamiltonian_cycle,
    verify_cycle,
)
from delta334.graph import TriangleGraph

import oracles
import toys


@st.composite
def small_graphs(draw):
    n = draw(st.integers(3, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    return TriangleGraph(range(n), edges)


class TestVerifyCycle:
    def test_accepts_simple_cycle(self):
        g = toys.cycle_graph(5)
        assert verify_cycle(g, [0, 1, 2, 3, 4])

    def test_rejects_broken_chain(self):
        g = toys.path_graph(5)
        assert not verify_cycle(g, [0, 1, 2, 3, 4])

    def test_rejects_repeats_and_short(self):
        g = toys.complete_graph(4)
        assert not verify_cycle(g, [0, 1, 0])
        assert not verify_cycle(g, [0, 1])


class TestHamilton:
    @pytest.mark.parametrize("graph", [
        toys.cycle_graph(6),
        toys.complete_graph(5),
        toys.complete_bipartite(4, 4),
    ])
    def test_finds_cycle(self, graph):
        res = hamiltonian_cycle(graph)
        assert res.status == FOUND
        assert len(res.cycle) == graph.n
        assert verify_cycle(graph, res.cycle)

    @pytest.mark.parametrize("graph", [
        toys.path_graph(5),
        toys.star_graph(4),
        toys.disjoint_union(toys.cycle_graph(3), toys.cycle_graph(3)),
        toys.complete_bipartite(3, 4),
        toys.petersen_graph(),  # classic hypohamiltonian graph
    ])
    def test_proves_absence(self, graph):
        assert hamiltonian_cycle(graph).status == NONE

    def test_budget_exhaustion_reports_unresolved(self):
        # starved search on a graph it cannot finish instantly
        g = toys.complete_bipartite(6, 7)
        res = hamiltonian_cycle(g, node_budget=1)
        assert res.status in (NONE, UNRESOLVED)


class TestCensus:
    @pytest.mark.parametrize("loops", [(), [0]], ids=["no-loop", "loop-at-0"])
    def test_c6_has_only_the_full_cycle(self, loops):
        # the census ignores loops, so a looped C6 still counts as bipartite
        census = cycle_census(TriangleGraph(range(6), toys.cycle_graph(6).edges(), loops))
        by_status = {L: e.status for L, e in census.items()}
        assert by_status == {3: ABSENT, 4: ABSENT, 5: ABSENT, 6: FOUND}
        # odd absences come from bipartite parity, even ones from search
        assert census[3].reason == "bipartite"
        assert census[4].reason == "exhausted"

    def test_k44_even_lengths_only(self):
        census = cycle_census(toys.complete_bipartite(4, 4))
        found = {L for L, e in census.items() if e.status == FOUND}
        assert found == {4, 6, 8}
        for L, e in census.items():
            if e.status == FOUND:
                assert verify_cycle(toys.complete_bipartite(4, 4), e.cycle)
            else:
                assert e.status == ABSENT

    def test_petersen_census_matches_oracle(self):
        g = toys.petersen_graph()
        want = oracles.oracle_cycle_lengths(g)
        census = cycle_census(g)
        got = {L for L, e in census.items() if e.status == FOUND}
        absent = {L for L, e in census.items() if e.status == ABSENT}
        assert got == want
        assert absent == set(range(3, 11)) - want

    def test_roots_stop_where_no_cycle_fits(self):
        # a 10-cycle of Petersen has every vertex, so only root 0 is searched:
        # its absence takes 250 nodes, where trying every root took 421
        entry = cycle_census(toys.petersen_graph(), 10, 10, node_budget=300)[10]
        assert (entry.status, entry.reason) == (ABSENT, "exhausted")

    @given(small_graphs())
    @settings(max_examples=40, deadline=None)
    def test_census_matches_oracle(self, graph):
        want = oracles.oracle_cycle_lengths(graph)
        census = cycle_census(graph)
        for L, entry in census.items():
            if entry.status == FOUND:
                assert L in want
                assert verify_cycle(graph, entry.cycle)
            elif entry.status == ABSENT:
                assert L not in want

    def test_length_window_respected(self):
        census = cycle_census(toys.complete_graph(6), min_len=4, max_len=5)
        assert sorted(census) == [4, 5]
        assert all(e.status == FOUND for e in census.values())
