"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single pass/fail line (straight to the real stdout so
pytest capture does not swallow it) and enforces its own wall-clock budget.
Expensive artifacts (the 56-vertex mod-2 graph, its certified chromatic
number, the default generated portion) are built once per module and their
build time is charged to every criterion that consumes them.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from delta334.elements import (MAT3_IDENTITY, ModMatrix, Permutation,
                               element_key, inverse, mat3_mul)
from delta334.groups import order3_vertices, parse_group_spec
from delta334.graph import (TriangleGraph, build_delta334, graph_isomorphic,
                            kronecker_matches_direct_sum, kronecker_product)
from delta334.coloring import (chromatic_number_exact, find_coloring_violation,
                               heuristic_chromatic_upper)
from delta334.cliques import clique_number, verify_clique
from delta334.cycles import (ABSENT, FOUND, cycle_census, hamiltonian_cycle,
                             verify_cycle)
from delta334.invariants import components, is_bipartite, nonplanarity_check
from delta334.generation import (GenerationConfig, generate_and_build,
                                 portion_chromatic_bounds,
                                 verify_edge_preservation,
                                 verify_no_identity_reduction)

import oracles
from toys import complete_bipartite

# five mod-2 matrices that must form a clique; membership is re-verified
# against the built graph, never assumed
FIVE_CLIQUE_MOD2 = (
    (0, 1, 0, 1, 0, 1, 1, 1, 0),
    (1, 0, 1, 0, 1, 1, 0, 1, 0),
    (1, 1, 1, 1, 0, 0, 0, 0, 1),
    (1, 0, 0, 1, 1, 1, 1, 1, 0),
    (1, 0, 0, 1, 0, 1, 0, 1, 1),
)

PREFILTER_PAIRS = 1_000_000

COST: dict[str, float] = {}


@pytest.fixture()
def criterion(capfd):
    """One pass/fail line per criterion, printed through pytest's capture,
    with the stated wall-clock budget enforced."""

    @contextmanager
    def _criterion(num: int, desc: str, limit: float, *charged: str):
        info: dict = {}
        t0 = time.perf_counter()
        try:
            yield info
        except BaseException:
            with capfd.disabled():
                print(f"[criterion {num}] {desc}: FAIL", flush=True)
            raise
        elapsed = time.perf_counter() - t0 + sum(COST[name] for name in charged)
        verdict = "PASS" if elapsed < limit else "FAIL"
        note = info.get("note", "")
        with capfd.disabled():
            print(f"[criterion {num}] {desc}: {verdict}"
                  + (f" ({note}; {elapsed:.1f}s)" if note
                     else f" ({elapsed:.1f}s)"),
                  flush=True)
        assert elapsed < limit, \
            f"criterion {num} took {elapsed:.1f}s, limit {limit}s"

    return _criterion


@pytest.fixture(scope="module")
def sl32_graph():
    t0 = time.perf_counter()
    g = build_delta334(order3_vertices(parse_group_spec("SL3(2)")))
    COST["sl32_graph"] = time.perf_counter() - t0
    return g


@pytest.fixture(scope="module")
def sl32_chi(sl32_graph):
    t0 = time.perf_counter()
    res = chromatic_number_exact(sl32_graph)
    COST["sl32_chi"] = time.perf_counter() - t0
    return res


@pytest.fixture(scope="module")
def default_portion():
    t0 = time.perf_counter()
    portion = generate_and_build(GenerationConfig())
    COST["default_portion"] = time.perf_counter() - t0
    return portion


def test_criterion_1_a4_s4(criterion):
    with criterion(1, "A4/S4 bipartite double cover of K44", 1.0) as info:
        spec = parse_group_spec("A4")
        verts = order3_vertices(spec)
        g = build_delta334(verts)
        assert g.n == 8 and not g.loops
        assert len(components(g)) == 1

        bip = is_bipartite(g)
        assert bip.bipartite and len(bip.parts) == 2
        class_keys = {frozenset(element_key(x) for x in part)
                      for part in oracles.oracle_conjugacy_classes(spec, verts)}
        part_keys = {frozenset(element_key(g.labels[v]) for v in part)
                     for part in bip.parts}
        assert class_keys == part_keys

        assert graph_isomorphic(g, complete_bipartite(4, 4)) is not None

        chi = chromatic_number_exact(g)
        assert chi.exact and chi.chi == 2
        cl = clique_number(g)
        assert cl.exact and cl.size == 2

        census = cycle_census(g, 3, 8)
        assert {L for L in range(3, 9) if census[L].status == FOUND} == {4, 6, 8}
        assert all(census[L].status == ABSENT for L in (3, 5, 7))

        s4 = build_delta334(order3_vertices(parse_group_spec("S4")))
        assert ([element_key(x) for x in s4.labels]
                == [element_key(x) for x in g.labels])
        assert s4.edges() == g.edges()
        info["note"] = "8 vertices, chi 2, clique 2, cycles {4,6,8}"


def test_criterion_2_s5(criterion):
    with criterion(2, "S5 seven-regular with odd cycle", 1.0) as info:
        g = build_delta334(order3_vertices(parse_group_spec("S5")))
        assert g.n == 20
        assert g.degree_histogram() == {7: 20}

        bip = is_bipartite(g)
        assert not bip.bipartite
        assert len(bip.odd_cycle) % 2 == 1
        assert verify_cycle(g, bip.odd_cycle)

        # the three 3-cycles fixing two points of {1..5} in turn: a
        # triangle witnesses an odd cycle through all three
        trio = tuple(g.vertex_of(Permutation(images)) for images in
                     ((1, 2, 0, 3, 4), (1, 3, 2, 0, 4), (1, 4, 2, 3, 0)))
        assert len(set(trio)) == 3
        assert verify_cycle(g, trio)
        info["note"] = "20 vertices, degree 7, triangle through the displayed trio"


def test_criterion_3_s4_sl23_isomorphic(criterion):
    with criterion(3, "S4 and SL2(3) graphs isomorphic", 1.0) as info:
        s4 = build_delta334(order3_vertices(parse_group_spec("S4")))
        sl23 = build_delta334(order3_vertices(parse_group_spec("SL2(3)")))
        mapping = graph_isomorphic(s4, sl23)
        assert mapping is not None
        assert sorted(mapping) == list(range(s4.n))
        for i, j in s4.edges():
            assert sl23.has_edge(mapping[i], mapping[j])
        info["note"] = "explicit mapping verified edge by edge"


def test_criterion_4_sl32(criterion, sl32_graph, sl32_chi):
    with criterion(4, "SL3(2) full invariant battery", 600.0,
                   "sl32_graph", "sl32_chi") as info:
        g = sl32_graph
        assert (g.n, g.edge_count) == (56, 532)
        assert g.degree_histogram() == {19: 56}
        assert len(components(g)) == 1

        cl = clique_number(g)
        assert cl.exact and cl.size == 5
        assert verify_clique(g, cl.witness)
        five = tuple(g.vertex_of(ModMatrix(e, 2)) for e in FIVE_CLIQUE_MOD2)
        assert len(set(five)) == 5
        assert verify_clique(g, five)

        chi = sl32_chi
        assert chi.exact and chi.chi == 8
        assert chi.certificate.get("infeasible_k") == 7
        assert chi.certificate.get("exhausted")
        assert chi.coloring is not None and chi.coloring.num_colors == 8
        assert find_coloring_violation(g, chi.coloring.colors) is None

        ham = hamiltonian_cycle(g)
        assert ham.status == FOUND
        assert len(ham.cycle) == 56 and verify_cycle(g, ham.cycle)

        census = cycle_census(g, 3, 56)
        for L in range(3, 57):
            entry = census[L]
            assert entry.status == FOUND
            assert len(entry.cycle) == L and verify_cycle(g, entry.cycle)

        ev = nonplanarity_check(g)
        assert ev.status == "nonplanar" and ev.reason == "edge-count"
        info["note"] = "chi 8 certified, clique 5, hamiltonian, cycles 3-56"


def test_sl32_chi_8_from_independence_number(sl32_graph, sl32_chi):
    """The independence certificate of chi(SL3(2)) = 8 without the
    symmetry that pins its search: alpha = 7 from a clique search on the
    whole complement, so chi >= ceil(56 / 7) = 8, and the eight classes of
    any 8-coloring are 7-sets."""
    g = sl32_graph
    complement = TriangleGraph(range(g.n), [(i, j) for i, j in
                                            itertools.combinations(range(g.n), 2)
                                            if not g.has_edge(i, j)])
    alpha = clique_number(complement)
    assert alpha.exact and alpha.size == 7 and alpha.nodes == 17_829
    assert all(not g.has_edge(i, j)
               for i, j in itertools.combinations(alpha.witness, 2))
    assert -(-g.n // alpha.size) == 8 == sl32_chi.chi
    colors = sl32_chi.coloring.colors
    assert sorted(colors.count(c) for c in set(colors)) == [7] * 8


SL32_CHI_COLORS = (3, 1, 6, 0, 6, 1, 3, 5, 5, 4, 2, 2, 7, 5, 0, 6, 3, 2, 6, 1, 6, 2, 5, 0,
                   6, 2, 7, 3, 1, 0, 4, 5, 3, 4, 5, 4, 7, 7, 2, 0, 5, 1, 1, 6, 4, 3, 7, 4,
                   0, 1, 7, 0, 2, 3, 4, 7)


def test_sl32_chi_search_is_pinned(sl32_chi):
    """chi = 8 from the symmetry bound: conjugation by labels 0, 1 and 2
    leaves one vertex orbit, and the independent-set search pinned at
    vertex 0 proves alpha = 7 in 1,820 nodes, so chi >= ceil(56 / 7).  The
    chi coloring is the iterated greedy's, the same as when a 1,176,185-node
    k = 7 exhaustion proved the bound."""
    cert = sl32_chi.certificate
    assert sl32_chi.nodes == cert["nodes"] == 1_820
    assert (cert["infeasible_k"], cert["exhausted"]) == (7, True)
    assert cert["independent_set"] == (0, 5, 9, 11, 22, 25, 48)
    assert cert["automorphisms"] == [0, 1, 2]
    assert sl32_chi.coloring.colors == SL32_CHI_COLORS


def test_criterion_5_sl33(criterion):
    with criterion(5, "SL3(3) size and degrees", 60.0) as info:
        g = build_delta334(order3_vertices(parse_group_spec("SL3(3)")))
        assert g.n == 728
        assert len(components(g)) == 1
        assert set(g.degree_histogram()) == {118, 136}

        # chromatic value deliberately unasserted: bounds are recorded
        # for comparison only
        low = clique_number(g)
        high = heuristic_chromatic_upper(g, rounds=300)
        assert low.exact
        assert low.size <= high.num_colors
        info["note"] = (f"degrees {{118, 136}}, chi recorded in "
                        f"[{low.size}, {high.num_colors}]")


def test_criterion_6_abelian_and_kronecker(criterion):
    with criterion(6, "abelian edge law and product identity", 10.0) as info:
        for name in ("Z3", "Z9", "sum(Z3,Z3)"):
            g = build_delta334(order3_vertices(parse_group_spec(name)))
            want = set()
            for i, v in enumerate(g.labels):
                j = g.vertex_of(inverse(v))
                assert j != i
                want.add((min(i, j), max(i, j)))
            assert set(g.edges()) == want

        names = ("Z3", "A4", "S4")
        built = {name: build_delta334(order3_vertices(parse_group_spec(name),
                                                      include_identity=True))
                 for name in names}
        for a in names:
            for b in names:
                product = kronecker_product(built[a], built[b])
                direct = build_delta334(order3_vertices(
                    parse_group_spec(f"sum({a},{b})"), include_identity=True))
                ok, why = kronecker_matches_direct_sum(product, direct)
                assert ok, f"sum({a},{b}): {why}"
        info["note"] = "3 abelian graphs, 9 product pairs"


def test_criterion_7_portion(criterion, default_portion, sl32_graph, sl32_chi):
    with criterion(7, "generated portion lemma battery", 900.0,
                   "default_portion", "sl32_graph", "sl32_chi") as info:
        portion = default_portion
        g = portion.graph
        assert g.n >= 5000

        for p in (2, 3, 5):
            rep = verify_no_identity_reduction(g.labels, p)
            assert rep.ok and rep.checked == g.n

        ep = verify_edge_preservation(portion, 2, sl32_graph)
        assert ep.ok and ep.checked_edges == g.edge_count

        bounds = portion_chromatic_bounds(
            portion, codomain=sl32_graph, codomain_coloring=sl32_chi.coloring,
            color_time_budget=60.0)
        assert bounds.lifted is not None and bounds.lifted.proper
        assert bounds.lifted.num_colors <= 8
        assert bounds.clique.exact and bounds.clique.size == 3
        assert verify_clique(g, bounds.clique.witness)
        assert not bounds.clique_discovery
        assert 3 <= bounds.lower <= bounds.upper <= 8
        assert find_coloring_violation(g, bounds.best_coloring.colors) is None

        ev = nonplanarity_check(g)
        assert ev.status in ("nonplanar", "inconclusive")

        # prefilter soundness: on a million random pairs the trace filter
        # must never discard a pair whose product has (AB)^4 = identity
        ents = [v.entries for v in g.labels]
        arr = np.array(ents, dtype=np.int64).reshape(g.n, 3, 3)
        peak = int(np.abs(arr).max())
        assert 3 * peak * peak * 4 < 2 ** 63  # products stay inside int64
        rng = np.random.default_rng(0x334)
        ia = rng.integers(0, g.n, size=PREFILTER_PAIRS)
        ib = rng.integers(0, g.n, size=PREFILTER_PAIRS)
        traces = np.einsum("nii->n", arr[ia] @ arr[ib])
        rejected = np.flatnonzero((traces != 3) & (traces != -1) & (traces != 1))

        # class-filter soundness: the edge pass skips pairs whose images mod
        # 2 are not adjacent.  On the same random pairs, every such pair that
        # the trace filter would keep must fail (AB)^4 = identity as well.
        # The 56 images and their adjacency come from literal mod-2 products
        def mod2_mul(x, y):
            return tuple(e % 2 for e in mat3_mul(x, y))

        images = [m for m in itertools.product((0, 1), repeat=9)
                  if m != MAT3_IDENTITY and mod2_mul(mod2_mul(m, m), m) == MAT3_IDENTITY]
        assert len(images) == 56
        table = np.zeros((56, 56), dtype=bool)
        for a, x in enumerate(images):
            for b, y in enumerate(images):
                z = mod2_mul(x, y)
                z = mod2_mul(z, z)
                table[a, b] = mod2_mul(z, z) == MAT3_IDENTITY
        position = {m: a for a, m in enumerate(images)}
        image_of = np.array([position[tuple(e % 2 for e in v)] for v in ents])
        skipped = np.flatnonzero(((traces == 3) | (traces == -1) | (traces == 1))
                                 & ~table[image_of[ia], image_of[ib]])
        for k in np.concatenate((rejected, skipped)):
            prod = mat3_mul(ents[ia[k]], ents[ib[k]])
            sq = mat3_mul(prod, prod)
            assert mat3_mul(sq, sq) != MAT3_IDENTITY
        info["note"] = (f"n={g.n}, chi in [{bounds.lower}, {bounds.upper}], "
                        f"clique 3, planarity {ev.status}, "
                        f"{len(rejected)} of {PREFILTER_PAIRS} rejected pairs re-checked, "
                        f"{len(skipped)} class-filtered trace candidates re-checked")


def test_criterion_8_oracle_equivalence(criterion):
    with criterion(8, "oracle equivalence on small graphs", 60.0) as info:
        small = ("Z3", "Z9", "sum(Z3,Z3)", "A4", "S4", "SL2(3)")
        for name in small:
            spec = parse_group_spec(name)
            g = build_delta334(order3_vertices(spec))
            assert g.n <= 10 and not g.loops
            chi = chromatic_number_exact(g)
            assert chi.exact and chi.chi == oracles.oracle_chromatic(g)[0]
            cl = clique_number(g)
            assert cl.exact and cl.size == oracles.oracle_clique(g)[0]

            # identity-included variant: the looped identity vertex keeps
            # chi undefined, but clique equivalence still applies
            gi = build_delta334(order3_vertices(spec, include_identity=True))
            assert g.n + 1 == gi.n <= 10
            cli = clique_number(gi)
            assert cli.exact and cli.size == oracles.oracle_clique(gi)[0]
        info["note"] = f"{2 * len(small)} graphs cross-checked"
