import hashlib
import json
import time
from dataclasses import asdict

import numpy as np
import pytest

from delta334 import generation
from delta334.elements import (DEFAULT_ENTRY_LIMIT, CarrierMismatchError,
                               IntMatrix3, ModMatrix, Permutation, compose,
                               element_key, has_order_dividing_3, inverse,
                               parametric_order3)
from delta334.generation import (
    INTRO_ORDER3_SEEDS,
    VERIFICATION_PRIMES,
    GenerationConfig,
    build_portion_edges,
    family_seeds,
    generate_and_build,
    generate_portion,
    load_seeds_file,
    mod_p_codomain,
    portion_chromatic_bounds,
    verify_edge_preservation,
    verify_no_identity_reduction,
)
from delta334.graph import TriangleGraph, _core_order, _mod3_pairwise_edges
from delta334.coloring import (chromatic_number_exact, find_coloring_violation,
                               heuristic_chromatic_upper)
from delta334.cliques import verify_clique

import oracles
import toys


@pytest.fixture(scope="module")
def small_portion():
    """Depth-2 closure of the default seeds: 5,476 vertices, 16,470 edges."""
    return generate_and_build(GenerationConfig(conj_depth=2))


def _conjugated(verts, conj):
    """g v g^-1 for every v, g the row-major 9-tuple conj."""
    g = IntMatrix3(conj)
    return [compose(compose(g, v), inverse(g)) for v in verts]


def _e12(s):
    return (1, s, 0, 0, 1, 0, 0, 0, 1)


def _literal_edges(labels):
    """Plain-integer (AB)^4 on every pair."""
    return {(i, j) for i in range(len(labels)) for j in range(i + 1, len(labels))
            if oracles.oracle_product_order_divides_4(labels[i], labels[j])}


def _counters(stats):
    return stats.pairs_evaluated, stats.prefilter_candidates, stats.exact_checks


@pytest.fixture(scope="module")
def codomain_with_coloring():
    """The 56-vertex mod-2 codomain and a proper 8-coloring of it.

    Iterated greedy reaches eight colors here; the expensive optimality
    proof lives in the acceptance suite, not in unit tests."""
    g = mod_p_codomain(2)
    coloring = heuristic_chromatic_upper(g, rounds=2000)
    assert coloring.proper and coloring.num_colors == 8
    return g, coloring


class TestSeeds:
    def test_intro_seeds_have_order_three(self):
        for m in INTRO_ORDER3_SEEDS:
            assert has_order_dividing_3(m) and not m.is_identity()

    def test_default_seed_count(self):
        seeds = GenerationConfig().resolved_seeds()
        assert len(seeds) == 31  # 4 intro members + 27 family members
        assert len({element_key(m) for m in seeds}) == 31

    def test_family_bound_zero_disables_family(self):
        assert family_seeds(0) == []
        assert len(GenerationConfig(family_bound=0).resolved_seeds()) == 4

    def test_seeds_file_round_trip(self, tmp_path):
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps([list(m.entries) for m in INTRO_ORDER3_SEEDS]))
        loaded = load_seeds_file(path)
        assert loaded == list(INTRO_ORDER3_SEEDS)

    def test_seeds_file_rejects_malformed(self, tmp_path):
        path = tmp_path / "seeds.json"
        path.write_text(json.dumps([[1, 2, 3]]))
        with pytest.raises(ValueError):
            load_seeds_file(path)


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            GenerationConfig(conj_depth=-1)
        with pytest.raises(ValueError):
            GenerationConfig(entry_bound=0)
        with pytest.raises(ValueError):
            GenerationConfig(target_vertices=0)
        with pytest.raises(ValueError):
            GenerationConfig(seeds=(), family_bound=0)

    def test_rejects_non_order3_seed(self):
        with pytest.raises(ValueError):
            GenerationConfig(seeds=(IntMatrix3.identity(),))

    def test_explicit_seeds_replace_intro_only(self):
        B = INTRO_ORDER3_SEEDS[0]
        cfg = GenerationConfig(seeds=(B,), family_bound=0)
        assert cfg.resolved_seeds() == [B]
        with_family = GenerationConfig(seeds=(B,), family_bound=1)
        assert len(with_family.resolved_seeds()) == 28


class TestGeneratePortion:
    def test_single_seed_depth_zero_gives_inverse_pair(self):
        B = INTRO_ORDER3_SEEDS[0]
        cfg = GenerationConfig(seeds=(B,), conj_depth=0, family_bound=0)
        verts, _ = generate_portion(cfg)
        assert len(verts) == 2
        keys = {element_key(v) for v in verts}
        assert keys == {element_key(B), element_key(inverse(B))}

    def test_family_only_gives_members_plus_inverses(self):
        cfg = GenerationConfig(seeds=(), conj_depth=0, family_bound=1)
        verts, _ = generate_portion(cfg)
        assert len(verts) == 54
        assert len({element_key(v) for v in verts}) == 54

    def test_every_vertex_is_order3_nonidentity_inverse_closed(self, small_portion):
        verts = small_portion.graph.labels
        keys = {element_key(v) for v in verts}
        for v in verts:
            assert has_order_dividing_3(v) and not v.is_identity()
            assert element_key(inverse(v)) in keys

    def test_deterministic(self):
        cfg = GenerationConfig(conj_depth=1)
        a, _ = generate_portion(cfg)
        b, _ = generate_portion(cfg)
        assert [v.entries for v in a] == [v.entries for v in b]

    def test_entry_bound_respected_and_rejections_counted(self):
        cfg = GenerationConfig(conj_depth=3, entry_bound=20)
        verts, stats = generate_portion(cfg)
        assert all(max(abs(e) for e in v.entries) <= 20 for v in verts)
        assert stats.entry_bound_rejects > 0

    def test_target_cutoff(self):
        cfg = GenerationConfig(conj_depth=6, target_vertices=100)
        verts, _ = generate_portion(cfg)
        assert len(verts) == 100  # vertices are admitted in inverse pairs


class TestBuildEdges:
    def test_intro_pairs_are_adjacent(self):
        # both displayed generator pairs represent the triangle group, so
        # the A-B edge must appear in any portion containing them
        for a, b in [(INTRO_ORDER3_SEEDS[0], INTRO_ORDER3_SEEDS[1]),
                     (INTRO_ORDER3_SEEDS[2], INTRO_ORDER3_SEEDS[3])]:
            cfg = GenerationConfig(seeds=(a, b), conj_depth=0, family_bound=0)
            portion = generate_and_build(cfg)
            g = portion.graph
            assert g.has_edge(g.vertex_of(a), g.vertex_of(b))

    def test_every_vertex_adjacent_to_its_inverse(self, small_portion):
        g = small_portion.graph
        for v in range(g.n):
            w = g.vertex_of(inverse(g.labels[v]))
            assert g.has_edge(v, w)

    def test_rejects_non_order3_vertex(self):
        with pytest.raises(ValueError):
            build_portion_edges([IntMatrix3.identity()])

    @pytest.mark.parametrize("kind, size", [
        ("default", None), ("parametric", 10 ** 2), ("parametric", 10 ** 5),
        ("parametric", 10 ** 9), ("conjugated", 10 ** 4)],
        ids=["default", "c1e2", "c1e5", "c1e9", "conj1e4"])
    def test_edges_match_literal_oracle_on_500_vertices(self, kind, size, small_portion):
        # exact cross-check of the residue filter and the exact decision:
        # plain-integer (AB)^4 on every pair.  "default" is a 500-vertex
        # subportion of the depth-2 closure.  "parametric" portions hold 300
        # vertices seeded with members at |c| = size beside the |a|, |b|,
        # |c| <= 1 family: entries reach ~3 size^2, so products run on
        # Python ints, but large-entry vertices meet only their inverses.
        # "conjugated" takes 300 default vertices conjugated by E_12(size):
        # the same edges of every kind, with entries near 10^10, so their
        # trace residues wrap mod p.  The counters are checked against the
        # pair-by-pair oracle too: "default" (M = 49) never reduces t mod p
        verts = list(small_portion.graph.labels)[:500]
        if kind == "parametric":
            seeds = tuple(parametric_order3(a, b, s * size)
                          for a in (0, 1) for b in (0, 1) for s in (1, -1))
            verts, _ = generate_portion(GenerationConfig(
                seeds=seeds, family_bound=1, conj_depth=2, target_vertices=300,
                entry_bound=DEFAULT_ENTRY_LIMIT))
        elif kind == "conjugated":
            verts = _conjugated(verts[:300], _e12(size))
        if size is not None:
            assert max(abs(e) for v in verts for e in v.entries) >= size * size
        portion = build_portion_edges(verts)
        want = _literal_edges(portion.graph.labels)  # key-sorted
        assert want and set(portion.graph.edges()) == want
        assert _counters(portion.stats) == oracles.oracle_prefilter_counts(
            [v.entries for v in verts])

    @pytest.mark.parametrize("conj, maxabs, reduced", [
        ((1, -14, -11, 0, 1, 0, 0, 0, 1), 1365, False),
        ((1, 13, 13, 0, 1, 2, 0, 0, 1), 1366, True)], ids=["M1365", "M1366"])
    def test_t_is_reduced_only_above_the_entry_bound(self, conj, maxabs, reduced,
                                                     small_portion, monkeypatch):
        # |t| <= 9 M^2 <= p // 2 up to M = 1365, and there reducing t mod p
        # changes nothing, so the pass skips it.  The two unitriangular
        # conjugators, found by a search over |s|, |r| <= 16 and |q| <= 3 in
        # (1, s, r, 0, 1, q, 0, 0, 1), put the largest entry of 300 default
        # vertices on either side of the bound
        verts = _conjugated(list(small_portion.graph.labels)[:300], conj)
        reduce_float = generation._reduce_float
        reduced_ndims = []

        def spy(x):
            reduced_ndims.append(x.ndim)
            return reduce_float(x)

        monkeypatch.setattr(generation, "_reduce_float", spy)
        built = build_portion_edges(verts)
        assert built.stats.max_abs_entry == maxabs
        # t is reduced as 2-d blocks, s as the 1-d gathered candidates
        assert 1 in reduced_ndims and (2 in reduced_ndims) == reduced
        assert set(built.graph.edges()) == _literal_edges(built.graph.labels)
        assert _counters(built.stats) == oracles.oracle_prefilter_counts(
            [v.entries for v in verts])

    @pytest.mark.parametrize("budget", [7, 1 << 21])
    def test_block_budget_changes_no_edge_or_counter(self, budget, small_portion,
                                                     monkeypatch):
        # 7 entries make most blocks a single row, and 1 << 21 puts each
        # class's rows in one block
        default = list(small_portion.graph.labels)[:500]
        vertex_sets = [default, _conjugated(default[:300], _e12(10 ** 4))]
        want = [build_portion_edges(verts) for verts in vertex_sets]
        monkeypatch.setattr(generation, "_BLOCK_ENTRIES", budget)
        for verts, portion in zip(vertex_sets, want):
            got = build_portion_edges(verts)
            assert got.graph.edges() == portion.graph.edges()
            assert asdict(got.stats) == asdict(portion.stats)

    def test_prefilter_statistics_recorded(self, small_portion):
        stats = small_portion.stats
        g = small_portion.graph
        assert stats.pairs_total == g.n * (g.n - 1) // 2
        assert 0 < stats.prefilter_candidates <= stats.pairs_evaluated < stats.pairs_total
        assert stats.edges_found == g.edge_count
        # evaluated pairs are exactly the pairs over adjacent SL3(2) vertices
        codomain = mod_p_codomain(2)
        sizes = [0] * codomain.n
        for v in g.labels:
            sizes[codomain.vertex_of(ModMatrix(tuple(e % 2 for e in v.entries), 2))] += 1
        assert stats.pairs_evaluated == sum(sizes[a] * sizes[b]
                                            for a, b in codomain.edges())


class TestMod2Classes:
    def test_class_table_is_the_sl32_graph(self):
        g = mod_p_codomain(2)
        assert g.n == 56 and g.edge_count == 532
        # the edge pass's class table is the mod-p kernel on 0/1 images;
        # build_delta334 runs the same kernel, so the literal oracle decides
        table = _mod3_pairwise_edges(np.array([v.entries for v in g.labels]), 2)
        assert not table.diagonal().any()
        for a, x in enumerate(g.labels):
            for b, y in enumerate(g.labels):
                assert table[a, b] == oracles.oracle_product_order_divides_4(x, y)
        assert table.sum() == 2 * g.edge_count


class TestIdentityReduction:
    def test_family_has_no_identity_reduction(self):
        verts = [parametric_order3(a, b, c)
                 for a in range(-1, 2) for b in range(-1, 2) for c in range(-1, 2)]
        for p in VERIFICATION_PRIMES:
            rep = verify_no_identity_reduction(verts, p)
            assert rep.ok and rep.checked == 27

    def test_portion_clean_for_default_primes(self, small_portion):
        for p in VERIFICATION_PRIMES:
            assert verify_no_identity_reduction(small_portion.graph.labels, p).ok

    def test_violations_are_reported(self):
        rep = verify_no_identity_reduction([IntMatrix3.identity()], 2)
        assert not rep.ok and rep.violations == [0]
        # entries congruent to the identity mod 3 only
        m = IntMatrix3((1, 3, 0, 0, 1, 0, 0, 0, 1))
        assert verify_no_identity_reduction([m], 3).violations == [0]
        assert verify_no_identity_reduction([m], 2).ok

    def test_rejects_other_carriers_and_composite_moduli(self):
        with pytest.raises(CarrierMismatchError):
            verify_no_identity_reduction([Permutation((1, 2, 0))], 2)
        with pytest.raises(ValueError):
            verify_no_identity_reduction([IntMatrix3.identity()], 4)


class TestEdgePreservation:
    def test_single_edge_portion(self):
        B = INTRO_ORDER3_SEEDS[0]
        cfg = GenerationConfig(seeds=(B,), conj_depth=0, family_bound=0)
        portion = generate_and_build(cfg)
        rep = verify_edge_preservation(portion, 2)
        assert rep.ok and rep.checked_edges == 1
        assert rep.morphism is not None

    def test_small_portion_fully_preserved(self, small_portion):
        rep = verify_edge_preservation(small_portion, 2)
        assert rep.ok
        assert rep.checked_edges == small_portion.graph.edge_count
        assert not rep.unpreserved_edges
        assert not rep.merged_adjacent_pairs

    def test_empty_portion_vacuous(self):
        empty = build_portion_edges([])
        rep = verify_edge_preservation(empty, 2)
        assert rep.ok and rep.checked_edges == 0


class TestChromaticBounds:
    def test_small_portion_bounds(self, small_portion, codomain_with_coloring):
        codomain, codomain_coloring = codomain_with_coloring
        bounds = portion_chromatic_bounds(
            small_portion, codomain=codomain,
            codomain_coloring=codomain_coloring, color_time_budget=30.0)
        g = small_portion.graph
        assert 1 <= bounds.lower <= bounds.upper <= 8
        assert find_coloring_violation(g, bounds.best_coloring.colors) is None
        if bounds.clique.size >= 3:
            assert bounds.lower >= 3
            assert verify_clique(g, bounds.clique.witness)
        assert bounds.lifted is not None and bounds.lifted.proper
        # the source material conjectures no clique of size > 3; a find is
        # flagged for reporting, not a failure
        assert bounds.clique_discovery == (bounds.clique.size > 3)
        if bounds.exact:
            assert bounds.chi == bounds.lower == bounds.upper
        else:
            assert bounds.chi is None

    def test_non_matrix_labels_raise(self):
        # no silent "no lift": reduction mod 2 needs integer-matrix labels
        with pytest.raises(ValueError, match="IntMatrix3"):
            portion_chromatic_bounds(TriangleGraph(range(3), [(0, 1), (1, 2)]))

    def test_node_budgeted_bounds_are_pinned(self, small_portion, monkeypatch):
        # the own search's nodes and bounds, from before its forward checking
        # moved to bitboards, and the best coloring; the one clique search
        # serves the bounds and the own search
        clique_nodes = toys.spy_clique_nodes(monkeypatch)
        bounds = portion_chromatic_bounds(small_portion, color_time_budget=None,
                                          color_node_budget=20_000)
        assert len(clique_nodes) == 1
        assert (bounds.own.nodes, bounds.own.lower, bounds.own.upper) == (20_000, 3, 5)
        digest = hashlib.sha256(bytes(bounds.best_coloring.colors)).hexdigest()
        assert digest[:16] == "1c741f6a1fc10e29"

    def test_dsatur_matches_oracle_on_a_portion_subgraph(self, small_portion):
        # the first 1,000 vertices: 215 components, 178 of them isolated
        # vertices; saturations grow past stale heap entries throughout
        g = TriangleGraph(range(1000), [(i, j) for i, j in small_portion.graph.edges()
                                        if j < 1000])
        colors = heuristic_chromatic_upper(g, rounds=0).colors
        assert list(colors) == oracles.oracle_dsatur(g)

    def test_core_numbers_match_oracle_on_a_portion_subgraph(self, small_portion):
        # the first 1,000 vertices, as above: cores 0 to 4
        g = TriangleGraph(range(1000), [(i, j) for i, j in small_portion.graph.edges()
                                        if j < 1000])
        assert _core_order(g)[1] == oracles.oracle_core_numbers(g)

    def test_time_budget_covers_the_whole_exact_search(self):
        g = generate_and_build(GenerationConfig(target_vertices=5000)).graph
        start = time.monotonic()
        res = chromatic_number_exact(g, time_budget=1.0)
        assert time.monotonic() - start < 2.0
        assert res.lower <= res.upper
        assert find_coloring_violation(g, res.coloring.colors) is None


class TestCodomain:
    def test_mod2_codomain_is_the_56_vertex_graph(self):
        g = mod_p_codomain(2)
        assert (g.n, g.edge_count) == (56, 532)
        assert not g.loops

    def test_codomain_rejects_composite(self):
        with pytest.raises(ValueError):
            mod_p_codomain(4)
