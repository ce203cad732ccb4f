import json
import time

import pytest

from delta334.elements import (DEFAULT_ENTRY_LIMIT, IntMatrix3, compose,
                               element_key, has_order_dividing_3, inverse,
                               parametric_order3, reduce_mod)
from delta334.generation import (
    INTRO_ORDER3_SEEDS,
    VERIFICATION_PRIMES,
    GenerationConfig,
    build_portion_edges,
    default_seeds,
    family_seeds,
    generate_and_build,
    generate_portion,
    load_seeds_file,
    mod_p_codomain,
    portion_chromatic_bounds,
    verify_edge_preservation,
    verify_no_identity_reduction,
)
from delta334.coloring import (chromatic_number_exact, find_coloring_violation,
                               heuristic_chromatic_upper)
from delta334.cliques import verify_clique

import oracles


@pytest.fixture(scope="module")
def small_portion():
    """Depth-2 closure of the default seeds: 5,476 vertices, 16,470 edges."""
    return generate_and_build(GenerationConfig(conj_depth=2))


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
        seeds = default_seeds()
        assert len(seeds) == 31  # 4 intro members + 27 family members
        assert len({element_key(m) for m in seeds}) == 31

    def test_family_bound_zero_disables_family(self):
        assert family_seeds(0) == []
        assert len(default_seeds(0)) == 4

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

    def test_thread_count_does_not_change_edges(self, small_portion):
        verts = list(small_portion.graph.labels)
        again = build_portion_edges(verts, threads=3)
        assert again.graph.edges() == small_portion.graph.edges()

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
        # trace residues wrap mod p
        verts = list(small_portion.graph.labels)[:500]
        if kind == "parametric":
            seeds = tuple(parametric_order3(a, b, s * size)
                          for a in (0, 1) for b in (0, 1) for s in (1, -1))
            verts, _ = generate_portion(GenerationConfig(
                seeds=seeds, family_bound=1, conj_depth=2, target_vertices=300,
                entry_bound=DEFAULT_ENTRY_LIMIT))
        elif kind == "conjugated":
            g = IntMatrix3((1, size, 0, 0, 1, 0, 0, 0, 1))
            verts = [compose(compose(g, v), inverse(g)) for v in verts[:300]]
        if size is not None:
            assert max(v.max_abs_entry() for v in verts) >= size * size
        built = build_portion_edges(verts).graph
        labels = built.labels  # key-sorted
        want = set()
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                if oracles.oracle_product_order_divides_4(labels[i], labels[j]):
                    want.add((i, j))
        assert want and set(built.edges()) == want

    def test_prefilter_statistics_recorded(self, small_portion):
        stats = small_portion.stats
        assert stats.pairs_total > 0
        assert 0 < stats.prefilter_candidates < stats.pairs_total
        assert stats.edges_found == small_portion.graph.edge_count


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
        assert not rep.morphism_report.unpreserved_edges
        assert not rep.morphism_report.merged_adjacent_pairs

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
