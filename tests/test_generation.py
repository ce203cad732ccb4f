import hashlib
import json
import os
import signal
import time
from dataclasses import asdict, replace

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
from delta334.graph import TriangleGraph, _core_order, _mod_p_edge_table
from delta334.graphio import dumps_graph
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


def _parametric_portion(size):
    """300 vertices seeded with members at |c| = size beside the |a|, |b|,
    |c| <= 1 family."""
    seeds = tuple(parametric_order3(a, b, s * size)
                  for a in (0, 1) for b in (0, 1) for s in (1, -1))
    verts, _ = generate_portion(GenerationConfig(
        seeds=seeds, family_bound=1, conj_depth=2, target_vertices=300,
        entry_bound=DEFAULT_ENTRY_LIMIT))
    return verts


# an order-3 seed within the entry limit whose square is past it, while the
# square's int64 products wrap back inside it
WRAPPED_SQUARE_SEED = parametric_order3(22, 0, 2 ** 28)

# the unitriangular conjugator that puts the largest entry of 300 default
# vertices at M = 1366, just past the bound below which t is not reduced
M1366 = (1, 13, 13, 0, 1, 2, 0, 0, 1)


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

    @pytest.mark.parametrize("cfg", [
        GenerationConfig(target_vertices=300),
        GenerationConfig(target_vertices=2_000),
        GenerationConfig(target_vertices=5_000),
        GenerationConfig(target_vertices=25_000),
        GenerationConfig(target_vertices=1_001),  # cut mid-layer, one past the target
        GenerationConfig(conj_depth=4, entry_bound=20, target_vertices=5_000),
        GenerationConfig(family_bound=1, conj_depth=0),
        GenerationConfig(seeds=INTRO_ORDER3_SEEDS[1:3], family_bound=0, conj_depth=3),
        GenerationConfig(seeds=(parametric_order3(1, 2, 3),), family_bound=1,
                         target_vertices=3_000),
        GenerationConfig(seeds=tuple(parametric_order3(a, b, s * 10 ** 9)
                                     for a in (0, 1) for b in (0, 1) for s in (1, -1)),
                         family_bound=1, conj_depth=2, target_vertices=300,
                         entry_bound=DEFAULT_ENTRY_LIMIT),
        GenerationConfig(seeds=(WRAPPED_SQUARE_SEED, parametric_order3(1, 2, 3)),
                         family_bound=1, conj_depth=1, entry_bound=DEFAULT_ENTRY_LIMIT),
    ], ids=["300", "2000", "5000", "25000", "mid-layer", "bound20", "family-depth0",
            "explicit-seeds", "one-seed-family", "parametric-1e9", "wrapped-square"])
    def test_matches_the_scalar_oracle(self, cfg):
        verts, stats = generate_portion(cfg)
        want_verts, want_stats = oracles.oracle_generate_portion(cfg)
        assert [v.entries for v in verts] == [v.entries for v in want_verts]
        assert [element_key(v) for v in verts] == [element_key(v) for v in want_verts]
        assert asdict(stats) == asdict(want_stats)
        assert {k: type(v) for k, v in asdict(stats).items()} == {
            k: type(v) for k, v in asdict(want_stats).items()}

    def test_oracle_configs_reach_their_branches(self):
        # mid-layer: 1,001 falls inside the third layer, and the inverse
        # pairs overshoot it by one; bound 20 rejects; the 10^9 seeds'
        # products pass int64 (48 M^2 >= 2^63), so that layer runs on
        # Python ints
        _, stats = generate_portion(GenerationConfig(target_vertices=1_001))
        assert stats.frontier_sizes == [62, 624, 316]
        _, stats = generate_portion(GenerationConfig(conj_depth=4, entry_bound=20,
                                                     target_vertices=5_000))
        assert stats.entry_bound_rejects > 0
        big = max(abs(e) for a in (0, 1) for b in (0, 1)
                  for e in parametric_order3(a, b, 10 ** 9).entries)
        assert 48 * big ** 2 >= 2 ** 63
        # WRAPPED_SQUARE_SEED's square leaves the bound, but wrapped to
        # int64 it lands back inside: only the Python-int products reject it
        a = np.array(WRAPPED_SQUARE_SEED.entries, np.int64).reshape(3, 3)
        assert np.abs(a @ a).max() <= DEFAULT_ENTRY_LIMIT
        assert np.abs(a.astype(object) @ a.astype(object)).max() > DEFAULT_ENTRY_LIMIT


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
            verts = _parametric_portion(size)
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
        (M1366, 1366, True)], ids=["M1365", "M1366"])
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


# oracles.oracle_prefilter_counts on small_portion's vertices: (pairs
# evaluated, trace candidates, exact checks), pinned because the pair-by-pair
# run takes about 70 s
SMALL_PORTION_ORACLE_COUNTS = (5_300_528, 498_097, 126_366)


def _edge_pass(verts, mp):
    """build_portion_edges on `verts`: the edge array its pass returned, the
    stats as a dict, and the pass's Gram products run in this process."""
    passes, grams = [], []
    edges_with_prefilter, gram, parent = generation._edges_with_prefilter, generation._gram, os.getpid()

    def recorded(*args):
        passes.append(edges_with_prefilter(*args))
        return passes[-1]

    def counted(*args):
        if os.getpid() == parent:
            grams.append(1)
        return gram(*args)

    with mp.context() as m:
        m.setattr(generation, "_edges_with_prefilter", recorded)
        m.setattr(generation, "_gram", counted)
        stats = asdict(build_portion_edges(verts).stats)
    return passes[0][3], stats, len(grams)


@pytest.fixture(scope="module")
def split_inputs(small_portion):
    """name: (vertices, the oracle's counters, the one-process pass's edge
    array, stats and Gram products).  The one-process pass never splits,
    whatever the machine."""
    sets = {"small_portion": (list(small_portion.graph.labels), SMALL_PORTION_ORACLE_COUNTS),
            "c1e9": (_parametric_portion(10 ** 9), None),
            "M1366": (_conjugated(list(small_portion.graph.labels)[:300], M1366), None)}
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generation, "SPLIT_PAIRS", 1 << 62)
        for name, (verts, counts) in sets.items():
            counts = counts or oracles.oracle_prefilter_counts([v.entries for v in verts])
            out[name] = (verts, counts, *_edge_pass(verts, mp))
    return out


def assert_same_pass(got, want, counts):
    edges, stats, _ = got
    want_edges, want_stats, _ = want
    assert edges.dtype == want_edges.dtype and edges.shape == want_edges.shape
    assert (edges == want_edges).all()
    assert stats == want_stats
    assert (stats["pairs_evaluated"], stats["prefilter_candidates"],
            stats["exact_checks"]) == counts


SPLIT_INPUTS = pytest.mark.parametrize("name", ["small_portion", "c1e9", "M1366"])


class TestSplitPass:
    """A pass split into units of class row blocks, run by this process and
    one forked worker, returns the one-process pass's edge array and
    counters, whatever ends the worker, and leaves no worker behind."""

    @pytest.mark.parametrize("cpus", [2, 1], ids=["two-cpus", "one-cpu"])
    @SPLIT_INPUTS
    def test_split_pass_matches_one_process(self, name, cpus, split_inputs, monkeypatch):
        # on one CPU no worker is forked and this process runs every unit
        verts, counts, *want = split_inputs[name]
        monkeypatch.setattr(generation, "SPLIT_PAIRS", 0)
        forked = toys.run_as_on_cpus(monkeypatch, cpus)
        assert_same_pass(_edge_pass(verts, monkeypatch), want, counts)
        assert len(forked) == (1 if cpus == 2 else 0)
        toys.assert_reaped(forked)

    def test_small_passes_stay_in_one_process(self, split_inputs, monkeypatch):
        # the 300-vertex inputs evaluate ~45k pairs, far below SPLIT_PAIRS
        forked = toys.run_as_on_cpus(monkeypatch)
        verts, counts, *want = split_inputs["M1366"]
        assert_same_pass(_edge_pass(verts, monkeypatch), want, counts)
        assert not forked

    @SPLIT_INPUTS
    def test_failed_fork_runs_every_unit_here(self, name, split_inputs, monkeypatch):
        verts, counts, *want = split_inputs[name]
        monkeypatch.setattr(generation, "SPLIT_PAIRS", 0)
        toys.run_as_on_cpus(monkeypatch)

        def fork():
            raise OSError("no process to spare")

        monkeypatch.setattr(os, "fork", fork)
        got = _edge_pass(verts, monkeypatch)
        assert_same_pass(got, want, counts)
        assert got[2] == want[2]

    @SPLIT_INPUTS
    def test_worker_killed_after_its_first_unit_changes_nothing(self, name, split_inputs,
                                                                 monkeypatch):
        # the worker dies in the first Gram product of its second unit; this
        # process runs every unit the worker did not report: all but the
        # first, or all of them if the worker took none
        verts, counts, *want = split_inputs[name]
        monkeypatch.setattr(generation, "SPLIT_PAIRS", 0)
        forked = toys.run_as_on_cpus(monkeypatch)
        parent, gram, worker_grams = os.getpid(), generation._gram, []

        def dies_in_second_unit(*args):
            if os.getpid() != parent:
                worker_grams.append(1)
                if len(worker_grams) > 2:  # two Gram products per unit
                    os.kill(os.getpid(), signal.SIGKILL)
            return gram(*args)

        monkeypatch.setattr(generation, "_gram", dies_in_second_unit)
        got = _edge_pass(verts, monkeypatch)
        assert_same_pass(got, want, counts)
        assert got[2] in (want[2] - 2, want[2])
        assert len(forked) == 1
        toys.assert_reaped(forked)

    @SPLIT_INPUTS
    def test_worker_that_takes_no_unit_is_killed(self, name, split_inputs, monkeypatch):
        # the worker sleeps instead of taking a unit: this process runs them
        # all, then kills it rather than waiting for it
        verts, counts, *want = split_inputs[name]
        monkeypatch.setattr(generation, "SPLIT_PAIRS", 0)
        forked = toys.run_as_on_cpus(monkeypatch)
        parent, take = os.getpid(), generation._take
        monkeypatch.setattr(generation, "_take", lambda *args:
                            time.sleep(60) if os.getpid() != parent else take(*args))
        start = time.monotonic()
        got = _edge_pass(verts, monkeypatch)
        assert time.monotonic() - start < 10
        assert_same_pass(got, want, counts)
        assert got[2] == want[2]
        assert len(forked) == 1
        toys.assert_reaped(forked)

    def test_exception_mid_pass_reaps_the_worker(self, split_inputs, monkeypatch):
        verts = split_inputs["small_portion"][0]
        monkeypatch.setattr(generation, "SPLIT_PAIRS", 0)
        forked = toys.run_as_on_cpus(monkeypatch)
        parent, gram, calls = os.getpid(), generation._gram, []

        def fails_in_second_unit(*args):
            if os.getpid() == parent:
                calls.append(1)
                if len(calls) > 2:  # two Gram products per unit
                    raise RuntimeError("mid-pass")
            return gram(*args)

        monkeypatch.setattr(generation, "_gram", fails_in_second_unit)
        with pytest.raises(RuntimeError, match="mid-pass"):
            build_portion_edges(verts)
        assert len(forked) == 1
        toys.assert_reaped(forked)

    @pytest.mark.parametrize("budget", [None, 7, 1 << 21])
    def test_every_gram_tile_runs_on_the_calling_thread(self, budget, small_portion,
                                                         monkeypatch):
        # OpenBLAS runs a GEMM of fewer than 2^19 multiply-adds on the
        # calling thread; larger ones start BLAS threads, and in two
        # processes at once those oversubscribe two cores (a 25k pass took
        # 2.2-7.3 s so, against 0.8 s).  7 entries make most blocks a single
        # row, and 1 << 21 puts each class's rows in one block.  On one CPU
        # every product runs in this process, where the spy sees it
        if budget:
            monkeypatch.setattr(generation, "_BLOCK_ENTRIES", budget)
        toys.run_as_on_cpus(monkeypatch, 1)
        matmul, tiles = np.matmul, []

        def spy(a, b, *args, **kwargs):
            if a.dtype == np.float64:  # the BLAS products; the rest are int64 or object
                tiles.append((a.shape[0], a.shape[1], b.shape[1]))
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        stats = build_portion_edges(small_portion.graph.labels).stats
        assert _counters(stats) == SMALL_PORTION_ORACLE_COUNTS
        assert stats.edges_found == small_portion.stats.edges_found
        assert all(rows * k * cols < 1 << 19 for rows, k, cols in tiles)
        # the tiles cover the t and the s products of every evaluated pair
        assert sum(rows * cols for rows, _, cols in tiles) == 2 * stats.pairs_evaluated


class TestPortionFile:
    def test_portion_file_matches_json_dumps(self, small_portion):
        # dumps_graph writes the edges from the arc arrays, with no Python
        # object per edge; the plain document gives them as [i, j] lists
        doc = oracles.oracle_graph_json_dict(small_portion.graph)
        assert doc["edges"] == [list(e) for e in small_portion.graph.edges()]
        text = dumps_graph(small_portion.graph)
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"


class TestMod2Classes:
    def test_class_table_is_the_sl32_graph(self):
        g = mod_p_codomain(2)
        assert g.n == 56 and g.edge_count == 532
        # the edge pass's class table is the mod-p kernel on 0/1 images;
        # build_delta334 runs the same kernel, so the literal oracle decides
        table = _mod_p_edge_table(np.array([v.entries for v in g.labels]), 2)
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

    def test_given_reduction_is_checked(self, small_portion):
        codomain = mod_p_codomain(2)
        report = verify_edge_preservation(small_portion, 2, codomain)
        other = replace(report.morphism, domain=codomain)
        for wrong in (replace(report, prime=3), replace(report, morphism=other)):
            with pytest.raises(ValueError, match="mod-2 reduction"):
                portion_chromatic_bounds(small_portion, codomain=codomain, reduction=wrong)

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
