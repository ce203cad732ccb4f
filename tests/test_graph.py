import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delta334.elements import (ModMatrix, Permutation, compose, has_order_dividing_3, inverse,
                               mat3_det, parametric_order3, residue_dtype)
from delta334.generation import GenerationConfig, generate_and_build, mod_p_codomain
from delta334.graph import (
    TriangleGraph,
    _mod_p_edge_table,
    build_delta334,
    graph_isomorphic,
    induced_morphism,
    kronecker_matches_direct_sum,
    kronecker_product,
)
from delta334.groups import ElementSet, order3_vertices, parse_group_spec

import oracles
import toys


@st.composite
def looped_graphs(draw, n=None):
    """Graphs on at most six vertices, each vertex looped or not."""
    n = draw(st.integers(0, 6)) if n is None else n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    loops = [v for v in range(n) if draw(st.booleans())]
    return TriangleGraph(range(n), edges, loops)


@st.composite
def edge_lists(draw):
    """(n, edges): pairs of distinct vertices of range(n) in either
    orientation, some repeated, in no particular order."""
    n = draw(st.integers(0, 14))
    if n < 2:
        return n, []
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                          max_size=40))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=10))
    return n, draw(st.permutations(edges))


def is_isomorphism(g, h, mapping):
    """A bijection onto h's vertices mapping edges onto edges, loops onto loops."""
    return (len(mapping) == g.n and sorted(mapping) == list(range(h.n))
            and g.edge_count == h.edge_count
            and all(h.has_edge(mapping[i], mapping[j]) for i, j in g.edges())
            and {mapping[v] for v in g.loops} == h.loops)


def delta(text, include_identity=False):
    spec = parse_group_spec(text)
    return build_delta334(order3_vertices(spec, include_identity),
                          meta={"source": str(spec)})


class TestTriangleGraph:
    def test_rejects_self_edge(self):
        with pytest.raises(ValueError):
            TriangleGraph([0, 1], [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            TriangleGraph([0, 1], [(0, 2)])

    def test_neighbors_sorted_and_dedup(self):
        g = TriangleGraph(range(3), [(2, 0), (0, 1), (1, 0)])
        assert g.neighbors(0) == (1, 2)
        assert g.edge_count == 2

    @given(edge_lists(), st.sampled_from(["tuples", "lists", "generator", "reversed",
                                          "tuple", "array", "int32", "uint64"]))
    @settings(max_examples=200, deadline=None)
    def test_rows_and_edges_match_set_oracle(self, case, form):
        n, edges = case
        given_edges = {
            "tuples": lambda: list(edges),
            "lists": lambda: [list(e) for e in edges],
            "generator": lambda: (e for e in edges),
            "reversed": lambda: [(j, i) for i, j in reversed(edges)],
            "tuple": lambda: tuple(edges),
            "array": lambda: np.array(edges, dtype=np.int64).reshape(-1, 2),
            "int32": lambda: np.array(edges, dtype=np.int32).reshape(-1, 2),
            "uint64": lambda: np.array(edges, dtype=np.uint64).reshape(-1, 2),
        }[form]()
        g = TriangleGraph(range(n), given_edges)
        rows, want_edges = oracles.oracle_adjacency(n, edges)
        assert tuple(g.neighbors(v) for v in range(n)) == rows
        assert g.edges() == want_edges
        assert all(type(v) is int for e in g.edges() for v in e)

    def test_one_int_object_per_vertex(self):
        # fresh int objects on the way in; the rows share one per vertex
        n = 600
        edges = [(int(str(j)), int(str(i))) for i in range(n) for j in (i + 1, i + 7) if j < n]
        g = TriangleGraph(range(n), edges)
        objects = {id(v) for u in range(n) for v in g.neighbors(u)}
        assert len(objects) <= n

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1), (2, 2), (0, 9)], r"^self-edge \(2,2\) must be passed via loops$"),
        ([(0, 1), (0, 9), (2, 2)], r"^edge \(0,9\) out of range for 3 vertices$"),
        ([(1, 0), (-1, 2)], r"^edge \(-1,2\) out of range for 3 vertices$"),
        ([(0, 1), (3, 0)], r"^edge \(3,0\) out of range for 3 vertices$"),
        ([(0, 1), (0, 1, 2)], r"is not a pair"),
        ([(0, 1), (2,)], r"^edge \(2,\) is not a pair$"),
        ([0, 1], r"^edge 0 is not a pair$"),
        ([(True, True)], r"^self-edge \(1,1\) must be passed via loops$"),
        ([(0, 1), (0, 2 ** 64)], r"^edge \(0,18446744073709551616\) out of range for 3 vertices$"),
        ([(-2 ** 63 - 1, 1)], r"^edge \(-9223372036854775809,1\) out of range for 3 vertices$"),
        (np.array([(0, 1), (2 ** 64 - 1, 0)], dtype=np.uint64),
         r"^edge \(18446744073709551615,0\) out of range for 3 vertices$"),
        (np.array([(0, 1), (2, 1), (2, 2)], dtype=np.int32),
         r"^self-edge \(2,2\) must be passed via loops$"),
    ])
    def test_bad_edge_messages(self, edges, message):
        with pytest.raises(ValueError, match=message):
            TriangleGraph(range(3), edges)
        with pytest.raises(ValueError, match=message):
            TriangleGraph(range(3), iter(edges))

    @pytest.mark.parametrize("edges, error, message", [
        ([[0, 1], [2]], ValueError, r"^edge \[2\] is not a pair$"),
        ([[0, 1], [0, 1, 2]], ValueError, r"^edge \[0, 1, 2\] is not a pair$"),
        ([[0, 1], [0.5, 1]], TypeError,
         r"^'float' object cannot be interpreted as an integer$"),
        ([[0, 1], ["0", 1]], TypeError, r"^'str' object cannot be interpreted as an integer$"),
        ([[0, 1], [0, 9]], ValueError, r"^edge \(0,9\) out of range for 3 vertices$"),
        ([[0, 1], [2, 2]], ValueError, r"^self-edge \(2,2\) must be passed via loops$"),
        ([[0, 1], {0: 1, 2: 0}], TypeError, r"^edge ends must have an integer dtype$"),
    ], ids=["ragged", "3-wide", "float", "str", "out-of-range", "self-edge", "dict"])
    def test_edge_list_messages(self, edges, error, message):
        # lists of 2-item lists, as a graph file holds them, take the flat
        # conversion; every message is the one the nested conversion gives
        for form in (edges, tuple(edges), iter(edges)):
            with pytest.raises(error, match=message):
                TriangleGraph(range(3), form)

    @pytest.mark.parametrize("edges", [
        [(0, 1), (0.0, 1)], [(0, 1), ("0", 1)], np.array([(0.0, 1.0)]),
    ])
    def test_non_integer_ends_rejected(self, edges):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            TriangleGraph(range(3), edges)

    @pytest.mark.parametrize("edges", [[(True, False)], np.array([(False, True)])])
    def test_bool_pairs_accepted(self, edges):
        g = TriangleGraph(range(2), edges)
        assert g.edges() == ((0, 1),) and g.neighbors(0) == (1,)
        assert all(type(v) is int for v in (*g.edges()[0], *g.neighbors(0)))

    def test_bad_loop_message(self):
        with pytest.raises(ValueError, match=r"^loop vertex 5 out of range$"):
            TriangleGraph(range(3), [(0, 1)], loops=[5])

    def test_degree_histogram(self):
        assert toys.complete_bipartite(4, 4).degree_histogram() == {4: 8}

    def test_vertex_of_round_trip(self):
        g = delta("S4")
        for v in range(g.n):
            assert g.vertex_of(g.labels[v]) == v


class TestEdgePredicate:
    @pytest.mark.parametrize("text, include_identity", [
        ("S4", False), ("SL2(3)", False), ("A5", False),
        ("SL3(2)", False), ("SL3(2)", True),
    ], ids=["S4", "SL2(3)", "A5", "SL3(2)", "SL3(2)-with-identity"])
    def test_matches_literal_fourth_power(self, text, include_identity):
        # SL3(2) runs the vectorised mod-p kernel, the others the pairwise
        # predicate; both are checked pair by pair against the oracle
        g = delta(text, include_identity)
        verts = g.labels
        for i, x in enumerate(verts):
            assert (i in g.loops) == oracles.oracle_product_order_divides_4(x, x)
            for j in range(i + 1, g.n):
                want = oracles.oracle_product_order_divides_4(x, verts[j])
                assert g.has_edge(i, j) == want

    def test_identity_gets_a_loop(self):
        g = delta("Z3", include_identity=True)
        e = oracles.identity_like(g.labels[0])
        assert g.vertex_of(e) in g.loops


class TestBuild:
    def test_a4_is_k44(self):
        g = delta("A4")
        assert (g.n, g.edge_count) == (8, 16)
        assert g.degree_histogram() == {4: 8}

    def test_rejects_wrong_order_elements(self):
        els = ElementSet([Permutation((1, 0, 2))])  # a transposition
        with pytest.raises(ValueError):
            build_delta334(els)
        # dim-3 mod-p labels are checked on their residue array, which names
        # the first vertex in the set's order that fails: here two of order 2
        els = ElementSet([ModMatrix(ROT, 3), ModMatrix((2, 0, 0, 0, 2, 0, 0, 0, 1), 3),
                          ModMatrix((1, 0, 0, 0, 2, 0, 0, 0, 2), 3)])
        first = next(v for v in els if not has_order_dividing_3(v))
        assert first.entries == (1, 0, 0, 0, 2, 0, 0, 0, 2)
        with pytest.raises(ValueError, match=re.escape(f"vertex {first!r} does not satisfy")):
            build_delta334(els)

    def test_mod3_fast_path_matches_generic(self):
        # SL3(3) is too large for an all-pairs oracle check; spot-check the
        # mod-p kernel's rows against the literal (ab)^4 = e oracle.
        g = mod_p_codomain(3)
        verts = g.labels
        rng = random.Random(7)
        for v in rng.sample(range(g.n), 12):
            nbrs = {w for w in range(g.n) if w != v
                    and oracles.oracle_product_order_divides_4(verts[v], verts[w])}
            assert nbrs == set(g.neighbors(v))

    @pytest.mark.parametrize("p", [2 ** 31 - 1, 4_294_967_291])
    def test_large_modulus_matches_literal_fourth_power(self, p):
        # near 2^32 a residue product sum overflows int64
        rng = random.Random(p)
        rot = ModMatrix((0, 0, 1, 1, 0, 0, 0, 1, 0), p)
        verts = []
        for _ in range(8):
            e = ModMatrix((1, rng.randrange(p), rng.randrange(p),
                           0, 1, rng.randrange(p), 0, 0, 1), p)
            x = compose(compose(e, rot), inverse(e))
            verts += [x, inverse(x)]
        g = build_delta334(ElementSet(verts))
        verts = g.labels
        assert g.edge_count
        for i, x in enumerate(verts):
            for j in range(i + 1, g.n):
                want = oracles.oracle_product_order_divides_4(x, verts[j])
                assert g.has_edge(i, j) == want

    @pytest.mark.parametrize("counts", [(3, 3), (56, 200)])
    def test_mixed_moduli_rejected(self, counts):
        # one modulus per vertex set, at every size
        mixed = [v for text, k in zip(("SL3(2)", "SL3(3)"), counts)
                 for v in list(order3_vertices(parse_group_spec(text)))[:k]]
        with pytest.raises(ValueError, match="mixed moduli"):
            build_delta334(ElementSet(mixed))


def entry_rows(verts):
    return np.array([v.entries for v in verts])


ROT = (0, 1, 0, 0, 0, 1, 1, 0, 0)  # a permutation matrix of order 3


def random_sl3(rng, p):
    """A random element of SL3(Z/pZ): random rows, the first scaled by
    the inverse of the determinant."""
    while True:
        m = [rng.randrange(p) for _ in range(9)]
        det = mat3_det(m) % p
        if det:
            scale = pow(det, p - 2, p)
            return ModMatrix([e * scale for e in m[:3]] + m[3:], p)


def class_pair(p, diagonal, x):
    """(ROT, ROT^-1 P), both of order 3, with P upper triangular: the given
    diagonal (a, b, c), abc = 1, and (x, -x^2 / b, -x) above it.  Those
    entries make tr(ROT^-1 P) and tr adj(ROT^-1 P) vanish.  With a = b, P is
    diagonalisable exactly when x = 0."""
    a, b, c = diagonal
    P = (a, x, -x * x * pow(b, p - 2, p), 0, b, -x, 0, 0, c)
    return ModMatrix(ROT, p), ModMatrix(P[6:] + P[:6], p)  # ROT^-1 P: rows 2, 0, 1


class TestModPKernel:
    @pytest.mark.parametrize("text, p", [("SL3(2)", 2), ("SL3(3)", 3)])
    @pytest.mark.parametrize("include_identity", [False, True], ids=["no-identity", "with-identity"])
    def test_table_matches_batched_products(self, text, p, include_identity):
        res = entry_rows(order3_vertices(parse_group_spec(text), include_identity))
        table = _mod_p_edge_table(res, p)
        assert np.array_equal(table, oracles.oracle_mod_p_edge_table(res, p))
        assert table.diagonal().sum() == include_identity  # the identity's loop

    def test_relabelled_sl33_keeps_its_edges(self):
        # conjugation by g, as perfbench's seeds relabel SL3(3), is an
        # automorphism: vertex i keeps its neighbours
        verts = list(order3_vertices(parse_group_spec("SL3(3)")))
        rng = random.Random(17)
        g = ModMatrix.identity(3)
        for _ in range(8):
            i, j = rng.sample(range(3), 2)
            e = [int(r == c) for r in range(3) for c in range(3)]
            e[3 * i + j] = rng.choice((1, 2))
            g = compose(g, ModMatrix(e, 3))
        g_inv = inverse(g)
        moved = entry_rows([compose(compose(g, x), g_inv) for x in verts])
        assert not np.array_equal(moved, entry_rows(verts))
        table = _mod_p_edge_table(moved, 3)
        assert np.array_equal(table, _mod_p_edge_table(entry_rows(verts), 3))
        assert np.array_equal(table, oracles.oracle_mod_p_edge_table(moved, 3))

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 61, 15_413, 1_012_333_457, 4_294_967_197])
    def test_every_class_matches_literal_fourth_power(self, p):
        # (t, s) = (tr AB, tr adj AB) mod p: (1, 1) is an edge outright, and
        # each fourth root of unity lambda has a checked class.  The moduli
        # = 1 (mod 4) have +-i: 61, 15,413 and 1,012,333,457 are the largest
        # such primes whose residue sums, below 9 (p - 1)^2, fit int16,
        # int32 and int64, and 4,294,967,197 takes Python ints
        rng = random.Random(p)
        roots = [1, p - 1]
        if p % 4 == 1:
            i = next(r for c in range(2, p) for r in [pow(c, (p - 1) // 4, p)]
                     if r * r % p == p - 1)
            roots += [i, p - i]
        pairs = [class_pair(p, (lam, lam, lam * lam % p), x) for lam in roots for x in (0, 1)]
        if p % 4 == 1:
            pairs.append(class_pair(p, (1, i, p - i), 1))
        verts = []
        for a, b in pairs:
            g = random_sl3(rng, p)
            g_inv = inverse(g)
            verts += [compose(compose(g, a), g_inv), compose(compose(g, b), g_inv)]
        for _ in range(24):
            g = random_sl3(rng, p)
            x = compose(compose(g, ModMatrix(ROT, p)), inverse(g))
            verts += [x, inverse(x)]
        assert all(map(has_order_dividing_3, verts))
        table = _mod_p_edge_table(entry_rows(verts), p)
        classes = {(1, 1): "outright"}
        classes.update({((2 * lam + lam * lam) % p, (lam * lam + 2 * lam ** 3) % p): lam
                        for lam in roots})
        seen = {}  # class -> the set of verdicts on its pairs
        for a, x in enumerate(verts):
            for b, y in enumerate(verts):
                want = oracles.oracle_product_order_divides_4(x, y)
                assert table[a, b] == want
                P = oracles.rep_mul(oracles.to_rep(x), oracles.to_rep(y))[3]
                t = (P[0] + P[4] + P[8]) % p
                s = (P[4] * P[8] - P[5] * P[7] + P[0] * P[8] - P[2] * P[6]
                     + P[0] * P[4] - P[1] * P[3]) % p
                seen.setdefault(classes.get((t, s)), set()).add(want)
        assert seen.pop("outright") == {True}
        assert seen.pop(None) == {False}  # no edge outside the classes
        assert seen == {lam: {False, True} for lam in roots}

    @pytest.mark.parametrize("p", [3, 5, 1_012_333_457])
    def test_inverse_lookup_edge_cases(self, p):
        # lambda = 1 is a lookup of each row's inverse among the rows: a
        # repeated row matches at each copy, the identity is its own
        # inverse, and a row whose inverse is absent matches none
        rng = random.Random(p)
        x, y = (compose(compose(g, ModMatrix(ROT, p)), inverse(g))
                for g in (random_sl3(rng, p), random_sl3(rng, p)))
        verts = [x, y, x, inverse(x), ModMatrix.identity(p), inverse(x)]
        rows = entry_rows(verts)
        table = _mod_p_edge_table(rows, p)
        assert np.array_equal(table, oracles.oracle_mod_p_edge_table(rows, p))
        inverse_pairs = {(a, b) for a, u in enumerate(verts) for b, w in enumerate(verts)
                         if compose(u, w).is_identity()}
        assert inverse_pairs == {(0, 3), (0, 5), (2, 3), (2, 5), (3, 0), (3, 2), (5, 0),
                                 (5, 2), (4, 4)}
        assert all(table[a, b] for a, b in inverse_pairs)
        assert np.flatnonzero(table.diagonal()).tolist() == [4]

    @pytest.mark.parametrize("p, dtype", [(2, np.int8), (3, np.int8), (5, np.int16),
                                          (61, np.int16), (67, np.int32), (15_443, np.int32),
                                          (15_451, np.int64), (1_012_333_499, np.int64),
                                          (1_012_333_519, object)])
    def test_dtype_is_the_narrowest_that_holds_nine_products(self, p, dtype):
        assert residue_dtype(p) == dtype
        if dtype is not object:
            assert 9 * (p - 1) ** 2 <= np.iinfo(dtype).max


class TestKronecker:
    @pytest.mark.parametrize("lt, rt", [
        ("Z3", "Z3"), ("Z3", "A4"), ("S4", "Z3"), ("A4", "S4"), ("S4", "S4"),
    ])
    def test_product_lemma(self, lt, rt):
        lg = delta(lt, include_identity=True)
        rg = delta(rt, include_identity=True)
        prod = kronecker_product(lg, rg)
        direct = delta(f"sum({lt},{rt})", include_identity=True)
        ok, reason = kronecker_matches_direct_sum(prod, direct)
        assert ok, reason

    def test_degrees_multiply(self):
        # for loopless factors, deg(i, j) = deg(i) * deg(j)
        g1, g2 = toys.cycle_graph(5), toys.complete_bipartite(2, 3)
        prod = kronecker_product(g1, g2)
        for i in range(g1.n):
            for j in range(g2.n):
                assert prod.degree(i * g2.n + j) == g1.degree(i) * g2.degree(j)

    def test_loop_vertex_copies_other_factor(self):
        single = TriangleGraph(["e"], [], loops=[0])
        g = toys.petersen_graph()
        prod = kronecker_product(single, g)
        assert prod.n == g.n and prod.edge_count == g.edge_count

    def test_identity_dropped_breaks_identification(self):
        lg, rg = delta("Z3"), delta("Z3")
        prod = kronecker_product(lg, rg)
        direct = delta("sum(Z3,Z3)")
        ok, reason = kronecker_matches_direct_sum(prod, direct)
        assert not ok and "vertex counts differ" in reason


class TestInducedMorphism:
    def test_parametric_family_maps_mod_2(self):
        mats = [parametric_order3(a, b, 0) for a in range(2) for b in range(2)]
        mats += [inverse(m) for m in mats]
        dom = build_delta334(ElementSet(mats))
        report = induced_morphism(dom, 2, mod_p_codomain(2))
        assert report.ok
        assert dom.edge_count > 0
        m = report.morphism
        for i, j in dom.edges():
            assert m.codomain.has_edge(m.vertex_map[i], m.vertex_map[j])

    def test_failures_match_edge_by_edge_oracle(self):
        # one codomain vertex and one edge dropped, and a domain vertex's
        # neighbors given its label, so every list of the report fills
        portion = generate_and_build(GenerationConfig(target_vertices=400)).graph
        full = mod_p_codomain(2)
        keep = full.edges()[1:]
        codomain = TriangleGraph(full.labels[:-1], [e for e in keep if e[1] < full.n - 1])
        labels = list(portion.labels)
        u = next(v for v in range(portion.n) if portion.degree(v) >= 2)
        for v in portion.neighbors(u):
            labels[v] = labels[u]
        domain = TriangleGraph(labels, portion.edges())
        report = induced_morphism(domain, 2, codomain)
        want = oracles.oracle_induced_morphism(domain, 2, codomain)
        assert min(map(len, want)) >= 2
        assert (report.missing_vertices, report.unpreserved_edges,
                report.merged_adjacent_pairs) == want
        assert not report.ok and report.morphism is None
        assert report.checked_edges == domain.edge_count

    def test_non_matrix_domain_rejected(self):
        with pytest.raises(ValueError):
            induced_morphism(delta("S4"), 2, mod_p_codomain(2))

    def test_codomain_must_match_the_modulus(self):
        dom = build_delta334(ElementSet([parametric_order3(0, 0, 0)]))
        with pytest.raises(ValueError):
            induced_morphism(dom, 3, mod_p_codomain(2))
        with pytest.raises(ValueError):
            induced_morphism(dom, 2, delta("S4"))
        with pytest.raises(ValueError):
            induced_morphism(dom, 4, mod_p_codomain(2))


class TestIsomorphism:
    def test_finds_mapping_to_k44(self):
        g = delta("A4")
        k44 = toys.complete_bipartite(4, 4)
        mapping = graph_isomorphic(g, k44)
        assert mapping is not None
        assert sorted(mapping) == list(range(8))
        for i, j in g.edges():
            assert k44.has_edge(mapping[i], mapping[j])

    def test_distinguishes_same_degree_sequence(self):
        # C6 and 2xC3 are 2-regular on six vertices but not isomorphic
        c6 = toys.cycle_graph(6)
        c3c3 = toys.disjoint_union(toys.cycle_graph(3), toys.cycle_graph(3))
        assert graph_isomorphic(c6, c3c3) is None

    def test_size_cap(self):
        big = toys.path_graph(101)
        with pytest.raises(ValueError):
            graph_isomorphic(big, big)

    @given(st.integers(4, 8), st.randoms(use_true_random=False))
    def test_relabeling_always_found(self, n, rng):
        g = toys.cycle_graph(n)
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in g.edges()]
        h = TriangleGraph(range(n), edges)
        mapping = graph_isomorphic(g, h)
        assert mapping is not None
        for i, j in g.edges():
            assert h.has_edge(mapping[i], mapping[j])

    @given(st.data())
    def test_relabelled_looped_copy_found(self, data):
        g = data.draw(looped_graphs())
        perm = data.draw(st.permutations(range(g.n)))
        h = TriangleGraph(range(g.n), [(min(perm[i], perm[j]), max(perm[i], perm[j]))
                                       for i, j in g.edges()],
                          [perm[v] for v in g.loops])
        mapping = graph_isomorphic(g, h)
        assert mapping is not None and is_isomorphism(g, h, mapping)

    @given(st.data())
    @settings(max_examples=200)
    def test_verdict_matches_oracle(self, data):
        g = data.draw(looped_graphs())
        h = data.draw(looped_graphs(n=g.n))
        mapping = graph_isomorphic(g, h)
        assert (mapping is None) == (oracles.oracle_isomorphic(g, h) is None)
        assert mapping is None or is_isomorphism(g, h, mapping)

    @pytest.mark.parametrize("left, right, identity", [
        ("S4", "SL2(3)", True),
        ("A5", "SL2(5)", True),
        ("sum(Z3,A4)", "sum(A4,Z3)", True),
        ("sum(Z3,A4)", "sum(A4,Z3)", False),
    ])
    def test_isomorphic_groups(self, left, right, identity):
        # isomorphic groups have isomorphic graphs, the looped identity included
        g, h = delta(left, identity), delta(right, identity)
        mapping = graph_isomorphic(g, h)
        assert mapping is not None and is_isomorphism(g, h, mapping)

    def test_empty_graphs(self):
        assert graph_isomorphic(TriangleGraph([], []), TriangleGraph([], [])) == []

    def test_import_leaves_networkx_unloaded(self):
        # networkx is imported inside the functions that use it, which keeps
        # it out of the memory and start-up time of every other caller
        import delta334
        src = str(Path(delta334.__file__).parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import delta334; "
                "sys.exit('networkx' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0
