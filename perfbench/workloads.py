"""The benchmark's three workloads: seeded inputs, one job, output checks.

Each workload has ``setup(seed)`` (everything a job needs that the job does
not measure), ``job(ctx, clock)`` (the timed work, calling the library only
through ``delta334.<name>`` attributes so that the tracer's wrappers are
seen; ``clock.paused()`` leaves the benchmark's own input transformation out)
and ``check(ctx, out)`` (correctness checks, outside the timed region,
partly with the benchmark's own arithmetic).  Seed 0 is the canonical input.

Every search is bounded by a node budget, never a time budget, so the work
done and the answers depend only on the seed and the code.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

import delta334

IDENTITY = (1, 0, 0, 0, 1, 0, 0, 0, 1)
LITERAL_SAMPLE = 2000  # portion edges, and as many non-edges, per job


def mat_mul(a, b, p=None):
    """Row-major 3x3 product in Python integers, optionally reduced mod p."""
    out = tuple(sum(a[3 * r + k] * b[3 * k + c] for k in range(3))
                for r in range(3) for c in range(3))
    return out if p is None else tuple(e % p for e in out)


def literal_adjacent(a, b, p=None) -> bool:
    """(ab)^4 = e by three literal products."""
    z = mat_mul(a, b, p)
    z2 = mat_mul(z, z, p)
    return mat_mul(z2, z2, p) == IDENTITY


def improper_edges(graph, colors) -> int:
    """Edges whose ends share a color, counted edge by edge."""
    return sum(1 for i, j in graph.edges() if colors[i] == colors[j])


def is_clique(graph, vertices) -> bool:
    return all(graph.has_edge(i, j) for i, j in itertools.combinations(vertices, 2))


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def edge_digest(graph) -> str:
    return digest([[delta334.serialize_element(x) for x in graph.labels],
                   list(graph.edges())])


class Checks:
    """Named pass/fail results; every check is counted, none is skipped."""

    def __init__(self):
        self.results: list[tuple[str, bool]] = []

    def __call__(self, name: str, ok):
        self.results.append((name, bool(ok)))


# ---------------------------------------------------------------- groups

def _elementary(i: int, j: int, s: int) -> tuple[int, ...]:
    return tuple(1 if r == c else (s if (r, c) == (i, j) else 0)
                 for r in range(3) for c in range(3))


def _relabeling(seed: int, p: int):
    """A seeded g in SL3(p), as a product of elementary matrices, and its
    inverse."""
    rng = random.Random(f"relabel-{seed}-{p}")
    g = g_inv = IDENTITY
    for _ in range(8):
        i, j = rng.sample(range(3), 2)
        s = rng.choice((1, -1))
        g = mat_mul(g, _elementary(i, j, s), p)
        g_inv = mat_mul(_elementary(i, j, -s), g_inv, p)
    return g, g_inv


def groups_setup(seed: int) -> dict:
    return {"seed": seed}


def _group_graph(ctx: dict, clock, spec: str, p: int):
    """The triangle graph of SL3(p).  For seed != 0 the benchmark relabels
    the key-sorted order-3 elements by x -> g x g^-1, a group automorphism,
    on a paused clock: vertex i keeps its neighbours, so every search does
    the same work and only the labels change with the seed."""
    elems = list(delta334.order3_vertices(delta334.parse_group_spec(spec)))
    if ctx["seed"]:
        with clock.paused():
            g, g_inv = _relabeling(ctx["seed"], p)
            elems = [delta334.ModMatrix(mat_mul(mat_mul(g, x.entries, p), g_inv, p), p)
                     for x in elems]
    return delta334.build_delta334(elems)


def groups_job(ctx: dict, clock) -> dict:
    g2 = _group_graph(ctx, clock, "SL3(2)", 2)
    chi = delta334.chromatic_number_exact(g2)
    clique2 = delta334.clique_number(g2)
    ham = delta334.hamiltonian_cycle(g2)
    census = delta334.cycle_census(g2, 3, 56)
    planar = delta334.nonplanarity_check(g2)
    g3 = _group_graph(ctx, clock, "SL3(3)", 3)
    clique3 = delta334.clique_number(g3)
    heur3 = delta334.heuristic_chromatic_upper(g3, rounds=300)
    return {"g2": g2, "chi": chi, "clique2": clique2, "ham": ham,
            "census": census, "planar": planar, "g3": g3, "clique3": clique3,
            "heur3": heur3}


def groups_summary(out: dict) -> dict:
    chi = out["chi"]
    return {
        "chi_upper": out["heur3"].num_colors,
        "sl32_chi": [chi.lower, chi.upper, chi.exact, chi.certificate, chi.nodes,
                     digest(list(chi.coloring.colors) if chi.coloring else None)],
        "sl32_clique": [out["clique2"].size, list(out["clique2"].witness),
                        out["clique2"].nodes],
        "sl32_ham": [out["ham"].status, digest(list(out["ham"].cycle or ()))],
        "sl32_census": digest({str(k): [e.status, list(e.cycle or ())]
                               for k, e in out["census"].items()}),
        "sl32_planar": [out["planar"].status, out["planar"].reason],
        "sl32_edges": edge_digest(out["g2"]),
        "sl33_edges": edge_digest(out["g3"]),
        "sl33_clique": [out["clique3"].size, list(out["clique3"].witness),
                        out["clique3"].exact, out["clique3"].nodes],
        "sl33_colors": digest(list(out["heur3"].colors)),
    }


def groups_check(ctx: dict, out: dict, check: Checks):
    g2, g3 = out["g2"], out["g3"]
    check("sl32.vertices", g2.n == 56)
    check("sl32.edges", g2.edge_count == 532)
    check("sl32.19-regular", set(g2.degree_histogram()) == {19})
    lits = [v.entries for v in g2.labels]
    check("sl32.edges-literal-mod2", all(
        literal_adjacent(lits[i], lits[j], 2) == g2.has_edge(i, j)
        for i, j in itertools.combinations(range(g2.n), 2)))
    chi = out["chi"]
    check("sl32.chi-8", chi.exact and chi.lower == chi.upper == 8)
    check("sl32.certificate-k7-exhausted",
          chi.certificate.get("infeasible_k") == 7 and chi.certificate.get("exhausted"))
    check("sl32.chi-coloring-proper", chi.coloring is not None
          and improper_edges(g2, chi.coloring.colors) == 0
          and len(set(chi.coloring.colors)) == 8)
    c2 = out["clique2"]
    check("sl32.omega-5", c2.exact and c2.size == 5 and is_clique(g2, c2.witness))
    cyc = out["ham"].cycle or ()
    check("sl32.hamiltonian", out["ham"].status == "found" and len(set(cyc)) == g2.n == len(cyc)
          and all(g2.has_edge(cyc[k], cyc[(k + 1) % len(cyc)]) for k in range(len(cyc))))
    census_ok = sorted(out["census"]) == list(range(3, 57))
    for length, entry in out["census"].items():
        c = entry.cycle or ()
        census_ok = census_ok and entry.status == "found" and len(c) == length \
            and len(set(c)) == length \
            and all(g2.has_edge(c[k], c[(k + 1) % length]) for k in range(length))
    check("sl32.cycles-3-to-56", census_ok)
    check("sl32.nonplanar-edge-count", out["planar"].status == "nonplanar"
          and out["planar"].reason == "edge-count" and g2.edge_count > 3 * g2.n - 6)

    check("sl33.vertices", g3.n == 728)
    check("sl33.edges", g3.edge_count == 43_888)
    check("sl33.degrees", set(g3.degree_histogram()) == {118, 136})
    rng = random.Random(f"sl33-literal-{ctx['seed']}")
    lits3 = [v.entries for v in g3.labels]
    pairs = [tuple(rng.sample(range(g3.n), 2)) for _ in range(LITERAL_SAMPLE)]
    check("sl33.edges-literal-mod3-sample", all(
        literal_adjacent(lits3[i], lits3[j], 3) == g3.has_edge(i, j) for i, j in pairs))
    c3 = out["clique3"]
    check("sl33.omega-6", c3.exact and c3.size == 6 and is_clique(g3, c3.witness))
    h3 = out["heur3"]
    check("sl33.heuristic-coloring-proper", h3.proper
          and improper_edges(g3, h3.colors) == 0
          and len(set(h3.colors)) == h3.num_colors)


# -------------------------------------------------------------- portions

def _signed_permutations() -> list[tuple[int, ...]]:
    """One signed permutation matrix per conjugation map (P and -P conjugate
    alike, so the first row's sign is fixed), the identity left out."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=2):
            entries = [0] * 9
            for row, sign in zip(range(3), (1, *signs)):
                entries[3 * row + perm[row]] = sign
            if tuple(entries) != IDENTITY:
                out.append(tuple(entries))
    return out


def portion_setup(seed: int, target: int) -> dict:
    """The generation config and the seed's conjugator, plus the mod-2
    codomain and its 8-coloring found the way ``delta334 verify`` finds it."""
    codomain = delta334.mod_p_codomain(2)
    coloring = delta334.heuristic_chromatic_upper(codomain, rounds=2000)
    conjugator = random.Random(seed).choice(_signed_permutations()) if seed else None
    return {"seed": seed, "target": target,
            "cfg": delta334.GenerationConfig(target_vertices=target),
            "conjugator": conjugator,
            "codomain": codomain, "codomain_coloring": coloring}


def _build_portion(ctx: dict, clock):
    """``generate_and_build`` in its two steps.  For seed != 0 the benchmark
    conjugates the generated vertices by the seed's signed permutation P
    between them, on a paused clock: A -> P A P^-1 is an isomorphism of the
    triangle graph that keeps every entry's magnitude, so the edge pass and
    the searches see the canonical portion in another vertex order."""
    vertices, stats = delta334.generate_portion(ctx["cfg"])
    p = ctx["conjugator"]
    if p is not None:
        with clock.paused():
            p_inv = tuple(p[3 * c + r] for r in range(3) for c in range(3))
            vertices = [delta334.IntMatrix3(mat_mul(mat_mul(p, v.entries), p_inv))
                        for v in vertices]
    return delta334.build_portion_edges(vertices, ctx["cfg"], stats, validate=False)


def lemmas_job(ctx: dict, clock) -> dict:
    portion = _build_portion(ctx, clock)
    text = delta334.dumps_graph(portion.graph)
    graph = delta334.graph_from_json_dict(json.loads(text))
    idred = [delta334.verify_no_identity_reduction(graph.labels, p) for p in (2, 3, 5)]
    edge_rep = delta334.verify_edge_preservation(graph, 2, ctx["codomain"])
    lifted = delta334.lift_coloring(edge_rep.morphism, ctx["codomain_coloring"])
    clique = delta334.clique_number(graph)
    refined = delta334.improve_coloring(graph, lifted, rounds=60)
    planar = delta334.nonplanarity_check(graph)
    return {"portion": portion, "graph": graph, "bytes": len(text), "idred": idred,
            "edge_rep": edge_rep, "lifted": lifted, "clique": clique,
            "refined": refined, "planar": planar}


def bounds_job(ctx: dict, clock) -> dict:
    portion = _build_portion(ctx, clock)
    bounds = delta334.portion_chromatic_bounds(
        portion, codomain=ctx["codomain"], codomain_coloring=ctx["codomain_coloring"],
        color_time_budget=None, color_node_budget=20_000)
    return {"portion": portion, "graph": portion.graph, "bounds": bounds}


def _stats_summary(portion) -> dict:
    st = portion.stats
    return {"edges": edge_digest(portion.graph), "max_abs_entry": st.max_abs_entry,
            "pairs": st.pairs_total, "prefilter_candidates": st.prefilter_candidates,
            "exact_checks": st.exact_checks, "edge_count": st.edges_found}


def lemmas_summary(out: dict) -> dict:
    return {
        "chi_upper": out["refined"].num_colors,
        **_stats_summary(out["portion"]),
        "bytes": out["bytes"],
        "idred": [len(r.violations) for r in out["idred"]],
        "edge_preservation": out["edge_rep"].ok,
        "lifted": digest(list(out["lifted"].colors)),
        "clique": [out["clique"].size, list(out["clique"].witness),
                   out["clique"].exact, out["clique"].nodes],
        "refined": digest(list(out["refined"].colors)),
        "planar": [out["planar"].status, out["planar"].reason],
    }


def bounds_summary(out: dict) -> dict:
    b = out["bounds"]
    return {
        "chi_upper": b.upper,
        **_stats_summary(out["portion"]),
        "bounds": [b.lower, b.upper, b.exact, b.own.lower, b.own.upper,
                   b.own.nodes, b.clique.size, list(b.clique.witness)],
        "best": digest(list(b.best_coloring.colors)),
    }


def _check_portion(ctx: dict, out: dict, check: Checks, pinned_edges: int):
    """Every seed gives a graph isomorphic to the canonical portion, so the
    canonical edge count holds for all of them."""
    graph = out["graph"]
    portion = out["portion"]
    seed = ctx["seed"]
    check("portion.vertices", graph.n == ctx["target"])
    check("portion.edges", graph.edge_count == pinned_edges)
    check("portion.stats-edges", portion.stats.edges_found == graph.edge_count)
    lits = [v.entries for v in graph.labels]
    check("portion.order3-no-identity", all(
        mat_mul(a, mat_mul(a, a)) == IDENTITY and a != IDENTITY for a in lits))
    rng = random.Random(f"portion-literal-{seed}")
    edges = graph.edges()
    sample = rng.sample(range(len(edges)), min(LITERAL_SAMPLE, len(edges)))
    check("portion.edges-literal-sample",
          all(literal_adjacent(*(lits[k] for k in edges[e])) for e in sample))
    non_edges = []
    while len(non_edges) < LITERAL_SAMPLE:
        i, j = rng.sample(range(graph.n), 2)
        if not graph.has_edge(i, j):
            non_edges.append((i, j))
    check("portion.non-edges-literal-sample",
          not any(literal_adjacent(lits[i], lits[j]) for i, j in non_edges))
    check("portion.edge-images-mod2-sample", all(
        literal_adjacent(lits[i], lits[j], 2)
        and tuple(e % 2 for e in lits[i]) != tuple(e % 2 for e in lits[j])
        for i, j in (edges[e] for e in sample)))


def lemmas_check(ctx: dict, out: dict, check: Checks):
    _check_portion(ctx, out, check, pinned_edges=225_836)
    graph, portion = out["graph"], out["portion"]
    check("lemmas.round-trip", graph.labels == portion.graph.labels
          and graph.edges() == portion.graph.edges())
    lits = [v.entries for v in graph.labels]
    for p, rep in zip((2, 3, 5), out["idred"]):
        own = sum(1 for a in lits if tuple(e % p for e in a) == IDENTITY)
        check(f"lemmas.identity-reduction-mod{p}", rep.ok and own == 0
              and rep.checked == graph.n)
    check("lemmas.edge-preservation-mod2", out["edge_rep"].ok
          and out["edge_rep"].checked_edges == graph.edge_count)
    lifted = out["lifted"]
    check("lemmas.lift-proper-le8", lifted.proper and improper_edges(graph, lifted.colors) == 0
          and len(set(lifted.colors)) <= 8)
    clique = out["clique"]
    check("lemmas.clique-exact-verified", clique.exact and is_clique(graph, clique.witness)
          and len(clique.witness) == clique.size)
    check("lemmas.omega-3", clique.size == 3)
    refined = out["refined"]
    check("lemmas.refined-proper", refined.proper and improper_edges(graph, refined.colors) == 0
          and len(set(refined.colors)) == refined.num_colors <= lifted.num_colors)
    check("lemmas.nonplanar", out["planar"].status == "nonplanar")


def bounds_check(ctx: dict, out: dict, check: Checks):
    _check_portion(ctx, out, check, pinned_edges=15_134)
    graph, b = out["graph"], out["bounds"]
    check("bounds.order", b.lower <= b.upper <= 8)
    check("bounds.lower-ge3", b.lower >= 3)
    best = b.best_coloring
    check("bounds.best-coloring-verified", best.proper and improper_edges(graph, best.colors) == 0
          and len(set(best.colors)) == best.num_colors == b.upper)
    check("bounds.clique-verified", is_clique(graph, b.clique.witness)
          and len(b.clique.witness) == b.clique.size <= b.lower)
    check("bounds.lift-verified", b.lifted is not None and b.lifted.proper
          and improper_edges(graph, b.lifted.colors) == 0 and b.lifted.num_colors <= 8)
    own = b.own.coloring
    check("bounds.own-coloring-verified", own is not None
          and improper_edges(graph, own.colors) == 0
          and len(set(own.colors)) == b.own.upper)


WORKLOADS = {
    "groups-certify": (groups_setup, groups_job, groups_summary, groups_check),
    "portion-25k-lemmas": (lambda seed: portion_setup(seed, 25_000), lemmas_job,
                           lemmas_summary, lemmas_check),
    "portion-5k-bounds": (lambda seed: portion_setup(seed, 5_000), bounds_job,
                          bounds_summary, bounds_check),
}
