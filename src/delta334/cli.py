"""Command-line interface: one reproducible job per invocation.

Every JSON output embeds a RunManifest (subcommand, parsed flags, paths,
heuristic seeds, tool version).  Outputs contain no wall-clock data, so a
repeated run with the same manifest writes byte-identical files; the one
caveat is --time-budget, which can cut a search at a machine-dependent
point (node budgets are exact and reproducible).

Exit codes: 0 success, 1 usage or data error, 2 verification failure
(a structural lemma check did not hold).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .cliques import CliqueResult, clique_number, verify_clique
from .coloring import (ITERATED_GREEDY_SEED, ChromaticResult, chromatic_bounds,
                       chromatic_number_exact, find_coloring_violation,
                       heuristic_chromatic_upper)
from .cycles import (ABSENT, FOUND, POSA_SEED, census_to_json, cycle_census,
                     hamiltonian_cycle, verify_cycle)
from .elements import IntMatrix3, element_label, is_prime, serialize_element
from .generation import (DEFAULT_COLOR_TIME_BUDGET, DEFAULT_CONJ_DEPTH,
                         DEFAULT_ENTRY_BOUND, DEFAULT_FAMILY_BOUND,
                         DEFAULT_TARGET_VERTICES,
                         VERIFICATION_PRIMES, GenerationConfig,
                         generate_and_build, load_seeds_file, mod_p_codomain,
                         portion_chromatic_bounds, verify_edge_preservation,
                         verify_no_identity_reduction)
from .graph import (build_delta334, graph_isomorphic, kronecker_matches_direct_sum,
                    kronecker_product)
from .graphio import (GraphFormatError, canonical_json, graph_to_dot, graph_to_graphml,
                      graph_to_json_dict, load_graph)
from .groups import parse_group_spec, order3_vertices
from .invariants import (InvariantReport, PlanarityEvidence, full_report,
                         nonplanarity_check)

TOOL_VERSION = "1.0.0"

# Fixed seeds of the randomized heuristics (iterated-greedy coloring and
# rotation-extension cycle search).  Recorded in every manifest.
HEURISTIC_SEEDS = {"coloring": ITERATED_GREEDY_SEED, "cycles": POSA_SEED}

ENV_TIME_BUDGET = "DELTA334_TIME_BUDGET"
ENV_NODE_BUDGET = "DELTA334_NODE_BUDGET"


class CLIError(Exception):
    """Usage or data error: exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the tool reserves 2 for lemma
    # failures, so route usage problems through CLIError instead.
    def error(self, message):
        raise CLIError(message)


def _number(convert, kind: str, ok, rule: str):
    """An argparse type: `convert` the text, then require `ok(value)`."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {kind}: {text!r}")
        if not ok(value):
            raise argparse.ArgumentTypeError(rule)
        return value
    return parse


_positive_int = _number(int, "an integer", lambda v: v > 0, "must be positive")
_nonnegative_int = _number(int, "an integer", lambda v: v >= 0, "must be >= 0")
_positive_float = _number(float, "a number", lambda v: v > 0, "must be positive")


def _manifest(args: argparse.Namespace, inputs: list[str]) -> dict:
    flags = {k: v for k, v in vars(args).items()
             if k not in ("func", "subcommand")}
    return {
        "subcommand": args.subcommand,
        "flags": flags,
        "inputs": list(inputs),
        "outputs": [args.out] if args.out else [],
        "seeds": dict(HEURISTIC_SEEDS),
        "tool_version": TOOL_VERSION,
    }


def _emit(doc: dict, out_path: str | None, summary: list[str]) -> None:
    """JSON to --out (summary on stdout), or JSON to stdout (summary on stderr)."""
    text = canonical_json(doc)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for line in summary:
            print(line)
        print(f"wrote {out_path}")
    else:
        for line in summary:
            print(line, file=sys.stderr)
        sys.stdout.write(text)


def _apply_env_budgets(args: argparse.Namespace) -> None:
    """Env vars override the built-in defaults, never an explicit flag."""
    for flag, var, parse in (("time_budget", ENV_TIME_BUDGET, _positive_float),
                             ("node_budget", ENV_NODE_BUDGET, _positive_int)):
        raw = os.environ.get(var)
        if raw and getattr(args, flag, "absent") is None:
            try:
                setattr(args, flag, parse(raw))
            except argparse.ArgumentTypeError as exc:
                raise CLIError(f"{var}={raw!r}: {exc}")


def _load(path: str):
    try:
        return load_graph(path)
    except FileNotFoundError:
        raise CLIError(f"no such file: {path}")


# ---------------------------------------------------------------- commands

def cmd_enumerate(args) -> int:
    spec = parse_group_spec(args.group)
    verts = order3_vertices(spec, include_identity=args.include_identity)
    payload = {
        "group": str(spec),
        "group_order": spec.order(),
        "include_identity": args.include_identity,
        "vertex_count": len(verts),
        "elements": [{"label": element_label(v), "value": serialize_element(v)}
                     for v in verts],
    }
    doc = {"manifest": _manifest(args, []), **payload}
    _emit(doc, args.out, [
        f"group {spec}: order {spec.order()}, "
        f"{len(verts)} vertices with a^3 = e"
        + (" (identity included)" if args.include_identity else ""),
    ])
    return 0


def cmd_graph(args) -> int:
    spec = parse_group_spec(args.group)
    verts = order3_vertices(spec, include_identity=args.include_identity)
    graph = build_delta334(verts, meta={"source": str(spec)})
    doc = graph_to_json_dict(graph)
    doc["manifest"] = _manifest(args, [])
    _emit(doc, args.out, [
        f"built graph for {spec}: {graph.n} vertices, {graph.edge_count} edges, "
        f"{len(graph.loops)} loops",
    ])
    return 0


def _chi_line(res: ChromaticResult) -> str:
    if res.exact:
        return f"chromatic number: {res.chi} (certified)"
    return f"chromatic bounds: [{res.lower}, {res.upper}]"


def _clique_line(res: CliqueResult) -> str:
    return f"clique number: {res.size} ({'exact' if res.exact else 'lower bound'})"


def _planarity_line(evidence: PlanarityEvidence) -> str:
    return f"planarity: {evidence.status} ({evidence.reason or evidence.detail})"


def _report_summary(rep: InvariantReport) -> list[str]:
    lines = [
        f"vertices {rep.vertex_count}  edges {rep.edge_count}  loops {rep.loop_count}",
        "degree histogram: " + ", ".join(
            f"{d}x{c}" for d, c in sorted(rep.degree_histogram.items())),
        f"components: {len(rep.component_sizes)} "
        f"(sizes {rep.component_sizes[:8]}{'...' if len(rep.component_sizes) > 8 else ''})",
    ]
    if rep.bipartite.bipartite:
        sizes = [len(p) for p in rep.bipartite.parts]
        lines.append(f"bipartite: yes (part sizes {sizes})")
    else:
        w = rep.bipartite.odd_cycle
        lines.append(f"bipartite: no (odd cycle of length {len(w)})")
    lines.append(f"girth: {rep.girth}")
    if rep.clique is not None:
        lines.append(_clique_line(rep.clique))
    if rep.chromatic is not None:
        lines.append(_chi_line(rep.chromatic))
    if rep.census is not None:
        lines.extend(_census_lines(rep.census))
    if rep.hamilton is not None:
        lines.append(f"hamiltonian: {rep.hamilton.status}")
    if rep.planarity is not None:
        lines.append(_planarity_line(rep.planarity))
    return lines


def _census_lines(census: dict) -> list[str]:
    """Summary lines of a cycle census: lengths found, absent, unresolved."""
    found = sorted(L for L, e in census.items() if e.status == FOUND)
    absent = sorted(L for L, e in census.items() if e.status == ABSENT)
    open_ = sorted(L for L, e in census.items() if e.status not in (FOUND, ABSENT))
    lines = [f"cycle lengths found: {_ranges(found)}"]
    if absent:
        lines.append(f"cycle lengths absent: {_ranges(absent)}")
    if open_:
        lines.append(f"cycle lengths unresolved: {_ranges(open_)}")
    return lines


def _ranges(values: list[int]) -> str:
    """Compact run-length text for a sorted integer list: '3-10, 12'."""
    if not values:
        return "none"
    runs = []
    start = prev = values[0]
    for v in values[1:]:
        if v == prev + 1:
            prev = v
            continue
        runs.append((start, prev))
        start = prev = v
    runs.append((start, prev))
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs)


def cmd_stats(args) -> int:
    graph = _load(args.input)
    rep = full_report(
        graph,
        exact_chromatic=args.exact_chromatic,
        with_census=args.census,
        with_hamilton=args.hamilton,
        with_planarity=not args.no_planarity,
        node_budget=args.node_budget,
        time_budget=args.time_budget,
    )
    doc = {
        "manifest": _manifest(args, [args.input]),
        "report": rep.to_json_dict(),
    }
    _emit(doc, args.out, _report_summary(rep))
    return 0


def cmd_color(args) -> int:
    graph = _load(args.input)
    if graph.loops:
        raise CLIError("graph has loops; no proper coloring exists")
    if args.exact:
        res = chromatic_number_exact(graph, time_budget=args.time_budget,
                                     node_budget=args.node_budget)
    else:
        res = chromatic_bounds(graph, clique_number(graph, node_budget=args.node_budget),
                               colorings=(heuristic_chromatic_upper(graph),))
    coloring = res.coloring
    if coloring is not None:
        violation = find_coloring_violation(graph, coloring.colors)
        if violation is not None:
            raise AssertionError(f"solver returned an improper coloring: {violation}")
    doc = {"manifest": _manifest(args, [args.input]), **res.to_json_dict(),
           "num_colors": coloring.num_colors if coloring else None}
    _emit(doc, args.out, [_chi_line(res)])
    return 0


def cmd_clique(args) -> int:
    graph = _load(args.input)
    result = clique_number(graph, node_budget=args.node_budget)
    if result.witness and not verify_clique(graph, result.witness):
        raise AssertionError("clique witness failed verification")
    doc = {"manifest": _manifest(args, [args.input]), **asdict(result),
           "witness_labels": [element_label(graph.labels[v]) for v in result.witness]}
    _emit(doc, args.out, [_clique_line(result)])
    return 0


def cmd_cycles(args) -> int:
    graph = _load(args.input)
    census = cycle_census(graph, min_len=args.min_length, max_len=args.max_length,
                          node_budget=args.node_budget)
    doc = {"manifest": _manifest(args, [args.input]), "census": census_to_json(census)}
    _emit(doc, args.out, _census_lines(census))
    return 0


def cmd_hamilton(args) -> int:
    graph = _load(args.input)
    result = hamiltonian_cycle(graph, node_budget=args.node_budget)
    if result.cycle and not verify_cycle(graph, result.cycle):
        raise AssertionError("hamiltonian cycle failed verification")
    doc = {"manifest": _manifest(args, [args.input]), **asdict(result)}
    _emit(doc, args.out, [f"hamiltonian cycle: {result.status}"])
    return 0


def cmd_kronecker(args) -> int:
    lspec = parse_group_spec(args.left)
    rspec = parse_group_spec(args.right)
    lg = build_delta334(order3_vertices(lspec, include_identity=True),
                        meta={"source": str(lspec)})
    rg = build_delta334(order3_vertices(rspec, include_identity=True),
                        meta={"source": str(rspec)})
    product = kronecker_product(lg, rg)
    sum_spec = parse_group_spec(f"sum({lspec},{rspec})")
    direct = build_delta334(order3_vertices(sum_spec, include_identity=True),
                            meta={"source": str(sum_spec)})
    ok, reason = kronecker_matches_direct_sum(product, direct)
    doc = graph_to_json_dict(product)
    doc["manifest"] = _manifest(args, [])
    doc["product_lemma"] = {"holds": ok, "reason": reason,
                            "direct_sum_group": str(sum_spec)}
    summary = [
        f"product graph: {product.n} vertices, {product.edge_count} edges, "
        f"{len(product.loops)} loops",
        (f"product lemma holds: tensor product equals graph of {sum_spec}"
         if ok else f"PRODUCT LEMMA FAILED: {reason}"),
    ]
    _emit(doc, args.out, summary)
    return 0 if ok else 2


def cmd_iso(args) -> int:
    g1 = _load(args.left)
    g2 = _load(args.right)
    mapping = graph_isomorphic(g1, g2)
    if mapping is not None:
        # re-verified independently of the search: a bijection onto g2's
        # vertices that maps edges onto edges and loops onto loops
        if (len(mapping) != g1.n or sorted(mapping) != list(range(g2.n))
                or g1.edge_count != g2.edge_count
                or not all(g2.has_edge(mapping[i], mapping[j]) for i, j in g1.edges())
                or {mapping[v] for v in g1.loops} != g2.loops):
            raise AssertionError("isomorphism witness failed verification")
    payload = {
        "isomorphic": mapping is not None,
        "mapping": list(mapping) if mapping is not None else None,
    }
    doc = {"manifest": _manifest(args, [args.left, args.right]), **payload}
    _emit(doc, args.out, ["isomorphic: " + ("yes" if mapping is not None else "no")])
    return 0


def cmd_gen_sl3z(args) -> int:
    seeds = load_seeds_file(args.seeds) if args.seeds else None
    cfg = GenerationConfig(
        seeds=seeds,
        conj_depth=args.depth,
        entry_bound=args.entry_bound,
        target_vertices=args.target,
        family_bound=args.family_bound,
    )
    portion = generate_and_build(cfg)
    graph = portion.graph
    doc = graph_to_json_dict(graph)
    doc["manifest"] = _manifest(args, [args.seeds] if args.seeds else [])
    stats = portion.stats
    _emit(doc, args.out, [
        f"portion: {graph.n} vertices, {graph.edge_count} edges",
        f"frontier sizes: {stats.frontier_sizes}",
        f"max |entry| {stats.max_abs_entry}; "
        f"{stats.pairs_evaluated} of {stats.pairs_total} pairs lie in adjacent "
        f"mod-2 classes, {stats.prefilter_candidates} of them passed the trace "
        f"prefilter, {stats.exact_checks} needed a power test",
    ])
    return 0


def cmd_verify(args) -> int:
    graph = _load(args.portion)
    if not graph.n or not all(isinstance(lab, IntMatrix3) for lab in graph.labels):
        raise CLIError("portion file must contain integer-matrix vertices")
    primes = args.mod if args.mod else list(VERIFICATION_PRIMES)
    for p in primes:
        if not is_prime(p):
            raise CLIError(f"--mod {p}: reduction modulus must be prime")
    summary = []
    failed = False

    idred = {}
    for p in primes:
        rep = verify_no_identity_reduction(graph.labels, p)
        idred[str(p)] = {"checked": rep.checked, "violations": rep.violations,
                         "ok": rep.ok}
        state = "OK" if rep.ok else f"FAILED ({len(rep.violations)} violations)"
        summary.append(f"identity-reduction mod {p}: {state} "
                       f"({rep.checked} vertices)")
        failed = failed or not rep.ok

    edge_doc = bounds_doc = None
    if 2 in primes:
        codomain = mod_p_codomain(2)
        edge_rep = verify_edge_preservation(graph, 2, codomain)
        edge_doc = edge_rep.to_json_dict()
        state = "OK" if edge_rep.ok else "FAILED"
        summary.append(f"edge preservation mod 2: {state} "
                       f"({edge_rep.checked_edges} edges)")
        failed = failed or not edge_rep.ok

        if not args.skip_probes:
            bounds = portion_chromatic_bounds(
                graph, codomain=codomain, color_node_budget=args.node_budget,
                color_time_budget=args.time_budget or DEFAULT_COLOR_TIME_BUDGET)
            bounds_doc = bounds.to_json_dict()
            lifted = bounds.lifted  # None when reduction mod 2 is not a morphism
            summary.append("lifted mod-2 coloring proper: "
                           + (f"OK ({lifted.num_colors} colors)" if lifted else "FAILED"))
            failed = failed or lifted is None
            summary.extend([_chi_line(bounds), _clique_line(bounds.clique)])
            if bounds.clique_discovery:
                summary.append("NOTE: clique of size > 3 found; this portion "
                               "contradicts the no-large-clique conjecture")

    planarity_doc = None
    if not args.skip_probes:
        evidence = nonplanarity_check(graph)
        planarity_doc = asdict(evidence)
        summary.append(_planarity_line(evidence))

    payload = {
        "portion_vertices": graph.n,
        "portion_edges": graph.edge_count,
        "primes": primes,
        "identity_reduction": idred,
        "edge_preservation": edge_doc,
        "chromatic": bounds_doc,
        "planarity": planarity_doc,
        "all_lemmas_ok": not failed,
    }
    doc = {"manifest": _manifest(args, [args.portion]), **payload}
    summary.append("all lemma checks passed" if not failed
                   else "LEMMA VERIFICATION FAILED")
    _emit(doc, args.out, summary)
    return 0 if not failed else 2


def cmd_export(args) -> int:
    graph = _load(args.input)
    manifest = _manifest(args, [args.input])
    # XML comments cannot contain "--"; the \u escape decodes back to the
    # same JSON value while keeping the raw comment text clean.
    line = json.dumps(manifest, sort_keys=True).replace("--", "\\u002d\\u002d")
    if args.format == "dot":
        text = f"// manifest: {line}\n" + graph_to_dot(graph)
    else:
        body = graph_to_graphml(graph)
        head, _, rest = body.partition("\n")
        text = f"{head}\n<!-- manifest: {line} -->\n{rest}"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({args.format}, {graph.n} vertices)")
    else:
        sys.stdout.write(text)
    return 0


# ----------------------------------------------------------------- parser

def _add_out(p):
    p.add_argument("--out", help="write JSON here (default: stdout)")


def _add_budgets(p, time=True, node=True):
    if time:
        p.add_argument("--time-budget", type=_positive_float, default=None,
                       metavar="SECONDS",
                       help="wall-clock cap for exact searches "
                            f"(default: none; env {ENV_TIME_BUDGET})")
    if node:
        p.add_argument("--node-budget", type=_positive_int, default=None,
                       metavar="N",
                       help="search-node cap "
                            f"(default: per-solver; env {ENV_NODE_BUDGET})")


def build_parser() -> _Parser:
    parser = _Parser(prog="delta334",
                     description="Construct and verify 334-triangle graphs.")
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("enumerate", help="list the a^3 = e vertices of a group")
    p.add_argument("--group", required=True, metavar="SPEC",
                   help="e.g. S4, A5, SL3(2), Z9, sum(S4,Z3)")
    p.add_argument("--include-identity", action="store_true")
    _add_out(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("graph", help="build the triangle graph of a group")
    p.add_argument("--group", required=True, metavar="SPEC")
    p.add_argument("--include-identity", action="store_true")
    _add_out(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("stats", help="full invariant report for a graph file")
    p.add_argument("--in", dest="input", required=True, metavar="GRAPH.json")
    p.add_argument("--exact-chromatic", action="store_true",
                   help="run the exact chromatic search (default: bounds only)")
    p.add_argument("--census", action="store_true", help="cycle-length census")
    p.add_argument("--hamilton", action="store_true", help="hamiltonian search")
    p.add_argument("--no-planarity", action="store_true")
    _add_budgets(p)
    _add_out(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("color", help="chromatic number or bounds with witness")
    p.add_argument("--in", dest="input", required=True, metavar="GRAPH.json")
    p.add_argument("--exact", action="store_true",
                   help="certified chromatic number (default: bounds)")
    _add_budgets(p)
    _add_out(p)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("clique", help="maximum clique with witness")
    p.add_argument("--in", dest="input", required=True, metavar="GRAPH.json")
    _add_budgets(p, time=False)
    _add_out(p)
    p.set_defaults(func=cmd_clique)

    p = sub.add_parser("cycles", help="cycle-length census with witnesses")
    p.add_argument("--in", dest="input", required=True, metavar="GRAPH.json")
    p.add_argument("--min-length", type=_positive_int, default=3, metavar="L")
    p.add_argument("--max-length", type=_positive_int, default=None, metavar="L")
    _add_budgets(p, time=False)
    _add_out(p)
    p.set_defaults(func=cmd_cycles)

    p = sub.add_parser("hamilton", help="hamiltonian cycle search")
    p.add_argument("--in", dest="input", required=True, metavar="GRAPH.json")
    _add_budgets(p, time=False)
    _add_out(p)
    p.set_defaults(func=cmd_hamilton)

    p = sub.add_parser("kronecker",
                       help="tensor product of two group graphs; checks the "
                            "direct-sum product lemma")
    p.add_argument("--left", required=True, metavar="SPEC")
    p.add_argument("--right", required=True, metavar="SPEC")
    _add_out(p)
    p.set_defaults(func=cmd_kronecker)

    p = sub.add_parser("iso", help="isomorphism test with explicit mapping")
    p.add_argument("--left", required=True, metavar="GRAPH.json")
    p.add_argument("--right", required=True, metavar="GRAPH.json")
    _add_out(p)
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("gen-sl3z",
                       help="generate a finite portion of the integer-matrix "
                            "triangle graph")
    p.add_argument("--depth", type=_nonnegative_int, default=DEFAULT_CONJ_DEPTH,
                   help=f"conjugation-closure depth (default {DEFAULT_CONJ_DEPTH})")
    p.add_argument("--entry-bound", type=_positive_int, default=DEFAULT_ENTRY_BOUND,
                   help=f"max |matrix entry| (default {DEFAULT_ENTRY_BOUND})")
    p.add_argument("--target", type=_positive_int, default=DEFAULT_TARGET_VERTICES,
                   help=f"vertex-count cutoff (default {DEFAULT_TARGET_VERTICES})")
    p.add_argument("--family-bound", type=int, default=DEFAULT_FAMILY_BOUND,
                   help="parameter box half-width for the seed family "
                        f"(default {DEFAULT_FAMILY_BOUND})")
    p.add_argument("--seeds", metavar="SEEDS.json",
                   help="JSON list of nine-entry integer matrices to use as seeds")
    _add_out(p)
    p.set_defaults(func=cmd_gen_sl3z)

    p = sub.add_parser("verify",
                       help="run the lemma checks on a generated portion")
    p.add_argument("--portion", required=True, metavar="PORTION.json")
    p.add_argument("--mod", type=_positive_int, action="append", metavar="P",
                   help="prime(s) for the identity-reduction check "
                        f"(default {list(VERIFICATION_PRIMES)}); mod-2 work "
                        "additionally checks edge preservation and the lift")
    p.add_argument("--skip-probes", action="store_true",
                   help="lemma checks only; skip clique, coloring, planarity")
    _add_budgets(p)
    _add_out(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="write DOT or GraphML")
    p.add_argument("--in", dest="input", required=True, metavar="GRAPH.json")
    p.add_argument("--format", required=True, choices=("dot", "graphml"))
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_env_budgets(args)
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GraphFormatError as exc:
        print(f"error: malformed graph file: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
