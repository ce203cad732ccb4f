import json
import xml.dom.minidom

import pytest

from delta334 import cli
from delta334.cli import ENV_NODE_BUDGET, ENV_TIME_BUDGET, TOOL_VERSION, main
from delta334.elements import IntMatrix3
from delta334.graph import TriangleGraph
from delta334.graphio import dumps_graph

import toys


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def a4_graph(tmp_path, capsys):
    path = tmp_path / "a4.json"
    code = main(["graph", "--group", "A4", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    return str(path)


class TestBasics:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert TOOL_VERSION in capsys.readouterr().out

    def test_enumerate_to_stdout(self, capsys):
        code, out, err = run(capsys, "enumerate", "--group", "Z3")
        assert code == 0
        doc = json.loads(out)
        assert doc["vertex_count"] == 2
        assert doc["group_order"] == 3
        assert {e["label"] for e in doc["elements"]} == {"(123)", "(132)"}
        assert "2 vertices" in err

    def test_enumerate_include_identity(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--group", "Z3",
                           "--include-identity")
        assert code == 0
        assert json.loads(out)["vertex_count"] == 3

    def test_graph_spec_example(self, tmp_path, capsys):
        out_path = tmp_path / "g.json"
        code, out, _ = run(capsys, "graph", "--group", "SL3(2)",
                           "--out", str(out_path))
        assert code == 0
        assert "56 vertices, 532 edges" in out
        assert f"wrote {out_path}" in out
        doc = json.loads(out_path.read_text())
        assert len(doc["vertices"]) == 56
        assert len(doc["edges"]) == 532

    def test_manifest_embedded(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--group", "A4")
        assert code == 0
        man = json.loads(out)["manifest"]
        assert man["subcommand"] == "enumerate"
        assert man["tool_version"] == TOOL_VERSION
        assert man["seeds"] == {"coloring": 0x334, "cycles": 0xD334}
        assert man["flags"]["group"] == "A4"

    def test_identical_manifest_identical_bytes(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        main(["graph", "--group", "S4", "--out", str(path)])
        first = path.read_bytes()
        main(["graph", "--group", "S4", "--out", str(path)])
        capsys.readouterr()
        assert path.read_bytes() == first


class TestReports:
    def test_stats_with_all_probes(self, a4_graph, capsys):
        code, out, _ = run(capsys, "stats", "--in", a4_graph,
                           "--exact-chromatic", "--census", "--hamilton")
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["vertex_count"] == 8
        assert rep["edge_count"] == 16
        assert rep["chromatic"]["chi"] == 2
        assert rep["cycle_census"]["4"]["status"] == "found"
        assert rep["hamiltonian"]["status"] == "found"
        assert rep["planarity"]["status"] == "nonplanar"  # K44 contains K33

    def test_inconclusive_planarity_line_gives_detail(self, tiny_portion, capsys):
        # one edge is planar: no certificate, so no reason, only a detail
        for cmd, flag in (("stats", "--in"), ("verify", "--portion")):
            code, _, err = run(capsys, cmd, flag, tiny_portion)
            assert code == 0
            assert "planarity: inconclusive (no certificate found)" in err.splitlines()

    def test_color_exact(self, a4_graph, capsys):
        code, out, _ = run(capsys, "color", "--in", a4_graph, "--exact")
        assert code == 0
        doc = json.loads(out)
        assert doc["chi"] == 2 and doc["exact"]
        assert len(doc["coloring"]) == 8

    def test_color_heuristic_bounds(self, a4_graph, capsys):
        code, out, _ = run(capsys, "color", "--in", a4_graph)
        assert code == 0
        doc = json.loads(out)
        assert doc["lower"] <= doc["upper"] == doc["num_colors"]

    def test_color_budget_cut_clique_bounds_chi(self, tmp_path, capsys):
        path = str(tmp_path / "sl33.json")
        assert main(["graph", "--group", "SL3(3)", "--out", path]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "color", "--in", path, "--node-budget", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["lower"] == len(doc["certificate"]["lower_bound_clique"]) == 4

    @pytest.mark.parametrize("argv", [("color",), ("color", "--exact"), ("stats",)],
                             ids=["color", "color-exact", "stats"])
    def test_edge_bounds_chi_below_in_every_mode(self, argv, tmp_path, capsys):
        # one node cuts the clique search before its first edge; an edge
        # still proves chi >= 2, in bounds mode as in exact mode
        path = str(tmp_path / "sl32.json")
        assert main(["graph", "--group", "SL3(2)", "--out", path]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, *argv, "--in", path, "--node-budget", "1")
        assert code == 0
        doc = json.loads(out)
        bounds = doc["report"]["chromatic"] if argv == ("stats",) else doc
        assert (bounds["lower"], bounds["upper"]) == (2, 8)

    def test_clique(self, a4_graph, capsys):
        code, out, _ = run(capsys, "clique", "--in", a4_graph)
        assert code == 0
        doc = json.loads(out)
        assert doc["size"] == 2 and doc["exact"]
        assert len(doc["witness"]) == 2 == len(doc["witness_labels"])

    def test_cycles_window(self, a4_graph, capsys):
        code, out, _ = run(capsys, "cycles", "--in", a4_graph,
                           "--min-length", "3", "--max-length", "5")
        assert code == 0
        census = json.loads(out)["census"]
        assert set(census) == {"3", "4", "5"}
        assert census["3"]["status"] == "absent"  # bipartite graph
        assert census["4"]["status"] == "found"

    def test_hamilton(self, a4_graph, capsys):
        code, out, _ = run(capsys, "hamilton", "--in", a4_graph)
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "found"
        assert len(doc["cycle"]) == 8

    def test_export_dot(self, a4_graph, capsys):
        code, out, _ = run(capsys, "export", "--in", a4_graph, "--format", "dot")
        assert code == 0
        assert out.startswith("// manifest: {")
        assert json.loads(out.splitlines()[0][len("// manifest: "):])
        assert "graph delta334" in out

    def test_export_graphml(self, a4_graph, tmp_path, capsys):
        path = tmp_path / "a4.graphml"
        code, _, _ = run(capsys, "export", "--in", a4_graph,
                         "--format", "graphml", "--out", str(path))
        assert code == 0
        text = path.read_text()
        xml.dom.minidom.parseString(text)
        assert "<!-- manifest:" in text


@pytest.mark.parametrize("group, budget", [
    pytest.param("A4", (), id="A4"),
    pytest.param("S5", (), id="S5"),
    # the chi = 8 proof takes 1,176,185 nodes: stats must cut it where color does
    pytest.param("SL3(2)", ("--node-budget", "200000"), id="SL3(2)-node-budget"),
])
def test_report_blocks_match_standalone_commands(group, budget, tmp_path, capsys):
    """Each result type has one JSON form: the stats report's blocks equal the
    standalone commands' payloads, less the keys only the CLI adds."""
    path = str(tmp_path / "g.json")
    assert main(["graph", "--group", group, "--out", path]) == 0
    capsys.readouterr()

    def payload(*argv):
        code, out, _ = run(capsys, *argv, *budget, "--in", path)
        assert code == 0
        doc = json.loads(out)
        for key in ("manifest", "witness_labels", "num_colors"):
            doc.pop(key, None)
        return doc

    report = payload("stats", "--census", "--hamilton", "--exact-chromatic")["report"]
    assert report["clique"] == payload("clique")
    assert report["hamiltonian"] == payload("hamilton")
    assert report["cycle_census"] == payload("cycles")["census"]
    assert report["chromatic"] == payload("color", "--exact")
    assert payload("stats")["report"]["chromatic"] == payload("color")


class TestGroupPairs:
    def test_kronecker_product_lemma(self, tmp_path, capsys):
        path = tmp_path / "prod.json"
        code, out, _ = run(capsys, "kronecker", "--left", "Z3",
                           "--right", "A4", "--out", str(path))
        assert code == 0
        assert "product lemma holds" in out
        doc = json.loads(path.read_text())
        assert doc["product_lemma"]["holds"]
        assert doc["product_lemma"]["direct_sum_group"] == "sum(Z3,A4)"
        assert len(doc["vertices"]) == 3 * 9

    def test_iso_positive(self, tmp_path, capsys):
        left, right = tmp_path / "l.json", tmp_path / "r.json"
        main(["graph", "--group", "S4", "--out", str(left)])
        main(["graph", "--group", "SL2(3)", "--out", str(right)])
        capsys.readouterr()
        code, out, _ = run(capsys, "iso", "--left", str(left),
                           "--right", str(right))
        assert code == 0
        doc = json.loads(out)
        assert doc["isomorphic"] and len(doc["mapping"]) == 8

    def test_iso_positive_with_identity(self, tmp_path, capsys):
        left, right = tmp_path / "l.json", tmp_path / "r.json"
        main(["graph", "--group", "S4", "--include-identity", "--out", str(left)])
        main(["graph", "--group", "SL2(3)", "--include-identity", "--out", str(right)])
        capsys.readouterr()
        code, out, _ = run(capsys, "iso", "--left", str(left),
                           "--right", str(right))
        assert code == 0
        doc = json.loads(out)
        assert doc["isomorphic"] and len(doc["mapping"]) == 9

    def test_iso_negative_still_exit_zero(self, tmp_path, capsys):
        left, right = tmp_path / "l.json", tmp_path / "r.json"
        main(["graph", "--group", "Z3", "--out", str(left)])
        main(["graph", "--group", "A4", "--out", str(right)])
        capsys.readouterr()
        code, out, _ = run(capsys, "iso", "--left", str(left),
                           "--right", str(right))
        assert code == 0
        doc = json.loads(out)
        assert not doc["isomorphic"] and doc["mapping"] is None

    @pytest.mark.parametrize("left, right, mapping", [
        # i -> i mod 3 sends every edge of C6 to an edge of C3
        (toys.cycle_graph(6), toys.cycle_graph(3), [0, 1, 2, 0, 1, 2]),
        (TriangleGraph(["e"], []), TriangleGraph(["e"], [], loops=[0]), [0]),
    ], ids=["not-a-bijection", "loop-missed"])
    def test_iso_rejects_an_incomplete_witness(self, tmp_path, capsys, monkeypatch,
                                               left, right, mapping):
        paths = tmp_path / "l.json", tmp_path / "r.json"
        for path, g in zip(paths, (left, right)):
            path.write_text(dumps_graph(g))
        monkeypatch.setattr(cli, "graph_isomorphic", lambda g1, g2: mapping)
        with pytest.raises(AssertionError, match="witness failed"):
            main(["iso", "--left", str(paths[0]), "--right", str(paths[1])])


class TestGeneration:
    def test_gen_small_portion(self, tmp_path, capsys):
        seeds = tmp_path / "seeds.json"
        seeds.write_text(json.dumps([[-2, 0, -1, -5, 1, -1, 3, 0, 1]]))
        out_path = tmp_path / "p.json"
        code, out, _ = run(capsys, "gen-sl3z", "--seeds", str(seeds),
                           "--depth", "0", "--family-bound", "0",
                           "--out", str(out_path))
        assert code == 0
        assert "portion: 2 vertices, 1 edges" in out
        doc = json.loads(out_path.read_text())
        assert len(doc["vertices"]) == 2 and doc["edges"] == [[0, 1]]
        assert doc["manifest"]["flags"]["depth"] == 0

    def test_gen_target_cutoff(self, tmp_path, capsys):
        out_path = tmp_path / "p.json"
        code, out, _ = run(capsys, "gen-sl3z", "--depth", "4",
                           "--target", "100", "--out", str(out_path))
        assert code == 0
        assert len(json.loads(out_path.read_text())["vertices"]) == 100


@pytest.fixture()
def tiny_portion(tmp_path, capsys):
    """Two-vertex, one-edge portion file: B and its inverse."""
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps([[-2, 0, -1, -5, 1, -1, 3, 0, 1]]))
    path = tmp_path / "portion.json"
    code = main(["gen-sl3z", "--seeds", str(seeds), "--depth", "0",
                 "--family-bound", "0", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    return str(path)


class TestVerify:
    def test_lemmas_hold_with_probes(self, tiny_portion, capsys):
        code, out, _ = run(capsys, "verify", "--portion", tiny_portion)
        assert code == 0
        doc = json.loads(out)
        assert doc["all_lemmas_ok"]
        idred = doc["identity_reduction"]
        assert set(idred) == {"2", "3", "5"}
        assert all(v["ok"] for v in idred.values())
        edge = doc["edge_preservation"]
        assert edge["ok"] and edge["checked_edges"] == 1
        bounds = doc["chromatic"]
        assert bounds["lifted_num_colors"] is not None and bounds["lifted_num_colors"] <= 8
        assert bounds["lower"] <= bounds["upper"] <= 8
        assert doc["planarity"]["status"] in ("nonplanar", "inconclusive")

    def test_chromatic_block_is_color_form_plus_lift_and_clique(self, tmp_path, capsys):
        path = str(tmp_path / "portion.json")
        assert run(capsys, "gen-sl3z", "--depth", "1", "--out", path)[0] == 0
        budget = ("--node-budget", "20000")
        docs = {}
        for cmd, flag in (("verify", "--portion"), ("color", "--in"), ("clique", "--in")):
            code, out, _ = run(capsys, cmd, flag, path, *budget)
            assert code == 0
            docs[cmd] = json.loads(out)
        bounds = docs["verify"]["chromatic"]
        color_keys = set(docs["color"]) - {"manifest", "num_colors"}
        assert set(bounds) == color_keys | {"lifted_num_colors", "clique", "clique_discovery"}
        assert bounds["clique"] == {k: v for k, v in docs["clique"].items()
                                    if k not in ("manifest", "witness_labels")}
        assert bounds["certificate"]["lower_bound_clique"] == bounds["clique"]["witness"]

    def test_skip_probes_is_quick(self, tiny_portion, capsys):
        code, out, _ = run(capsys, "verify", "--portion", tiny_portion,
                           "--mod", "3", "--skip-probes")
        assert code == 0
        doc = json.loads(out)
        assert list(doc["identity_reduction"]) == ["3"]
        assert doc["edge_preservation"] is None
        assert doc["chromatic"] is None and doc["planarity"] is None

    def test_fabricated_unpreserved_edge_exits_two(self, tmp_path, capsys):
        # two genuine order-3 matrices whose mod-2 images are distinct and
        # not adjacent; the claimed edge between them must be rejected
        u = IntMatrix3((0, 0, 1, 1, 0, 0, 0, 1, 0))
        v = IntMatrix3((1, 1, 2, 0, 1, 1, 0, -3, -2))
        path = tmp_path / "bad.json"
        path.write_text(dumps_graph(TriangleGraph((u, v), ((0, 1),))))
        code, out, err = run(capsys, "verify", "--portion", str(path),
                             "--skip-probes")
        assert code == 2
        doc = json.loads(out)
        assert not doc["all_lemmas_ok"]
        assert doc["edge_preservation"]["unpreserved_edges"] == [[0, 1]]
        assert "FAILED" in err

    def test_identity_vertex_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(dumps_graph(TriangleGraph((IntMatrix3.identity(),), ())))
        code, out, _ = run(capsys, "verify", "--portion", str(path),
                           "--mod", "2", "--skip-probes")
        assert code == 2
        doc = json.loads(out)
        assert doc["identity_reduction"]["2"]["violations"] == [0]


class TestErrors:
    def test_unknown_group(self, capsys):
        code, _, err = run(capsys, "graph", "--group", "Q8")
        assert code == 1 and "Q8" in err

    def test_missing_input_file(self, capsys):
        code, _, err = run(capsys, "stats", "--in", "/nonexistent/g.json")
        assert code == 1 and "no such file" in err

    def test_malformed_graph_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{\"labels\": \"oops\"}")
        code, _, err = run(capsys, "stats", "--in", str(path))
        assert code == 1

    def test_nonpositive_budget_flag(self, a4_graph, capsys):
        code, _, err = run(capsys, "color", "--in", a4_graph,
                           "--node-budget", "0")
        assert code == 1

    def test_composite_modulus(self, tiny_portion, capsys):
        code, _, err = run(capsys, "verify", "--portion", tiny_portion,
                           "--mod", "4", "--skip-probes")
        assert code == 1 and "prime" in err

    def test_non_matrix_portion(self, a4_graph, capsys):
        for probes in (["--skip-probes"], []):
            code, _, err = run(capsys, "verify", "--portion", a4_graph, *probes)
            assert code == 1 and "integer-matrix" in err

    def test_empty_seed_set(self, tmp_path, capsys):
        seeds = tmp_path / "seeds.json"
        seeds.write_text("[]")
        code, _, err = run(capsys, "gen-sl3z", "--seeds", str(seeds),
                           "--family-bound", "0")
        assert code == 1 and "empty seed set" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_loops_rejected_by_color(self, tmp_path, capsys):
        path = tmp_path / "loop.json"
        code = main(["graph", "--group", "Z3", "--include-identity",
                     "--out", str(path)])
        assert code == 0
        capsys.readouterr()
        code, _, err = run(capsys, "color", "--in", str(path))
        assert code == 1 and "loops" in err


class TestEnvBudgets:
    def test_env_budget_applied_when_flag_absent(self, a4_graph, capsys,
                                                 monkeypatch):
        monkeypatch.setenv(ENV_NODE_BUDGET, "100000")
        monkeypatch.setenv(ENV_TIME_BUDGET, "30")
        code, out, _ = run(capsys, "color", "--in", a4_graph, "--exact")
        assert code == 0 and json.loads(out)["chi"] == 2

    def test_invalid_env_budget_rejected(self, a4_graph, capsys, monkeypatch):
        monkeypatch.setenv(ENV_NODE_BUDGET, "zero")
        code, _, err = run(capsys, "color", "--in", a4_graph)
        assert code == 1 and ENV_NODE_BUDGET in err

    def test_explicit_flag_beats_bad_env(self, a4_graph, capsys, monkeypatch):
        monkeypatch.setenv(ENV_NODE_BUDGET, "zero")
        code, _, _ = run(capsys, "color", "--in", a4_graph,
                         "--node-budget", "50000")
        assert code == 0
