import enum
import hashlib
import json
import subprocess
import sys
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delta334 import cli
from delta334.elements import (DirectSumElement, IntMatrix3, ModMatrix, Permutation,
                               parametric_order3)
from delta334.generation import GenerationConfig, generate_and_build
from delta334.graph import TriangleGraph, build_delta334, kronecker_product
from delta334.graphio import (
    GraphFormatError,
    canonical_json,
    dumps_graph,
    graph_from_json_dict,
    graph_to_dot,
    graph_to_graphml,
    load_graph,
)
from delta334.groups import ElementSet, order3_vertices, parse_group_spec

import oracles
import toys


def delta(text, include_identity=False):
    return build_delta334(order3_vertices(parse_group_spec(text), include_identity),
                          meta={"source": text})


def graphs_of_every_label_kind():
    perm = delta("S4")
    matrix = build_delta334(ElementSet(
        [parametric_order3(a, 0, 0) for a in range(3)]))
    mod = delta("SL2(3)")
    pair = delta("sum(Z3,A4)")
    kron = kronecker_product(delta("Z3", True), delta("Z3", True))
    opaque = toys.petersen_graph()
    return [perm, matrix, mod, pair, kron, opaque]


class TestJsonRoundTrip:
    @pytest.mark.parametrize("graph", graphs_of_every_label_kind(),
                             ids=["perm", "intmat", "modmat", "pair", "kron", "opaque"])
    def test_byte_identical(self, graph, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(dumps_graph(graph))
        loaded = load_graph(path)
        assert dumps_graph(loaded) == dumps_graph(graph)
        assert loaded.edges() == graph.edges()
        assert loaded.loops == graph.loops

    def test_extra_top_level_keys_tolerated(self):
        doc = oracles.oracle_graph_json_dict(toys.cycle_graph(3))
        doc["manifest"] = {"anything": 1}
        g = graph_from_json_dict(doc)
        assert g.n == 3

    def test_generation_metadata_round_trips(self, tmp_path):
        g = TriangleGraph(range(2), [(0, 1)],
                          meta={"generation": {"conj_depth": 2}})
        path = tmp_path / "g.json"
        path.write_text(dumps_graph(g))
        assert load_graph(path).meta["generation"] == {"conj_depth": 2}


LARGEST = (1 << 62) - 1  # the largest IntMatrix3 entry


def json_dumps(doc):
    """The layout canonical_json must reproduce byte for byte."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class Level(enum.IntEnum):
    LOW = 3


json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text())
json_docs = st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner) | st.tuples(inner, inner)
                   | st.lists(st.lists(st.integers(), min_size=2, max_size=2))
                   | st.lists(st.tuples(st.integers(), st.booleans()))
                   | st.dictionaries(st.text(), inner)
                   | st.dictionaries(st.integers(), inner)
                   | st.dictionaries(st.floats(allow_nan=False), inner)),
    max_leaves=30)


class TestCanonicalJson:
    @pytest.mark.parametrize("graph", graphs_of_every_label_kind() + [
        TriangleGraph([], []),
        delta("A4", include_identity=True),  # the identity vertex has a loop
        TriangleGraph(['say "hi"', "\u00fcber \u2192 \U0001d4b3", "back\\slash\ttab", None],
                      [(0, 1), (2, 1)], meta={"source": "caf\u00e9"}),
        TriangleGraph([IntMatrix3.identity()], []),
        TriangleGraph([IntMatrix3((1, s * LARGEST, 0, 0, 1, 0, 0, 0, 1)) for s in (1, -1)],
                      [(0, 1)]),
        TriangleGraph([Permutation((True, False)), Permutation((0, 1))], []),
        TriangleGraph([Permutation((1, 0)), Permutation((0, 2, 1))], [(0, 1)]),
        TriangleGraph([Permutation(())], []),
    ], ids=["perm", "intmat", "modmat", "pair", "kron", "opaque", "empty", "loops",
            "quoted-unicode", "one-vertex", "largest-entries", "bool-images",
            "mixed-widths", "no-points"])
    def test_graph_files_match_json_dumps(self, graph):
        assert dumps_graph(graph) == json_dumps(oracles.oracle_graph_json_dict(graph))

    def test_5k_portion_bytes_pinned(self):
        # the 5,000-vertex default portion's file, as written before the
        # vertex list had its bulk form
        text = dumps_graph(generate_and_build(GenerationConfig(target_vertices=5_000)).graph)
        assert len(text) == 1_328_474
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "7ad3c15d1636eaeaa42875920d04b40173175c6f951417a3fdc253ada9c06cf8")

    @pytest.mark.parametrize("doc", [
        {3: "three", 10: "ten", -1: [1, 2]},  # int keys sort as ints: -1, 3, 10
        {2.5: 1, 0.1: None, -3.0: [0.5, -0.0, 1e300, float("inf")]},
        {None: 1}, {True: 1, 7: 0}, {"a": (1, 2), "b": ((1, 2), (3, 4))},
        [], {}, [[]], [{}], [[], []], [[1], [2, 3]], {"x": [[], {}]},
        [True, 1], [1, True], [False], [[True, 1], [0, 1]], [[1, 2], (3, 4)],
        [Level.LOW, 1], [[Level.LOW, 1]], {"k": Level.LOW},
        [1, 2.0], [[1, 2.0]], [1, None], ["\u00e9", "\"", "\\"],
        [[0, 1], [0, 1, 2]], [[-5, 2 ** 70]], [(1,), (2,)],
        float("nan"), "plain", 0, None,
    ])
    def test_documents_match_json_dumps(self, doc):
        assert canonical_json(doc) == json_dumps(doc)

    @pytest.mark.parametrize("rows", [
        np.empty((0, 2), np.int64), np.array([[0, 1], [2, 3]]),
        np.array([[-5, 2 ** 40, 7]], np.int64), np.array([[255]], np.uint8),
    ], ids=["empty", "pairs", "wide", "uint8"])
    def test_int_arrays_are_written_as_their_rows(self, rows):
        assert canonical_json({"edges": rows, "n": 1}) == json_dumps({"edges": rows.tolist(),
                                                                      "n": 1})

    @pytest.mark.parametrize("array", [np.array([1, 2]), np.array([[0.5, 1.0]]),
                                       np.array([[True, False]]), np.empty((2, 0), np.int64)],
                             ids=["1-d", "float", "bool", "no-columns"])
    def test_other_arrays_raise_like_json(self, array):
        with pytest.raises(TypeError):
            json_dumps([array])
        with pytest.raises(TypeError):
            canonical_json([array])

    @given(json_docs)
    @settings(max_examples=150, deadline=None)
    def test_random_documents_match_json_dumps(self, doc):
        assert canonical_json(doc) == json_dumps(doc)

    @pytest.mark.parametrize("doc", [{(1, 2): 0}, [object()], {"a": {1, 2}}])
    def test_unserializable_raises_like_json(self, doc):
        with pytest.raises(TypeError):
            json_dumps(doc)
        with pytest.raises(TypeError):
            canonical_json(doc)

    def test_cli_payloads_match_json_dumps(self, tmp_path, capsys):
        graph_path = tmp_path / "a4.json"
        assert cli.main(["graph", "--group", "A4", "--out", str(graph_path)]) == 0
        text = graph_path.read_text()
        assert text == json_dumps(json.loads(text))
        for argv in (["stats", "--in", str(graph_path)],
                     ["color", "--in", str(graph_path), "--exact"],
                     ["cycles", "--in", str(graph_path)],
                     ["enumerate", "--group", "S4"]):
            capsys.readouterr()
            assert cli.main(argv) == 0
            out = capsys.readouterr().out
            assert out == json_dumps(json.loads(out))


class TestMalformed:
    def make_doc(self):
        return oracles.oracle_graph_json_dict(toys.cycle_graph(3))

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(GraphFormatError):
            load_graph(path)

    def test_missing_keys(self):
        doc = self.make_doc()
        del doc["edges"]
        with pytest.raises(GraphFormatError):
            graph_from_json_dict(doc)

    def test_vertex_ids_must_be_dense(self):
        doc = self.make_doc()
        doc["vertices"][1]["id"] = 5
        with pytest.raises(GraphFormatError):
            graph_from_json_dict(doc)

    def test_edge_order_enforced(self):
        doc = self.make_doc()
        doc["edges"][0] = [2, 1]  # endpoints must come ordered
        with pytest.raises(GraphFormatError):
            graph_from_json_dict(doc)

    def test_edge_range_enforced(self):
        doc = self.make_doc()
        doc["edges"][0] = [0, 9]
        with pytest.raises(GraphFormatError):
            graph_from_json_dict(doc)

    @pytest.mark.parametrize("edge", [[0, 1, 2], [0.5, 1], ["0", 1], [1], 7, None,
                                      [0, 2 ** 64]])
    def test_edge_entry_shape_enforced(self, edge):
        doc = self.make_doc()
        doc["edges"].append(edge)
        with pytest.raises(GraphFormatError, match="bad edge entry"):
            graph_from_json_dict(doc)

    def test_reversed_edge_named(self):
        doc = self.make_doc()
        doc["edges"] = [[0, 1], [2, 1]]
        with pytest.raises(GraphFormatError, match=r"^edge \[2, 1\] out of order$"):
            graph_from_json_dict(doc)

    @pytest.mark.parametrize("edges", [None, {"0": 1}, "01"])
    def test_edges_must_be_a_list(self, edges):
        doc = self.make_doc()
        doc["edges"] = edges
        with pytest.raises(GraphFormatError):
            graph_from_json_dict(doc)

    def test_duplicate_edges_collapse(self):
        doc = self.make_doc()
        doc["edges"] = [[0, 1], [1, 2], [0, 1], [0, 2], [1, 2]]
        g = graph_from_json_dict(doc)
        assert g.edges() == ((0, 1), (0, 2), (1, 2))

    @pytest.mark.parametrize("labels, wire", [
        ([Permutation((1, 0, 2))] * 2, [1, 0.0, 2]),
        ([IntMatrix3.identity()] * 2, [1, 0, 0, 0, 1.9, 0, 0, 0, 1]),
        ([ModMatrix.identity(3)] * 2, [1, 0, 0, 0, "1", 0, 0, 0, 1]),
        ([DirectSumElement(Permutation((0,)), ModMatrix.identity(2, dim=2))] * 2,
         [[0], [True, 0, 0, 1]]),
    ], ids=["permutation", "int_matrix", "mod_matrix", "direct_sum"])
    def test_label_entries_must_be_json_integers(self, labels, wire):
        # int() would read 1.9 as 1, "1" as 1 and true as 1
        doc = oracles.oracle_graph_json_dict(TriangleGraph(labels, []))
        doc["vertices"][1]["label"] = wire
        with pytest.raises(GraphFormatError,
                           match=r"^vertex 1: bad \w+ label .*: entries must be JSON integers$"):
            graph_from_json_dict(doc)

    @pytest.mark.parametrize("wire, message", [
        ([1, 0, 0, 0, 1, 0, 0, 0, 2], r"^vertex 1: bad int_matrix label .*: "
                                      r"determinant must be 1, got 2$"),
        ([1, 0, 0, 0, 1, 0, 0, 0], r"^vertex 1: bad int_matrix label .*: IntMatrix3 needs 9 "),
        ([1, 2 ** 62, 0, 0, 1, 0, 0, 0, 1], r"^vertex 1: bad int_matrix label .*: entry "
                                            r"4611686018427387904 exceeds bound"),
        ([1, 2 ** 64, 0, 0, 1, 0, 0, 0, 1], r"^vertex 1: bad int_matrix label .*: entry "
                                            r"18446744073709551616 exceeds bound"),
        ("identity", r"^vertex 1: bad int_matrix label 'identity': entries must be JSON"),
    ], ids=["det", "short", "bound", "past-int64", "not-a-list"])
    def test_bad_int_matrix_label_named(self, wire, message):
        # the bulk path gives way to the per-label one, which names the vertex
        doc = oracles.oracle_graph_json_dict(TriangleGraph([IntMatrix3.identity()] * 3, []))
        doc["vertices"][1]["label"] = wire
        with pytest.raises(GraphFormatError, match=message):
            graph_from_json_dict(doc)

    def test_loop_range_enforced(self):
        doc = self.make_doc()
        doc["loops"] = [7]
        with pytest.raises(GraphFormatError):
            graph_from_json_dict(doc)


class TestDot:
    def test_shape(self):
        g = delta("A4")
        text = graph_to_dot(g)
        assert text.startswith("graph")
        assert text.count(" -- ") == g.edge_count
        assert text.count("label=") == g.n

    def test_quotes_escaped(self):
        g = TriangleGraph(['say "hi"'], [])
        assert '\\"hi\\"' in graph_to_dot(g)


class TestGraphml:
    def test_well_formed_xml(self):
        from xml.dom import minidom
        g = delta("S4")
        text = graph_to_graphml(g)
        dom = minidom.parseString(text)
        assert len(dom.getElementsByTagName("node")) == g.n
        assert len(dom.getElementsByTagName("edge")) == g.edge_count

    def test_labels_escaped(self):
        g = TriangleGraph(["a<b&c"], [])
        text = graph_to_graphml(g)
        assert "a&lt;b&amp;c" in text

    def test_escape_matches_saxutils(self):
        labels = ["a<b&c", "x > y", "&amp;", "<<&>>", 'say "hi"', "it's", "plain"]
        text = graph_to_graphml(TriangleGraph(labels, [(0, 1)]))
        for label in labels:
            assert f'<data key="label">{escape(label)}</data>' in text

    def test_import_leaves_network_and_xml_modules_unloaded(self):
        # the package needs none of these; xml.sax alone would pull in
        # urllib.request, http.client, email, ssl and socket
        import delta334
        src = str(Path(delta334.__file__).parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import delta334; "
                "print(*[m for m in ('urllib.request', 'ssl', 'xml.sax', 'networkx') "
                "if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 0 and out.stdout.split() == []
