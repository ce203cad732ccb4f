import json

import pytest

from delta334.elements import DirectSumElement, Permutation, parametric_order3
from delta334.graph import TriangleGraph, build_delta334, kronecker_product
from delta334.graphio import (
    GraphFormatError,
    dumps_graph,
    graph_from_json_dict,
    graph_to_dot,
    graph_to_graphml,
    graph_to_json_dict,
    load_graph,
)
from delta334.groups import ElementSet, order3_vertices, parse_group_spec

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
        doc = graph_to_json_dict(toys.cycle_graph(3))
        doc["manifest"] = {"anything": 1}
        g = graph_from_json_dict(doc)
        assert g.n == 3

    def test_generation_metadata_round_trips(self, tmp_path):
        g = TriangleGraph(range(2), [(0, 1)],
                          meta={"generation": {"conj_depth": 2}})
        path = tmp_path / "g.json"
        path.write_text(dumps_graph(g))
        assert load_graph(path).meta["generation"] == {"conj_depth": 2}


class TestMalformed:
    def make_doc(self):
        return graph_to_json_dict(toys.cycle_graph(3))

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
