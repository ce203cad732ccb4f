"""Graph files: canonical JSON with element labels, plus DOT and GraphML.

The JSON layout is
    { "meta": {...}, "vertices": [{"id": k, "label": ...}, ...],
      "edges": [[i, j], ...], "loops": [k, ...] }
with i < j and edges sorted lexicographically.  Output is canonical (sorted
keys, two-space indent, trailing newline), so exporting a loaded graph
reproduces the input byte for byte.  A portion file additionally carries a
top-level "generation" block; in memory it lives under meta["generation"].

Labels are group elements on the wire: image arrays for permutations,
row-major entry arrays for matrices, [left, right] for direct sums.  A
"labels" descriptor in meta says how to decode them; graphs whose labels
are not group elements get an "opaque" descriptor and their labels pass
through as plain JSON.
"""

from __future__ import annotations

import json
from xml.sax.saxutils import escape

from .elements import (DirectSumElement, IntMatrix3, ModMatrix, Permutation,
                       element_label, serialize_element)
from .graph import TriangleGraph


class GraphFormatError(ValueError):
    """A graph file does not match the documented layout."""


def label_descriptor(label) -> dict:
    if isinstance(label, Permutation):
        return {"kind": "permutation", "points": label.n}
    if isinstance(label, IntMatrix3):
        return {"kind": "int_matrix"}
    if isinstance(label, ModMatrix):
        return {"kind": "mod_matrix", "p": label.p, "dim": label.dim}
    if isinstance(label, DirectSumElement):
        return {"kind": "direct_sum",
                "left": label_descriptor(label.left),
                "right": label_descriptor(label.right)}
    if isinstance(label, tuple) and len(label) == 2:
        return {"kind": "pair",
                "left": label_descriptor(label[0]),
                "right": label_descriptor(label[1])}
    return {"kind": "opaque"}


def label_to_wire(label):
    if isinstance(label, (Permutation, IntMatrix3, ModMatrix, DirectSumElement)):
        return serialize_element(label)
    if isinstance(label, tuple) and len(label) == 2:
        return [label_to_wire(label[0]), label_to_wire(label[1])]
    if isinstance(label, (int, str, float, bool)) or label is None:
        return label
    return str(label)


def label_from_wire(desc: dict, wire):
    kind = desc.get("kind")
    try:
        if kind == "permutation":
            return Permutation(wire)
        if kind == "int_matrix":
            return IntMatrix3(wire)
        if kind == "mod_matrix":
            return ModMatrix(wire, desc["p"], desc.get("dim", 3))
        if kind == "direct_sum":
            return DirectSumElement(label_from_wire(desc["left"], wire[0]),
                                    label_from_wire(desc["right"], wire[1]))
        if kind == "pair":
            return (label_from_wire(desc["left"], wire[0]),
                    label_from_wire(desc["right"], wire[1]))
        if kind == "opaque":
            return wire
    except (TypeError, ValueError, KeyError, IndexError) as exc:
        raise GraphFormatError(f"bad {kind} label {wire!r}: {exc}") from exc
    raise GraphFormatError(f"unknown label kind {kind!r}")


def graph_to_json_dict(graph: TriangleGraph) -> dict:
    meta = dict(graph.meta)
    generation = meta.pop("generation", None)
    if graph.n:
        meta["labels"] = label_descriptor(graph.labels[0])
    doc = {
        "meta": meta,
        "vertices": [{"id": k, "label": label_to_wire(lab)}
                     for k, lab in enumerate(graph.labels)],
        "edges": [list(e) for e in graph.edges()],
        "loops": sorted(graph.loops),
    }
    if generation is not None:
        doc["generation"] = generation
    return doc


def dumps_graph(graph: TriangleGraph) -> str:
    return json.dumps(graph_to_json_dict(graph), sort_keys=True, indent=2) + "\n"


def graph_from_json_dict(doc: dict) -> TriangleGraph:
    if not isinstance(doc, dict):
        raise GraphFormatError("graph file must be a JSON object")
    for key in ("vertices", "edges", "loops"):
        if key not in doc:
            raise GraphFormatError(f"missing {key!r}")
    meta = dict(doc.get("meta") or {})
    desc = meta.get("labels", {"kind": "opaque"})
    labels = []
    for k, entry in enumerate(doc["vertices"]):
        if not isinstance(entry, dict) or entry.get("id") != k:
            raise GraphFormatError(f"vertex {k} must be {{'id': {k}, 'label': ...}}")
        labels.append(label_from_wire(desc, entry["label"]))
    n = len(labels)
    edges = []
    for e in doc["edges"]:
        if (not isinstance(e, list) or len(e) != 2
                or not all(isinstance(x, int) for x in e)):
            raise GraphFormatError(f"bad edge entry {e!r}")
        i, j = e
        if not (0 <= i < j < n):
            raise GraphFormatError(f"edge [{i}, {j}] out of order or range")
        edges.append((i, j))
    loops = []
    for v in doc["loops"]:
        if not isinstance(v, int) or not 0 <= v < n:
            raise GraphFormatError(f"bad loop vertex {v!r}")
        loops.append(v)
    if "generation" in doc:
        meta["generation"] = doc["generation"]
    return TriangleGraph(labels, edges, loops, meta)


def load_graph(path) -> TriangleGraph:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"not valid JSON: {exc}") from exc
    return graph_from_json_dict(doc)


def graph_to_dot(graph: TriangleGraph) -> str:
    """Undirected DOT with the human-readable element label as an attribute."""
    out = ["graph delta334 {"]
    for v in range(graph.n):
        text = _label_text(graph.labels[v]).replace("\\", "\\\\").replace('"', '\\"')
        out.append(f'  v{v} [label="{text}"];')
    for i, j in graph.edges():
        out.append(f"  v{i} -- v{j};")
    for v in sorted(graph.loops):
        out.append(f"  v{v} -- v{v};")
    out.append("}")
    return "\n".join(out) + "\n"


def graph_to_graphml(graph: TriangleGraph) -> str:
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="label" for="node" attr.name="label" attr.type="string"/>',
        '  <graph id="delta334" edgedefault="undirected">',
    ]
    for v in range(graph.n):
        out.append(f'    <node id="n{v}">')
        out.append(f'      <data key="label">{escape(_label_text(graph.labels[v]))}</data>')
        out.append("    </node>")
    eid = 0
    for i, j in graph.edges():
        out.append(f'    <edge id="e{eid}" source="n{i}" target="n{j}"/>')
        eid += 1
    for v in sorted(graph.loops):
        out.append(f'    <edge id="e{eid}" source="n{v}" target="n{v}"/>')
        eid += 1
    out.append("  </graph>")
    out.append("</graphml>")
    return "\n".join(out) + "\n"


def _label_text(label) -> str:
    if isinstance(label, (Permutation, IntMatrix3, ModMatrix, DirectSumElement)):
        return element_label(label)
    if isinstance(label, tuple) and len(label) == 2:
        return f"({_label_text(label[0])}, {_label_text(label[1])})"
    return str(label)
