"""Graph files: canonical JSON with element labels, plus DOT and GraphML.

The JSON layout is
    { "meta": {...}, "vertices": [{"id": k, "label": ...}, ...],
      "edges": [[i, j], ...], "loops": [k, ...] }
with i < j and edges sorted lexicographically.  Output is canonical (sorted
keys, two-space indent, trailing newline), so exporting a loaded graph
reproduces the input byte for byte.  A portion file additionally carries a
top-level "generation" block; in memory it lives under meta["generation"].

Every JSON document the package writes, graph files and the CLI's
payloads alike, goes through `canonical_json`, which writes what
``json.dumps(doc, sort_keys=True, indent=2) + "\n"`` writes without that
call's per-item generator (Python's json encoder leaves its C accelerator
whenever `indent` is set): a list of plain ints is one join, and a list of
equal-length int lists or tuples (the edges) one `%` template.  So is the
vertex list of a graph file whose labels are all equal-length int lists
on the wire (permutations, integer and mod-p matrices).  The loader
converts and checks the edges once, by TriangleGraph's own conversion to
an int64 array, adds the one rule of the file format (every edge is
[i, j] with i < j) and hands that array to TriangleGraph.

Labels are group elements on the wire: image arrays for permutations,
row-major entry arrays for matrices, [left, right] for direct sums.  A
"labels" descriptor in meta says how to decode them; graphs whose labels
are not group elements get an "opaque" descriptor and their labels pass
through as plain JSON.  Image and entry arrays hold JSON integers only.
Integer-matrix labels are read as one entry array in bulk; where that
fails, the labels are read one at a time, and the first bad one raises a
GraphFormatError naming its vertex.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import attrgetter

import numpy as np

from .elements import (DirectSumElement, IntMatrix3, ModMatrix, Permutation,
                       element_label, int_matrices, serialize_element)
from .graph import TriangleGraph, _edge_array


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
    if kind in _INT_LIST_KINDS and not (
            isinstance(wire, list) and all(type(x) is int for x in wire)):
        raise GraphFormatError(f"bad {kind} label {wire!r}: entries must be JSON integers")
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
    except (TypeError, ValueError, KeyError, IndexError, OverflowError) as exc:
        raise GraphFormatError(f"bad {kind} label {wire!r}: {exc}") from exc
    raise GraphFormatError(f"unknown label kind {kind!r}")


# the label kinds whose wire form is a flat list of ints
_INT_LIST_KINDS = ("permutation", "int_matrix", "mod_matrix")

# the carriers whose wire form is a flat list of ints: that list's source
_WIRE_INTS = {Permutation: attrgetter("images"), IntMatrix3: attrgetter("entries"),
              ModMatrix: attrgetter("entries")}


def _vertex_dicts(labels) -> list[dict]:
    return [{"id": k, "label": label_to_wire(lab)} for k, lab in enumerate(labels)]


class _VertexRows:
    """The vertex list of a graph whose wire labels are all lists of
    `width` plain ints, as `flat`: each vertex's id, then its label's ints,
    in vertex order.  canonical_json writes it with one `%` template."""

    __slots__ = ("flat", "width")

    def __init__(self, flat: tuple, width: int):
        self.flat = flat
        self.width = width

    @classmethod
    def of(cls, labels) -> "_VertexRows | None":
        """The rows of `labels`, or None when some label's wire form is not
        a list of as many plain ints as the others' (and at least one)."""
        kinds = set(map(type, labels))
        wire = _WIRE_INTS.get(kinds.pop()) if len(kinds) == 1 else None
        if wire is None:
            return None
        wires = list(map(wire, labels))
        widths = set(map(len, wires))
        if len(widths) != 1 or not min(widths):
            return None
        flat = tuple(chain.from_iterable(zip(range(len(wires)), *zip(*wires))))
        if set(map(type, flat)) != {int}:
            return None
        return cls(flat, widths.pop())


def _graph_document(graph: TriangleGraph) -> dict:
    """The graph file's document, with the edges as one (m, 2) int64 array
    and, where the labels allow, the vertices as _VertexRows, which
    canonical_json writes with no Python object per edge or vertex."""
    meta = dict(graph.meta)
    generation = meta.pop("generation", None)
    if graph.n:
        meta["labels"] = label_descriptor(graph.labels[0])
    doc = {
        "meta": meta,
        "vertices": _VertexRows.of(graph.labels) or _vertex_dicts(graph.labels),
        "edges": np.stack(graph._edge_ends(), axis=1),
        "loops": sorted(graph.loops),
    }
    if generation is not None:
        doc["generation"] = generation
    return doc


def dumps_graph(graph: TriangleGraph) -> str:
    return canonical_json(_graph_document(graph))


def canonical_json(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, byte for byte,
    with lists of ints and lists of equal-length int rows written in bulk.
    A 2-d integer numpy array is written as the list of its rows, and a
    _VertexRows as the list of its {"id": ..., "label": [...]} objects."""
    out: list[str] = []
    _write_json(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(x, nl: str, out: list[str]) -> None:
    """Append x as json.dumps writes it at the depth whose line break and
    indent are `nl`.  Plain ints are tested by exact type, so bools still
    print as true and false.  Keys are sorted before they are converted to
    strings, as json does."""
    if isinstance(x, np.ndarray) and x.ndim == 2 and x.dtype.kind in "iu" and x.shape[1]:
        if not len(x):
            out.append("[]")
        else:
            _write_int_rows(tuple(x.ravel().tolist()), x.shape[1], nl, out)
    elif isinstance(x, _VertexRows):
        _write_vertex_rows(x, nl, out)
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        types = set(map(type, x))
        if types == {int}:
            out.append("[" + inner + sep.join(map(int.__repr__, x)) + nl + "]")
            return
        widths = set(map(len, x)) if types <= {list, tuple} else ()
        if len(widths) == 1:
            flat = tuple(chain.from_iterable(x))
            if set(map(type, flat)) == {int}:
                _write_int_rows(flat, widths.pop(), nl, out)
                return
        out.append("[")
        for v in x:
            out.append(inner)
            _write_json(v, inner, out)
            out.append(",")
        out[-1] = nl + "]"
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = nl + "  "
        out.append("{")
        for k, v in sorted(x.items()):
            if not isinstance(k, str):
                if not (isinstance(k, (int, float)) or k is None):
                    raise TypeError("keys must be str, int, float, bool or None, "
                                    f"not {type(k).__name__}")
                k = json.dumps(k)
            out.append(inner + encode_basestring_ascii(k) + ": ")
            _write_json(v, inner, out)
            out.append(",")
        out[-1] = nl + "}"
    elif type(x) is int:
        out.append(int.__repr__(x))
    else:
        out.append(json.dumps(x))


def _write_int_rows(flat: tuple, width: int, nl: str, out: list[str]) -> None:
    """Append the rows of `width` ints that `flat` lists in row order, with
    one `%` template."""
    inner = nl + "  "
    deeper = inner + "  "
    row = "[" + deeper + ("," + deeper).join(["%d"] * width) + inner + "]"
    out.append("[" + inner + ("," + inner).join([row] * (len(flat) // width)) % flat + nl + "]")


def _write_vertex_rows(rows: _VertexRows, nl: str, out: list[str]) -> None:
    """Append the vertex objects as json.dumps writes them, with one `%`
    template: "id" sorts before "label"."""
    inner = nl + "  "
    key = inner + "  "
    entry = key + "  "
    vertex = ("{" + key + '"id": %d,' + key + '"label": [' + entry
              + ("," + entry).join(["%d"] * rows.width) + key + "]" + inner + "}")
    n = len(rows.flat) // (rows.width + 1)
    out.append("[" + inner + ("," + inner).join([vertex] * n) % rows.flat + nl + "]")


def graph_from_json_dict(doc: dict) -> TriangleGraph:
    if not isinstance(doc, dict):
        raise GraphFormatError("graph file must be a JSON object")
    for key in ("vertices", "edges", "loops"):
        if key not in doc:
            raise GraphFormatError(f"missing {key!r}")
    meta = dict(doc.get("meta") or {})
    desc = meta.get("labels", {"kind": "opaque"})
    wires = []
    for k, entry in enumerate(doc["vertices"]):
        if not isinstance(entry, dict) or entry.get("id") != k:
            raise GraphFormatError(f"vertex {k} must be {{'id': {k}, 'label': ...}}")
        wires.append(entry["label"])
    labels = desc.get("kind") == "int_matrix" and _int_matrix_labels(wires)
    if not labels:
        labels = []
        for k, wire in enumerate(wires):
            try:
                labels.append(label_from_wire(desc, wire))
            except GraphFormatError as exc:
                raise GraphFormatError(f"vertex {k}: {exc}") from exc
    n = len(labels)
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise GraphFormatError(f"edges must be a list, not {type(edges).__name__}")
    try:
        ends = _edge_array(edges, n)
    except (TypeError, ValueError) as exc:
        raise GraphFormatError(f"bad edge entry: {exc}") from exc
    backward = np.flatnonzero(ends[:, 0] >= ends[:, 1])
    if backward.size:
        i, j = ends[backward[0]].tolist()
        raise GraphFormatError(f"edge [{i}, {j}] out of order")
    loops = []
    for v in doc["loops"]:
        if not isinstance(v, int) or not 0 <= v < n:
            raise GraphFormatError(f"bad loop vertex {v!r}")
        loops.append(v)
    if "generation" in doc:
        meta["generation"] = doc["generation"]
    return TriangleGraph(labels, ends, loops, meta)


def _int_matrix_labels(wires: list) -> list[IntMatrix3] | None:
    """The IntMatrix3 labels of int_matrix wires in bulk, or None when
    some wire is not 9 JSON integers of an IntMatrix3: the per-label path
    then names the first such vertex with its own error."""
    if (set(map(type, wires)) != {list} or set(map(len, wires)) != {9}
            or set(map(type, chain.from_iterable(wires))) != {int}):
        return None
    try:
        rows = np.fromiter(chain.from_iterable(wires), np.int64, 9 * len(wires))
        return int_matrices(rows.reshape(-1, 9))
    except (ValueError, OverflowError):
        return None


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
        text = _label_text(graph.labels[v])
        text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        out.append(f'      <data key="label">{text}</data>')
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
