"""Spans around the library's public functions, recorded from outside.

The tracer replaces each measured function at every module attribute in the
``delta334`` package that binds it (the package namespace, the defining
module, and every module that imported it by name), so calls between layers
are caught as well as calls from the benchmark.  Spans stay in memory; the
worker ships them to ``run.py``, which writes them out when the run ends.
``restore`` puts every original back, and ``unrestored`` lists any binding
that still differs from its original.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager


def _clique_counts(counts, result):
    counts["cliques.nodes"] += result.nodes


def _chromatic_counts(counts, result):
    counts["coloring.nodes"] += result.nodes


def _edge_pass_counts(counts, portion):
    st = portion.stats
    counts["generation.pairs"] += st.pairs_total
    counts["generation.prefilter_candidates"] += st.prefilter_candidates
    counts["generation.exact_checks"] += st.exact_checks
    counts["generation.edges"] += st.edges_found
    counts["generation.max_abs_entry"] = max(counts["generation.max_abs_entry"],
                                             st.max_abs_entry)


def _dump_counts(counts, text):
    counts["graphio.bytes"] += len(text.encode("utf-8"))


# (defining module, function, counter taken from the return value)
TARGETS = (
    ("groups", "order3_vertices", None),
    ("graph", "build_delta334", None),
    ("graph", "induced_morphism", None),
    ("generation", "generate_portion", None),
    ("generation", "build_portion_edges", _edge_pass_counts),
    ("generation", "mod_p_codomain", None),
    ("generation", "verify_no_identity_reduction", None),
    ("generation", "verify_edge_preservation", None),
    ("generation", "portion_chromatic_bounds", None),
    ("coloring", "chromatic_number_exact", _chromatic_counts),
    ("coloring", "heuristic_chromatic_upper", None),
    ("coloring", "improve_coloring", None),
    ("coloring", "lift_coloring", None),
    ("cliques", "clique_number", _clique_counts),
    ("cycles", "hamiltonian_cycle", None),
    ("cycles", "cycle_census", None),
    ("invariants", "nonplanarity_check", None),
    ("graphio", "dumps_graph", _dump_counts),
    ("graphio", "graph_from_json_dict", None),
)

COUNT_NAMES = ("cliques.nodes", "coloring.nodes", "generation.pairs",
               "generation.prefilter_candidates", "generation.exact_checks",
               "generation.edges", "generation.max_abs_entry", "graphio.bytes")


class Tracer:
    """Records (name, parent, start, end) spans and boundary counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = {name: 0 for name in COUNT_NAMES}
        self._stack: list[int] = []
        self._bindings: list[tuple] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int):
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if counter is not None:
                counter(self.counts, result)
            return result

        return traced

    def install(self):
        """Wrap every target at every ``delta334`` attribute bound to it."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "delta334" or key.startswith("delta334."))]
        for layer, fname, counter in TARGETS:
            original = getattr(sys.modules[f"delta334.{layer}"], fname)
            wrapper = self._wrap(f"{layer}.{fname}", original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def restore(self):
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)

    def unrestored(self) -> list[str]:
        return [f"{mod.__name__}.{attr}" for mod, attr, original in self._bindings
                if getattr(mod, attr) is not original]

    def bound_names(self) -> list[str]:
        return sorted(f"{mod.__name__}.{attr}" for mod, attr, _ in self._bindings)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for sid, (name, parent, start, end) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[sid]
        return out
