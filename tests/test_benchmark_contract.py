"""The benchmark under perfbench/ calls library names as ``delta334.<name>``
and traces them by (module, name) string, so a renamed or deleted name breaks
it without failing any other test.  The benchmark's files are parsed, never
imported or modified."""

import ast
import importlib
from pathlib import Path

import delta334

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def test_workloads_call_existing_names():
    names = {node.attr for node in ast.walk(_tree("workloads.py"))
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "delta334"}
    assert "build_portion_edges" in names
    assert sorted(n for n in names if not hasattr(delta334, n)) == []


def test_traced_targets_resolve():
    targets = next(node.value for node in _tree("tracing.py").body
                   if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                           for t in node.targets))
    pairs = [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]
    assert ("generation", "build_portion_edges") in pairs
    missing = [f"{layer}.{fname}" for layer, fname in pairs
               if not hasattr(importlib.import_module(f"delta334.{layer}"), fname)]
    assert missing == []
