"""The benchmark under perfbench/ calls library names as ``delta334.<name>``
and traces them by (module, name) string, so a renamed or deleted name breaks
it without failing any other test.  The benchmark's files are parsed, never
imported or modified."""

import ast
import importlib
import inspect
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


def test_workloads_call_with_accepted_arguments():
    """Every delta334.<name>(...) call in the workloads binds to the library
    signature: a renamed or dropped keyword fails here, not mid-benchmark."""
    calls = [node for node in ast.walk(_tree("workloads.py"))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "delta334"]
    keywords = {kw.arg for call in calls for kw in call.keywords}
    assert {"color_time_budget", "color_node_budget", "codomain", "codomain_coloring",
            "rounds", "validate"} <= keywords
    for call in calls:
        assert not any(isinstance(a, ast.Starred) for a in call.args)
        assert all(kw.arg for kw in call.keywords)  # no **mapping
        signature = inspect.signature(getattr(delta334, call.func.attr))
        signature.bind_partial(*call.args, **{kw.arg: None for kw in call.keywords})


def _traced_pairs() -> list[tuple[str, str]]:
    targets = next(node.value for node in _tree("tracing.py").body
                   if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                           for t in node.targets))
    return [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]


def test_traced_targets_resolve():
    pairs = _traced_pairs()
    assert ("generation", "build_portion_edges") in pairs
    missing = [f"{layer}.{fname}" for layer, fname in pairs
               if not hasattr(importlib.import_module(f"delta334.{layer}"), fname)]
    assert missing == []


def test_traced_run_finds_every_binding_it_checks():
    """run.py's trace.wrapped-every-binding check names module-level bindings
    (e.g. delta334.invariants.clique_number) that the tracer must find bound
    to a traced function; an import deleted from the library fails it."""
    check = next(node for node in ast.walk(_tree("run.py"))
                 if isinstance(node, ast.Tuple) and node.elts
                 and isinstance(node.elts[0], ast.Constant)
                 and node.elts[0].value == "trace.wrapped-every-binding")
    names = [elt.value for node in ast.walk(check) if isinstance(node, ast.Set)
             for elt in node.elts]
    assert "delta334.invariants.clique_number" in names
    traced = [getattr(importlib.import_module(f"delta334.{layer}"), fname)
              for layer, fname in _traced_pairs()]
    unbound = []
    for dotted in names:
        module, _, attr = dotted.rpartition(".")
        value = getattr(importlib.import_module(module), attr, None)
        if not any(value is t for t in traced):
            unbound.append(dotted)
    assert unbound == []
