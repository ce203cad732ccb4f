"""Standing checks on the package's own source."""

import ast
import inspect
import pathlib
import re

import pytest

import delta334

# __init__.py is left out: its imports are the package's API, which it
# exports through __all__ without using them
MODULES = sorted(path for path in pathlib.Path(delta334.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}  # name bound -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # `import a.b` binds a
            names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        for name in names:
            imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}


def _names_used(tree: ast.Module) -> set[str]:
    """The names and attribute names a module reads, each top-level
    function's or class's own name left out of its definition, so that a
    recursive call is no use."""
    used = set()
    for stmt in tree.body:
        names = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        used |= names
    return used


def test_every_public_name_has_a_user_besides_the_tests():
    # a user is a module of the package other than the one export, a
    # perfbench script, or a code span of the README; the submodules that
    # __all__ also lists are not names of the API
    root = pathlib.Path(__file__).resolve().parents[1]
    used = set().union(*(_names_used(ast.parse(path.read_text(), str(path)))
                         for path in MODULES))
    for path in (root / "perfbench").glob("*.py"):
        used |= set(re.findall(r"\w+", path.read_text()))
    for span in re.findall(r"```.*?```|`[^`\n]+`", (root / "README.md").read_text(), re.S):
        used |= set(re.findall(r"\w+", span))
    api = [name for name in delta334.__all__
           if not inspect.ismodule(getattr(delta334, name))]
    assert sorted(name for name in api if name not in used) == []
