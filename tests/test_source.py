"""Standing checks on the package's own source."""

import ast
import pathlib

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
