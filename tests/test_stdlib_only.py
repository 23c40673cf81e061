"""The package imports nothing outside the Python standard library, and nothing it leaves unused."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "qgt").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_absolute_imports_are_stdlib(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
    outside = sorted({name.split(".")[0] for name in imported} - sys.stdlib_module_names)
    assert not outside, f"{path.name} imports non-stdlib modules {outside}"


def _unused_imports(tree):
    """Names bound by an import but never read; ``name as name`` marks a re-export."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname == alias.name:
                    continue
                bound.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


@pytest.mark.parametrize(
    "path",
    [p for p in SOURCES if p.name != "__init__.py"],
    ids=[p.name for p in SOURCES if p.name != "__init__.py"],
)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = _unused_imports(tree)
    assert not unused, f"{path.name} imports {unused} without using them"
