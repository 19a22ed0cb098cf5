"""Every name a module of the package imports is used in that module.

No linter ships with the toolchain, so this scans the syntax trees
directly: an imported name counts as used when it appears as a plain
name anywhere in the module (attribute access starts from one).
"""

import ast
from pathlib import Path

import pytest

import steercert

MODULES = sorted(p for p in Path(steercert.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    source = "import os\nfrom math import prod, sqrt\nimport numpy.linalg\nsqrt(numpy.pi)\n"
    assert unused_imports(source) == [(1, "os"), (2, "prod")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
