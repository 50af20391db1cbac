"""Source hygiene: every module-level import in the package is used."""

import ast
from pathlib import Path

import pytest

import stochcirc

SOURCES = sorted(Path(stochcirc.__file__).parent.glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """The names bound by the module-level imports of tree that no other
    name in it reads; __future__ imports bind nothing and are skipped."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_finds_a_module_level_import_nothing_reads():
    tree = ast.parse("from __future__ import annotations\nimport os\nimport os.path as p\n"
                     "import json.decoder\nfrom sys import argv, exit as leave\n"
                     "def f():\n    import math\n    return json.decoder, argv\n")
    assert unused_imports(tree) == ["os", "p", "leave"]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_every_module_level_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []
