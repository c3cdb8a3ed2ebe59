"""The package's public surface: every name in __all__ is listed once and
resolves, so `from graphflow import *` cannot break on a deleted name; and
no module reaches into barrier's private names."""

import ast
from pathlib import Path

import graphflow


def test_all_has_no_duplicates():
    assert len(graphflow.__all__) == len(set(graphflow.__all__))


def test_every_name_in_all_resolves():
    missing = [name for name in graphflow.__all__ if not hasattr(graphflow, name)]
    assert missing == []


def test_no_module_imports_a_private_barrier_name():
    # the lattice facts barrier shares (windows, crossings, blocks) live in grid
    found = []
    for path in sorted(Path(graphflow.__file__).parent.glob("*.py")):
        if path.stem == "barrier":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    (node.level == 1 and node.module == "barrier")
                    or (node.level == 0 and node.module == "graphflow.barrier")):
                found += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []
