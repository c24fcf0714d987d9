"""Module boundaries of the package source, read from the syntax tree."""

from __future__ import annotations

import ast

import pytest

from support import SRC

MODULES = sorted((SRC / "edgegraceful").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_name_is_imported_from_a_sibling(path):
    # a private helper stays with its module; a caller elsewhere needs a public name
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [
        f"line {node.lineno}: {alias.name} from {'.' * node.level}{node.module or ''}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("edgegraceful"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, private
