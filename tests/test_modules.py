"""Module boundaries of the package source, read from the syntax tree."""

from __future__ import annotations

import ast

import pytest

import edgegraceful
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


# the one class that may write a record's slots: Record's constructor stores
# every record
SLOT_WRITERS = {("graphs.py", "Record")}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_record_uses_object_setattr(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    writers = [
        f"line {node.lineno}: in {getattr(top, 'name', 'module scope')}"
        for top in tree.body
        if (path.name, getattr(top, "name", None)) not in SLOT_WRITERS
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
    ]
    assert not writers, writers


# the one function that may write slots through their descriptors
# (<Class>.<slot>.__set__): solve_factor_pairs fills FactorPairRow's five
# slots that way because building the rows through Record.__init__ took a
# 1 536-row table from 2.8 to 4.6-5.4 ms
DESCRIPTOR_WRITERS = {("diophantine.py", "solve_factor_pairs")}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_row_fill_reads_slot_setters(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    writers = [
        f"line {node.lineno}: in {getattr(top, 'name', 'module scope')}"
        for top in tree.body
        if (path.name, getattr(top, "name", None)) not in DESCRIPTOR_WRITERS
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "__set__"
    ]
    assert not writers, writers


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_is_named_like_a_public_name(path):
    # importing edgegraceful.<stem> binds the module as the package attribute
    # <stem>, which would shadow a public name loaded on first use
    assert path.stem not in edgegraceful.__all__
