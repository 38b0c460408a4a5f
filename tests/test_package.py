"""The package root: its public API is what it imports from its modules."""

import ast
from pathlib import Path
from types import ModuleType

import hybridgi


def imported_names() -> list[str]:
    """The names that the ``from .module import (...)`` blocks of __init__.py bind."""
    tree = ast.parse(Path(hybridgi.__file__).read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_all_is_the_imported_names():
    names = imported_names()
    assert sorted(hybridgi.__all__) == sorted(names)
    assert len(set(names)) == len(names)


def test_star_import_binds_the_imported_names_and_no_module():
    star = {}
    exec("from hybridgi import *", star)
    del star["__builtins__"]
    assert set(star) == set(imported_names())
    assert not any(isinstance(value, ModuleType) for value in star.values())
