import ast
from pathlib import Path

import rowsparse

PACKAGE = Path(rowsparse.__file__).parent
# built only by callers of the package: the one explicit host of the generic float path
NO_INTERNAL_CALLER = {"MatrixRows"}
# how draws are grouped into walks; other modules read it through RowFamily.walk_size()
WALK_CONSTANTS = {"WALK_ENTRIES", "BATCH_WALK_MIN", "DOWNDATE_ENTRIES"}


def _names_read(path):
    """Every name a module's code reads, bare or as an attribute; def, class and import
    lines, comments and docstrings read none."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_is_read_inside_the_package():
    init = PACKAGE / "__init__.py"
    exports = {
        alias.asname or alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    read = set().union(*(_names_read(p) for p in PACKAGE.glob("*.py") if p != init))
    assert exports >= NO_INTERNAL_CALLER
    assert sorted(exports - read - NO_INTERNAL_CALLER) == []


def test_only_sampling_reads_the_walk_constants():
    readers = {
        p.name: sorted(_names_read(p) & WALK_CONSTANTS)
        for p in PACKAGE.glob("*.py")
        if p.name != "sampling.py"
    }
    assert {name: found for name, found in readers.items() if found} == {}
