"""Source hygiene: no module of the package imports a name it does not use,
or reaches into another object's private attributes."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "newcart"


def unused_imports(source):
    """(line, name) of every imported name that `source` never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                         for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom . import geometry\nimport numpy as np\nnp.x\n") == [
        (1, "os"), (2, "geometry")]


# __init__.py imports in order to re-export
@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}),
                         ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_reaches(source):
    """(line, text) of every single-underscore attribute taken from
    anything but self or cls; dunders are exempt."""
    return sorted((node.lineno, ast.unparse(node)) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and not (node.attr.startswith("__") and node.attr.endswith("__"))
                  and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")))


def test_private_reaches_are_found():
    source = "self._a\ncls._b.c\nobject.__setattr__\nconnection._kit.program\nx = y()._z\n"
    assert private_reaches(source) == [(4, "connection._kit"), (5, "y()._z")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_private_reach_through(path):
    assert private_reaches(path.read_text(encoding="utf-8")) == []
