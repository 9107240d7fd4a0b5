"""Only fanosing.linalg knows how a scalar is stored: no other module of
the package names Fp or reads a residue's .v attribute."""

import ast
from pathlib import Path

import pytest

import fanosing

# The package root only re-exports linalg's public names, Fp among them.
_MODULES = sorted(path for path in Path(fanosing.__file__).parent.glob("*.py")
                  if path.name not in ("linalg.py", "__init__.py"))


def _storage_reads(tree):
    """(line, name) for each Fp name, import or attribute and each .v read;
    strings and docstrings are constants, so they never match."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("Fp", "v"):
            yield node.lineno, node.attr
        elif isinstance(node, ast.Name) and node.id == "Fp":
            yield node.lineno, node.id
        elif isinstance(node, ast.alias) and "Fp" in (node.name, node.asname):
            yield node.lineno, node.name


def test_modules_are_found():
    assert {"forms.py", "tangent.py", "singular.py"} <= {p.name for p in _MODULES}


@pytest.mark.parametrize("path", _MODULES, ids=lambda path: path.name)
def test_scalar_storage_stays_in_linalg(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(_storage_reads(tree)) == []
