"""Only fanosing.linalg knows how a scalar is stored: no other module of
the package names Fp or reads a residue's .v attribute.  The test-local
reference substitution imports only the form classes and the field types."""

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


# tests/reference.py checks forms._expand, so it may use the form classes
# and the field types but nothing that substitutes, contracts or reduces.
_REFERENCE = Path(__file__).parent / "reference.py"
_REFERENCE_NAMES = {"MultiForm", "BinaryForm", "Field", "Fp", "QQ"}


def _reference_reach(tree):
    """(line, name) for each import of the package other than the allowed
    names, and for each private attribute the module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "fanosing":
                    yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "fanosing":
            for alias in node.names:
                if alias.name not in _REFERENCE_NAMES:
                    yield node.lineno, alias.name
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            yield node.lineno, node.attr


def test_reference_is_independent_of_the_kernel():
    tree = ast.parse(_REFERENCE.read_text(), filename=str(_REFERENCE))
    assert list(_reference_reach(tree)) == []
    bad = ast.parse("from fanosing.forms import MultiForm, _expand\n"
                    "from fanosing.linalg import rank\nimport fanosing.forms\n"
                    "x = P._times(Q)\n")
    assert [name for _, name in _reference_reach(bad)] == \
        ["_expand", "rank", "fanosing.forms", "_times"]
