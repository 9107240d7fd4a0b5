"""Only fanosing.linalg knows how a scalar is stored: no other module of
the package names Fp or reads a residue's .v attribute.  The test-local
reference substitution imports only the form classes and the field types.
Every public name of the package has a caller or a stated reason to stay,
and no source of the package compiles with a warning."""

import ast
import warnings
from collections import Counter
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


# Public module-level functions and classes that no code of the package or
# of perfbench/*.py reads, each with the reason it stays.
_TRACED = "tracer target: perfbench/tracer.py names it only as a string"
_REFERENCE_FOR_TESTS = "a reference the tests compare against"
_CONSTRUCTION = ("a construction of the paper that the README documents and "
                 "no kept public call reproduces")
_UNCALLED = {
    "forms.contract": _TRACED,
    "forms.restrict_to_plane": _TRACED,
    "linalg.rref": _TRACED,
    "singular.singular_on_line": _TRACED,
    "linalg.echelon_complement": _REFERENCE_FOR_TESTS,
    "singular.projective_points": _REFERENCE_FOR_TESTS,
    "singular.is_singular_at": _REFERENCE_FOR_TESTS,
    "ideal.max_multiplicity_at": _CONSTRUCTION,
    "ideal.pure_power_locus": _CONSTRUCTION,
    "pencil.has_decomposable": _CONSTRUCTION,
    "tangent.quotient_section": _CONSTRUCTION,
    "tangent.tangent_cone_lines": _CONSTRUCTION,
    "singular.singular_points": "the exhaustive scan of Sing(X) that the "
                                "nodal corpus, the exact cubic line count and "
                                "the smoothness certificate of ROADMAP items "
                                "11, 19 and 20 read",
}

_PACKAGE = Path(fanosing.__file__).parent
_SOURCES = sorted(path for path in _PACKAGE.glob("*.py")
                  if path.name != "__init__.py")
_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _reads(tree):
    """How often each identifier is read, as a Name or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _uncalled(modules, others):
    """'module.name' for each public module-level function or class of the
    {module: tree} map that nothing outside its own definition reads, in
    the modules or in the other trees."""
    reads = sum(map(_reads, [*modules.values(), *others]), Counter())
    return sorted("%s.%s" % (module, node.name)
                  for module, tree in modules.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_")
                  and reads[node.name] == _reads(node)[node.name])


def test_every_public_name_has_a_caller_or_a_reason():
    """A listed name that gains a caller fails too: its entry goes."""
    def parse(path):
        return ast.parse(path.read_text(), filename=str(path))
    modules = {path.stem: parse(path) for path in _SOURCES}
    others = [parse(path) for path in (_PACKAGE / "__init__.py",
                                       *sorted(_PERFBENCH.glob("*.py")))]
    uncalled = _uncalled(modules, others)
    assert [name for name in uncalled if name not in _UNCALLED] == []
    assert [name for name in _UNCALLED if name not in uncalled] == []
    assert all(_UNCALLED.values())
    toy = {"m": ast.parse("def f(): return g()\ndef g(): return g()\n"
                          "class C: pass\ndef _h(): pass\n")}
    assert _uncalled(toy, [ast.parse("x.C")]) == ["m.f"]


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_source_compiles_without_warnings(path):
    """Cached bytecode skips compile-time warnings, such as an invalid
    escape in a docstring, so compile each source afresh."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")
