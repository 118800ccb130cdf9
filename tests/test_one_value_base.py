"""Immutability is written once: `linalg.Record` is the one class of the
package that defines `__setattr__` or `__delattr__`, and the value classes
QMatrix, MPoly, Matroid and Poset take their frozen-object contract from it.
Assigning or deleting any attribute of one raises AttributeError, and equal
values compare equal and hash equally."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from logcavity.linalg import QMatrix, Record
from logcavity.matroids import Matroid
from logcavity.polynomials import MPoly
from logcavity.posets import Poset

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "logcavity"
MODULES = sorted(PACKAGE.glob("*.py"))
HOOKS = {"__setattr__", "__delattr__"}


def immutability_hooks(source):
    """(class, name) for each __setattr__ or __delattr__ that a class body
    in the source defines, by a def or by an assignment, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            found += [(node.name, name) for name in names if name in HOOKS]
    return found


def test_finds_each_way_of_defining_a_hook():
    source = "\n".join(
        [
            "class A:",
            "    def __setattr__(self, *a): pass",
            "class B:",
            "    __delattr__ = object.__delattr__",
            "class C:",
            "    class D:",
            "        __setattr__: object = None",
            "    def other(self): pass",
            "def __setattr__(self, *a): pass",
        ]
    )
    assert immutability_hooks(source) == [
        ("A", "__setattr__"),
        ("B", "__delattr__"),
        ("D", "__setattr__"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_record_defines_the_hooks(path):
    found = immutability_hooks(path.read_text())
    kept = [("Record", "__setattr__"), ("Record", "__delattr__")]
    assert found == (kept if path.name == "linalg.py" else [])


VALUES = {
    "Matroid": (lambda: Matroid.from_bases("abc", [["a", "b"], ["a", "c"]]), "rank"),
    "Poset": (lambda: Poset.from_relations("xyz", [("x", "y")]), "n"),
    "MPoly": (lambda: MPoly(2, {(1, 0): 1, (0, 2): Fraction(1, 2)}), "terms"),
    "QMatrix": (lambda: QMatrix([[1, Fraction(1, 2)], [0, 3]]), "d"),
}


@pytest.mark.parametrize("make, attr", VALUES.values(), ids=VALUES.keys())
def test_values_are_frozen(make, attr):
    value = make()
    for name in (*value._fields, attr):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.other = None
    assert value == make() and getattr(value, attr) == getattr(make(), attr)


@pytest.mark.parametrize("make", [m for m, _ in VALUES.values()], ids=VALUES.keys())
def test_equal_values_hash_equally(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert isinstance(a, Record) and not hasattr(a, "__dict__")


def test_posets_equal_by_their_labelled_presentation():
    a = Poset.from_relations("xyz", [("x", "y"), ("y", "z")])
    b = Poset.from_relations("xyz", [("x", "y"), ("y", "z")])
    assert a == b and hash(a) == hash(b)
    assert Poset(a.labels, a.up) == a
    assert Poset.from_relations("xyz", [("x", "y")]) != a  # another up-mask
    assert Poset.from_relations("zyx", [("x", "y"), ("y", "z")]) != a  # label order


def test_value_classes_take_the_record_dunders():
    # Matroid's equality ignores ground order; MPoly hashes its dict of terms
    kept = {"__eq__", "__hash__", "__repr__"}
    defined = {cls: kept & vars(cls).keys() for cls in (QMatrix, MPoly, Matroid, Poset)}
    assert defined == {
        QMatrix: set(),
        MPoly: {"__hash__"},
        Matroid: {"__eq__", "__hash__", "__repr__"},
        Poset: set(),
    }
