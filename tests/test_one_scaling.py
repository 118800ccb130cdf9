"""Rationals become integers in one place: no module of the package but
`linalg.py` calls `math.lcm`, so `linalg._scaled` alone decides how a
rational row, matrix or point is cleared of its denominators. A QMatrix is
scaled once, by its constructor: no module applies `_scaled` to a `.m`
attribute, a matrix's Fraction view, to scale it again."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "logcavity"
MODULES = sorted(PACKAGE.glob("*.py"))
OTHERS = [p for p in MODULES if p.name != "linalg.py"]


def lcm_calls(source):
    """The line numbers of the calls to math.lcm in the source: through a
    name bound to the math module or to math.lcm by an import."""
    tree = ast.parse(source)
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "math"}
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names |= {a.asname or a.name for a in node.names if a.name == "lcm"}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        by_module = isinstance(f, ast.Attribute) and f.attr == "lcm"
        if by_module and isinstance(f.value, ast.Name) and f.value.id in modules:
            lines.append(node.lineno)
        elif isinstance(f, ast.Name) and f.id in names:
            lines.append(node.lineno)
    return sorted(lines)


def test_finds_each_way_of_calling_lcm():
    source = "\n".join(
        [
            "import math",
            "import math as m",
            "from math import lcm as least",
            "a = math.lcm(2, 3)",
            "b = m.lcm(2, 3)",
            "c = least(2, 3)",
            "d = math.gcd(2, 3)",
            "e = other.lcm(2, 3)",
        ]
    )
    assert lcm_calls(source) == [4, 5, 6]


def test_linalg_is_where_denominators_are_cleared():
    assert lcm_calls((PACKAGE / "linalg.py").read_text())


@pytest.mark.parametrize("path", OTHERS, ids=lambda p: p.name)
def test_no_other_module_calls_lcm(path):
    assert lcm_calls(path.read_text()) == []


def matrix_scalings(source):
    """The line numbers of the calls to `_scaled`, by name or attribute,
    with an argument that reads a `.m` attribute anywhere inside it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        args = node.args + [k.value for k in node.keywords]
        reads = (sub for arg in args for sub in ast.walk(arg))
        if name == "_scaled" and any(
            isinstance(sub, ast.Attribute) and sub.attr == "m" for sub in reads
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_finds_each_way_of_scaling_a_matrix():
    source = "\n".join(
        [
            "a = _scaled(x.m)",
            "b = linalg._scaled(rows=[row for row in x.m])",
            "c = _scaled(c for f in fs for c in zip(*f.m))",
            "d = _scaled(x.ints)",
            "e = _scaled([x.mass])",
            "f = other(x.m)",
        ]
    )
    assert matrix_scalings(source) == [1, 2, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_scales_a_matrix_again(path):
    assert matrix_scalings(path.read_text()) == []
