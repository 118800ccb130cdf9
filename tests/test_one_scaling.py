"""Rationals become integers in one place: no module of the package but
`linalg.py` calls `math.lcm`, so `linalg._scaled` alone decides how a
rational row, matrix or point is cleared of its denominators."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "logcavity"
OTHERS = sorted(p for p in PACKAGE.glob("*.py") if p.name != "linalg.py")


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
