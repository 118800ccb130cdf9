"""Input text becomes a number in one module: no module of the package but
`linalg.py` names `_check_digits`, so the digit limit is checked where
`linalg._rational` and `linalg._json_int` read a number, before it is
built, and `cli.py` builds a Fraction only from constants, so every rational
the CLI reads from text comes through `linalg._rational`."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "logcavity"
MODULES = sorted(PACKAGE.glob("*.py"))
OTHERS = [p for p in MODULES if p.name != "linalg.py"]


def references(source, name):
    """The line numbers where the source names name: as a variable, an
    attribute or an imported name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == name:
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == name:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names):
            lines.append(node.lineno)
    return sorted(lines)


def test_finds_each_way_of_naming_a_function():
    source = "\n".join(
        [
            "from .linalg import QMatrix, _check_digits",
            "from .linalg import _check_digits as check",
            "_check_digits(text, 'x')",
            "linalg._check_digits(text, 'x')",
            "f = _check_digits",
            "_check_digits_too(text)",
            "s = '_check_digits'",
        ]
    )
    assert references(source, "_check_digits") == [1, 2, 3, 4, 5]


def test_linalg_checks_the_digits():
    assert references((PACKAGE / "linalg.py").read_text(), "_check_digits")


@pytest.mark.parametrize("path", OTHERS, ids=lambda p: p.name)
def test_no_other_module_checks_digits(path):
    assert references(path.read_text(), "_check_digits") == []


def fractions_built(source):
    """The line numbers of the calls to Fraction, through a name bound to
    the fractions module or to fractions.Fraction by an import, with an
    argument that is not a constant (a sign before a number counts as one)."""
    tree = ast.parse(source)
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "fractions"}
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            names |= {a.asname or a.name for a in node.names if a.name == "Fraction"}

    def constant(arg):
        if isinstance(arg, ast.UnaryOp) and isinstance(arg.op, (ast.USub, ast.UAdd)):
            arg = arg.operand
        return isinstance(arg, ast.Constant)

    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        by_module = isinstance(f, ast.Attribute) and f.attr == "Fraction"
        by_module = by_module and isinstance(f.value, ast.Name) and f.value.id in modules
        by_name = isinstance(f, ast.Name) and f.id in names
        args = node.args + [k.value for k in node.keywords]
        if (by_module or by_name) and not all(map(constant, args)):
            lines.append(node.lineno)
    return sorted(lines)


def test_finds_each_way_of_building_a_fraction():
    source = "\n".join(
        [
            "import fractions",
            "from fractions import Fraction, Fraction as Q",
            "a = Fraction(text)",
            "b = fractions.Fraction(1, n)",
            "c = Q(numerator=x)",
            "d = Fraction(1)",
            "e = Fraction(-1, 2)",
            "f = isinstance(x, Fraction)",
            "g = other.Fraction(text)",
        ]
    )
    assert fractions_built(source) == [3, 4, 5]


def test_cli_builds_fractions_only_from_constants():
    assert fractions_built((PACKAGE / "cli.py").read_text()) == []
