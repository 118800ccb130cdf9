"""A matroid's size meets its cap in one place: `matroids._check_elements`
is the one function of `matroids.py` that constructs `TooLarge`, and each
constructor calls it before any loop or call beyond reading its arguments.
`cli.py` constructs no `TooLarge`: it passes --cap-elements on to the
constructors instead of counting the elements of an input itself."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "logcavity"
CONSTRUCTORS = ["from_bases", "uniform", "graphic", "linear"]
READS = {"tuple", "len"}  # calls that only read a constructor's arguments


def called(node):
    """The name of the function a Call node calls, by name or attribute."""
    f = node.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def too_large_builders(source):
    """The name of the innermost def around each call to TooLarge, in source
    order; None at module level."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and called(child) == "TooLarge":
                found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def work_before_check(function):
    """The line numbers of the loops, comprehensions and calls (other than
    READS) in the statements of function before the one that calls
    `_check_elements`; None if no statement calls it."""
    work = (ast.For, ast.While, ast.comprehension, ast.Call)
    lines = []
    for stmt in function.body:
        nodes = list(ast.walk(stmt))
        if any(isinstance(n, ast.Call) and called(n) == "_check_elements" for n in nodes):
            return sorted(lines)
        for n in nodes:
            if isinstance(n, work) and not (isinstance(n, ast.Call) and called(n) in READS):
                lines.append(getattr(n, "lineno", stmt.lineno))
    return None


def methods(path, cls):
    tree = ast.parse(path.read_text())
    body = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls).body
    return {n.name: n for n in body if isinstance(n, ast.FunctionDef)}


def test_finds_each_way_of_constructing_too_large():
    source = "\n".join(
        [
            "def f():",
            "    raise TooLarge('a')",
            "def g():",
            "    def h():",
            "        return errors.TooLarge('b')",
            "    return isinstance(h(), TooLarge)",
            "c = TooLarge",
            "d = TooLarge('c')",
        ]
    )
    assert too_large_builders(source) == ["f", "h", None]


def test_finds_work_before_the_check():
    source = "\n".join(
        [
            "def f(ground, graph, cap):",
            "    '''doc'''",
            "    ground = tuple(ground)",
            "    n = len(graph.edges)",
            "    ids = {x: i for i, x in enumerate(ground)}",
            "    _check_elements(n, cap)",
            "def g(n):",
            "    return n",
        ]
    )
    f, g = ast.parse(source).body
    assert work_before_check(f) == [5, 5]
    assert work_before_check(g) is None


def test_matroids_checks_the_size_in_one_function():
    assert too_large_builders((PACKAGE / "matroids.py").read_text()) == [
        "_check_elements"
    ]


def test_cli_constructs_no_too_large():
    assert too_large_builders((PACKAGE / "cli.py").read_text()) == []


@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_each_constructor_checks_first(name):
    assert work_before_check(methods(PACKAGE / "matroids.py", "Matroid")[name]) == []
