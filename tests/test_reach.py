"""Two rules on names, beside the execution check of `test_entry_points.py`.

Each class of `errors.py` is named by an `except` clause or an `isinstance`
call of the CLI module or a script: an error class is told apart only where
it is caught. The benchmark's tracer resolves a per-layer metric
"module.name.<counter>" of BENCHMARK.json to the one function or method of
that name in the module, so each such name is defined there exactly once.
"""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "logcavity"


def caught(source):
    """The names that the `except` clauses and `isinstance` calls test against."""
    tested = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            tested.append(node.type)
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance":
            tested.append(node.args[1])
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for node in tested
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def test_finds_a_caught_name():
    source = """
try:
    pass
except (A, errors.B):
    pass
except C as e:
    if isinstance(e, (D, E)) or issubclass(F, G):
        pass
raise H()
"""
    assert caught(source) == {"A", "errors", "B", "C", "D", "E"}


def test_every_error_class_is_caught_by_an_entry_point():
    classes = {
        node.name
        for node in ast.parse((PACKAGE / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)
    }
    entries = [PACKAGE / "cli.py", *sorted((ROOT / "scripts").glob("*.py"))]
    named = set().union(*(caught(p.read_text()) for p in entries))
    assert sorted(classes - named) == []


def test_every_timed_name_is_defined_once():
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    timed = [metric["name"].split(".") for metric in metrics]
    # whole-run, per-command and per-module metrics have fewer parts
    for module, name, *_ in (parts for parts in timed if len(parts) == 3):
        defined = [
            node.name
            for top in ast.parse((PACKAGE / f"{module}.py").read_text()).body
            for node in [top, *(top.body if isinstance(top, ast.ClassDef) else [])]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        assert defined.count(name) == 1, (module, name)
