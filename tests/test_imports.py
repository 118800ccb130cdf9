"""No module of the package imports a name it never uses, and importing
the CLI loads no module that only slows every start.

`__init__.py` is skipped: its imports are the package's public names. An
import marked `# noqa: F401` on its line is kept on purpose and allowed.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "logcavity"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each name the source imports and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append((alias.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_finds_an_unused_import():
    source = "\n".join(
        [
            "import math",
            "from os import path, sep  # noqa: F401",
            "from os import getcwd",
            "print(getcwd())",
        ]
    )
    assert unused_imports(source) == [(1, "math")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_cli_import_loads_no_dataclasses_or_inspect():
    # in a fresh interpreter, counting only what the import itself loads: a
    # site hook may have loaded either module before
    code = (
        "import json, sys; before = set(sys.modules); import logcavity.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert "logcavity.cli" in loaded
    assert {"dataclasses", "inspect"}.isdisjoint(loaded)
