"""No module of the package imports a name it never uses, importing the
package loads none of its modules, and importing the CLI loads no module
that only slows every start. Neither the scripts nor the CLI import a private
name of the modules that own the math: they call its public report
functions. `posets` loads none of the matroid modules.

`__init__.py` re-exports nothing: callers import the submodules. An import
marked `# noqa: F401` on its line is kept on purpose and allowed.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "logcavity"
MODULES = sorted(PACKAGE.glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


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


def loaded_by(module):
    """The modules that importing module loads in a fresh interpreter,
    counting only what the import itself loads: a site hook may have loaded
    others before."""
    code = (
        f"import json, sys; before = set(sys.modules); import {module}; "
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
    return json.loads(done.stdout)


def test_package_import_loads_no_submodule():
    loaded = loaded_by("logcavity")
    assert "logcavity" in loaded
    assert not [name for name in loaded if name.startswith("logcavity.")]


def test_cli_import_loads_no_dataclasses_or_inspect():
    loaded = loaded_by("logcavity.cli")
    assert "logcavity.cli" in loaded
    assert {"dataclasses", "inspect"}.isdisjoint(loaded)


def private_imports(source):
    """(module, name) of each `_`-prefixed name the source imports by `from
    module import`; a relative module keeps its leading dots."""
    return [
        ("." * node.level + (node.module or ""), alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_finds_a_private_import():
    source = "\n".join(
        [
            "from logcavity.hodge import _point, value",
            "from . import _x",
            "from .stanley import _log_concave",
            "import logcavity._y",
        ]
    )
    assert private_imports(source) == [
        ("logcavity.hodge", "_point"),
        (".", "_x"),
        (".stanley", "_log_concave"),
    ]


def test_scripts_import_no_private_name():
    found = [
        (path.name, module, name)
        for path in SCRIPTS
        for module, name in private_imports(path.read_text())
        if module.partition(".")[0] == "logcavity"
    ]
    assert found == []


def test_cli_imports_no_private_name_of_the_math_modules():
    owners = {".hodge", ".posets", ".stanley", ".discriminants", ".polynomials"}
    found = private_imports((PACKAGE / "cli.py").read_text())
    assert [f for f in found if f[0] in owners] == []


def test_posets_import_loads_no_matroid_module():
    loaded = loaded_by("logcavity.posets")
    assert "logcavity.posets" in loaded
    kept_out = {"logcavity.stanley", "logcavity.matroids", "logcavity.polynomials"}
    assert kept_out.isdisjoint(loaded)
