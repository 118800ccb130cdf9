"""Every public name of the package is reached from what runs it.

A name-based pass. The roots are every name the CLI module, the scripts,
the benchmark and the acceptance tests read, import or take as an
attribute, every `cmd_*` function, which the CLI looks up in its globals,
and every function a per-layer metric of BENCHMARK.json times, which the
benchmark's tracer finds by name. A reached name reaches every name read in a package function,
class or method of that name; a class reaches its own body and its dunder
methods. Every public top-level function and class, public method and name
`__init__.py` exports must be reached: a name only unit tests call belongs
in a test oracle or nowhere. A shared name can hide a dead definition; it
never reports a live one.
"""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "logcavity"
ENTRY_POINTS = [
    PACKAGE / "cli.py",
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _read(node):
    """The names the node reads: identifiers, attributes and imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def unreached(modules, entry_sources, exports=(), roots=()):
    """The sorted public names of the modules ({name: source}; a method as
    `Class.method`) and exports that neither the entry sources nor the root
    names reach."""
    public, defs, todo = {name: name for name in exports}, {}, set(roots)
    for source in modules.values():
        for node in ast.parse(source).body:
            if not isinstance(node, DEFS):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    todo |= _read(node)
                continue
            if not node.name.startswith("_"):
                public[node.name] = node.name
            own = defs.setdefault(node.name, set())
            if not isinstance(node, ast.ClassDef):
                own |= _read(node)
                continue
            for item in node.body:
                if not isinstance(item, DEFS) or item.name.startswith("__"):
                    own |= _read(item)
                    continue
                defs.setdefault(item.name, set()).update(_read(item))
                if not item.name.startswith("_"):
                    public[f"{node.name}.{item.name}"] = item.name
    for source in entry_sources:
        todo |= _read(ast.parse(source))
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo |= defs.get(name, set()) - reached
    return sorted(shown for shown, name in public.items() if name not in reached)


def test_finds_an_unreached_name():
    source = """
class Box:
    def __init__(self):
        self.side = unit()
    def volume(self):
        return cube(self.side)
    def surface(self):
        return paint()
def unit():
    return 1
def cube(x):
    return x ** 3
def paint():
    return 0
def only_tested():
    return helper()
def helper():
    return 2
"""
    modules = {"shapes": source}
    entry = "from shapes import Box\nprint(Box().volume())"
    unused = ["Box.surface", "helper", "only_tested", "paint"]
    assert unreached(modules, [entry], ["paint", "Box"]) == unused
    assert unreached(modules, [entry + "\nprint(only_tested())"]) == unused[::3]
    assert unreached(modules, [entry], roots=["surface"]) == unused[1:3]


def test_every_public_name_is_reached_and_every_timed_one_defined():
    modules = {
        p.stem: p.read_text() for p in PACKAGE.glob("*.py") if p.name != "__init__.py"
    }
    trees = {stem: ast.parse(source) for stem, source in modules.items()}
    commands = [
        node.name
        for node in trees["cli"].body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
    ]
    assert len(commands) == 9  # one per subcommand
    exports = [
        alias.asname or alias.name
        for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    timed = [metric["name"].split(".") for metric in metrics]
    roots = commands + [part for parts in timed for part in parts]
    entries = [p.read_text() for p in ENTRY_POINTS]
    assert unreached(modules, entries, exports, roots) == []
    # the tracer resolves "module.name.<counter>" to the one public function
    # or method of that name in the module; whole-run, per-command and
    # per-module metrics have fewer parts
    for module, name, *_ in (parts for parts in timed if len(parts) == 3):
        if module in trees:
            defined = [
                node.name
                for top in trees[module].body
                for node in [top, *(top.body if isinstance(top, ast.ClassDef) else [])]
                if isinstance(node, DEFS[:2])
            ]
            assert defined.count(name) == 1, (module, name)
