"""Every public name of the package is reached from what runs it.

A name-based pass. The roots are every name the CLI module, the scripts,
the benchmark and the acceptance tests read, import or take as an
attribute, every `cmd_*` function, which the CLI looks up in its globals,
and every function a per-layer metric of BENCHMARK.json times, which the
benchmark's tracer finds by name. A reached name reaches every name read in
a package function, class or method of that name; a class reaches its own
body and its dunder methods. A method is reached only through an attribute
of its name (`x.name`), a top-level function or class through a plain name
or an attribute (`module.name`), and a root reaches both. An attribute of a
str or bytes literal (`", ".join`) is a method of that type and reaches
nothing; one of a name the same file binds by `import x` (`json.loads`) is
a top-level name of that module, so it reaches no method. Every public
top-level function and class, public method and name `__init__.py` exports
must be reached: a name only unit tests call belongs in a test oracle or
nowhere. A shared name can hide a dead definition. It can report a live
one only where a name the file binds by `import x` is also a local: then
`x.method()` reads as the plain name `method`, never as a method.

Names are all this pass reads, so it cannot see code that never runs
under a reached name: a reached class credits every dunder method, its
operators included, and a reached function every default-argument path. A
line trace of the entry points is the check for those.

An error class is told apart only where it is caught: each class of
`errors.py` must be named by an `except` clause or an `isinstance` call of
the CLI module or a script, or it is one class too many.
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


def _read(node, modules=frozenset()):
    """The names the node reads: identifiers and imports as they are, and
    attributes with a leading "." (`x.name` reads ".name"), except that an
    attribute of a str or bytes literal reads nothing and one of a name in
    modules reads the plain name."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            owner = sub.value
            literal = isinstance(owner, ast.JoinedStr) or (
                isinstance(owner, ast.Constant) and type(owner.value) in (str, bytes)
            )
            if literal:
                continue
            of_module = isinstance(owner, ast.Name) and owner.id in modules
            out.add(sub.attr if of_module else "." + sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _modules(tree):
    """The names the `import` statements of the tree bind."""
    return {
        alias.asname or alias.name.split(".")[0]
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Import)
        for alias in sub.names
    }


def unreached(modules, entry_sources, exports=(), roots=()):
    """The sorted public names of the modules ({name: source}; a method as
    `Class.method`) and exports that neither the entry sources nor the root
    names reach."""
    public, defs = {name: name for name in exports}, {}
    todo = set(roots) | {"." + name for name in roots}
    for source in modules.values():
        tree = ast.parse(source)
        imported = _modules(tree)
        for node in tree.body:
            if not isinstance(node, DEFS):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    todo |= _read(node, imported)
                continue
            if not node.name.startswith("_"):
                public[node.name] = node.name
            own = set() if isinstance(node, ast.ClassDef) else _read(node, imported)
            # a plain name or an attribute of it reaches a top-level def
            for key in (node.name, "." + node.name):
                defs.setdefault(key, set()).update(own)
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not isinstance(item, DEFS) or item.name.startswith("__"):
                    for key in (node.name, "." + node.name):
                        defs[key] |= _read(item, imported)
                    continue
                defs.setdefault("." + item.name, set()).update(_read(item, imported))
                if not item.name.startswith("_"):
                    public[f"{node.name}.{item.name}"] = "." + item.name
    for source in entry_sources:
        tree = ast.parse(source)
        todo |= _read(tree, _modules(tree))
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo |= defs.get(name, set()) - reached
    return sorted(
        shown
        for shown, name in public.items()
        if name not in reached and "." + name not in reached
    )


def caught(source):
    """The names the `except` clauses and `isinstance` calls of the source
    test against."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            out |= _read(node.type)
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance":
            out |= _read(node.args[1])
    return {name.lstrip(".") for name in out}


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
    # a method is reached through an attribute, not a plain name
    assert unreached(modules, [entry + "\nsurface = paint"]) == unused[:3]
    assert unreached(modules, [entry + "\nBox.surface"]) == unused[1:3]
    # an attribute of a str or bytes literal is a method of its type
    literals = entry + "\n', '.surface(f'{1}'.surface, b''.paint)"
    assert unreached(modules, [literals]) == unused
    # an attribute of an imported module is a top-level name, never a method
    imported = entry + "\nimport tools, os.path as op\ntools.surface(op.paint())"
    assert unreached(modules, [imported]) == unused[:3]


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
    # the names that only a per-layer metric keeps alive: timed functions
    # nothing that runs calls, which ROADMAP item 1 settles with their
    # metrics; pinned so that no other metric-only code lands unnoticed
    metric_only = [
        *("hl_check", "hr_form", "hrr_check"),
        *("kernel_basis", "row_space_basis_indices"),
    ]
    assert unreached(modules, entries, exports, commands) == metric_only
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
