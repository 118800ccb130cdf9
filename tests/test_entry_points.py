"""Byte identity and reach, from one in-process run of the entry points.

Every batch of `scripts/report_digests.py`, `scripts/probe_open_questions.py`
and `scripts/find_ratio_two_witness.py --trials 200` run under a
`sys.setprofile` hook that records each function of the package that runs,
as "module.co_qualname", comprehensions and lambdas aside. A class runs when
a method of it runs, when an `__init__` has an instance of it as `self`, or
when a C function is called while one is the exception being handled.

The digests must equal `tests/golden/report_digests.json`, which
`python3 scripts/report_digests.py` regenerates after an intended change, and
the sha256 of each script run's stdout must equal its entry in
`tests/golden/script_digests.json`, keyed by the run's argv.
What never ran must be NEVER_RUN, each name for a reason that holds, and defs
nested in those; a listed name that runs or is gone fails too.
"""

import ast
import contextlib
import hashlib
import importlib
import io
import json
import runpy
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11), reason="needs co_qualname")
ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "logcavity"
GOLDEN = ROOT / "tests" / "golden" / "report_digests.json"
SCRIPT_GOLDEN = ROOT / "tests" / "golden" / "script_digests.json"
RUNS = ["probe_open_questions.py"], ["find_ratio_two_witness.py", "--trials", "200"]
UNCOUNTED = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>", "<lambda>"}

ACCEPTANCE = "called by tests/test_acceptance.py"
FREEZE = "called by perfbench/freeze.py"
DUNDER = "a data-model dunder"
TIMED = "timed by name in BENCHMARK.json"
ITEM_11 = "ROADMAP item 11 gives it a caller"
VIA = "called only by "
# what no entry point runs, and why each stays in the package
NEVER_RUN = {
    **dict.fromkeys("""
        linalg.Graph.is_connected linalg.inertia linalg.spanning_tree_count
        polynomials.MPoly.degree polynomials.MPoly.hessian_at
        polynomials.coefficient_logconcavity polynomials.polarization_af_analog_check
        posets.Poset.extensions stanley.B_count stanley.mason_sequence zoo.loopless_zoo
        stanley.mixed_volume_zonotopes stanley.zonotope_volume""".split(), ACCEPTANCE),
    **dict.fromkeys("""
        linalg.Record.__eq__ linalg.Record.__repr__ linalg.Record.__setattr__
        matroids.Matroid.__eq__ matroids.Matroid.__hash__ matroids.Matroid.__repr__
        polynomials.MPoly.__hash__""".split(), DUNDER),
    **dict.fromkeys("""
        hodge.hr_form hodge.hl_check hodge.hrr_check linalg.kernel_basis
        linalg.row_space_basis_indices polynomials.MPoly.partial
        polynomials.MPoly.evaluate""".split(), TIMED),
    **dict.fromkeys("""
        posets.stanley_equality_classify posets.StanleyEqualityVerdict
        posets._IdealLattice.adjacent_count""".split(), ITEM_11),
    "linalg.QMatrix.to_json": FREEZE,
    "hodge._positive_point": VIA + "hodge.hl_check, hodge.hrr_check",
    "linalg.QMatrix.m": VIA + "linalg.QMatrix.to_json",
    "linalg.laplacian": VIA + "linalg.spanning_tree_count",
    "matroids.Matroid._key": VIA + "matroids.Matroid.__eq__, matroids.Matroid.__hash__",
    "matroids.Matroid.basis_label_sets": VIA + "matroids.Matroid._key",
    "polynomials.polarization": VIA + "polynomials.polarization_af_analog_check",
    "stanley._assignments": VIA + "stanley.B_count",
    "stanley.MasonReport": VIA + "stanley.mason_sequence",
    "stanley._fresh_boolean": VIA + "stanley.mason_sequence",
}


@pytest.fixture(scope="module")
def run():
    """(the digest object, the names of the package that ran, {argv: the
    sha256 of that script run's stdout})."""
    stems = {}
    for path in PACKAGE.glob("*.py"):
        module = f"logcavity.{path.stem}".removesuffix(".__init__")
        stems[importlib.import_module(module).__file__] = path.stem
    assert {Path(f).parent for f in stems} == {PACKAGE}  # this checkout's package
    ran = set()

    def credit(obj):
        for cls in type(obj).__mro__:
            if cls.__module__.startswith("logcavity."):
                ran.add(f"{cls.__module__[len('logcavity.'):]}.{cls.__qualname__}")

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename in stems and code.co_name not in UNCOUNTED:
                ran.add(f"{stems[code.co_filename]}.{code.co_qualname}")
            if code.co_name == "__init__" and "self" in frame.f_locals:
                credit(frame.f_locals["self"])
        elif event == "c_call" and sys.exception() is not None:
            credit(sys.exception())

    saved = sys.getprofile(), sys.argv, list(sys.path), sys.dont_write_bytecode
    sys.modules["logcavity.cli"]._parser.cache_clear()  # else an earlier test built it
    scripts = {}
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            sys.setprofile(hook)
            runpy.run_path(str(ROOT / "scripts" / "report_digests.py"))["main"]()
        digests = json.loads(out.getvalue())
        for argv in RUNS:
            sys.argv = list(argv)
            with contextlib.redirect_stdout(io.StringIO()) as out:
                runpy.run_path(str(ROOT / "scripts" / argv[0]), run_name="__main__")
            scripts[" ".join(argv)] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    finally:
        sys.setprofile(saved[0])
        sys.argv, sys.path[:], sys.dont_write_bytecode = saved[1:]
    # a method that ran credits its class, and every class around that
    parts = [name.split(".") for name in ran]
    names = {".".join(p[:i]) for p in parts for i in range(2, len(p) + 1)}
    return digests, names, scripts


def definitions(node, prefix=""):
    """{"module.qualname": node} for each def and class under node."""
    out = {}
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[prefix + child.name] = child
            inner = "." if isinstance(child, ast.ClassDef) else ".<locals>."
            out.update(definitions(child, prefix + child.name + inner))
        else:
            out.update(definitions(child, prefix))
    return out


def names(nodes):
    """The identifiers and attribute names among the nodes."""
    return {getattr(n, "id", getattr(n, "attr", None)) for n in nodes}


def callees(path):
    """The names called by the Call nodes of the file at path under ROOT."""
    tree = ast.parse((ROOT / path).read_text())
    return names(n.func for n in ast.walk(tree) if isinstance(n, ast.Call))


def test_reports_match_the_golden_digests(run):
    digests, golden = run[0], json.loads(GOLDEN.read_text())
    keys = digests.keys() | golden.keys()
    changed = sorted(k for k in keys if digests.get(k) != golden.get(k))
    assert not changed, f"report bytes changed at {changed}"


def test_script_output_matches_the_golden_digests(run):
    assert run[2] == json.loads(SCRIPT_GOLDEN.read_text())


def test_what_never_runs_is_allowlisted_for_a_reason_that_holds(run):
    defs = {}
    for path in PACKAGE.glob("*.py"):
        defs.update(definitions(ast.parse(path.read_text()), f"{path.stem}."))
    outer = {n: n.split(".<locals>.")[0] for n in defs.keys() - run[1]}
    never = {n for n, o in outer.items() if o == n or o not in NEVER_RUN}
    assert sorted(never - NEVER_RUN.keys()) == [], "never ran"
    assert sorted(NEVER_RUN.keys() - never) == [], "ran, or is gone"
    acceptance = callees("tests/test_acceptance.py")
    freeze = callees("perfbench/freeze.py")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for name, reason in NEVER_RUN.items():
        module, last = name.partition(".")[0], name.rpartition(".")[2]
        if reason.startswith(VIA):
            by = reason.removeprefix(VIA).split(", ")
            held = all(c in NEVER_RUN and last in names(ast.walk(defs[c])) for c in by)
        else:
            held = {
                ACCEPTANCE: last in acceptance,
                FREEZE: last in freeze,
                DUNDER: last.startswith("__") and last.endswith("__"),
                TIMED: any(m["name"].startswith(f"{module}.{last}.") for m in metrics),
                ITEM_11: True,  # a dated exception; the roadmap item names each
            }[reason]
        assert held, (name, reason)
