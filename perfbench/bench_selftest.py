"""Tests of the benchmark itself. They are kept out of the repository's
default test run; run them with

    python3 -m pytest -q perfbench/bench_selftest.py
"""

import contextlib
import importlib
import inspect
import io
import itertools
import json
import random
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from oracles import IdealLattice, down_masks, spanning_trees  # noqa: E402
from tracer import TRACED_MODULES, Tracer  # noqa: E402

cli = run.import_program()


def attribute_snapshot():
    """Every attribute of every logcavity module and of the classes they
    define, by identity."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name != "logcavity" and not name.startswith("logcavity."):
            continue
        for attr, obj in vars(mod).items():
            snap[(name, attr)] = obj
            if inspect.isclass(obj) and obj.__module__ == name:
                for meth, raw in vars(obj).items():
                    snap[(name, attr, meth)] = raw
    return snap


def test_wrappers_restore_module_attributes():
    for name in TRACED_MODULES:
        importlib.import_module(f"logcavity.{name}")
    before = attribute_snapshot()
    linalg = sys.modules["logcavity.linalg"]
    hodge = sys.modules["logcavity.hodge"]
    tracer = Tracer()
    tracer.install()
    try:
        # a name bound by `from .linalg import inertia` is traced as well
        assert linalg.inertia is not before[("logcavity.linalg", "inertia")]
        assert hodge.inertia is linalg.inertia
    finally:
        tracer.restore()
    after = attribute_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def traced_pass(workload, budget, tmp_path):
    pools = workloads.load_pools() if workload != "posets" else None
    ops = workloads.build(workload, 7, budget, pools)
    workloads.write_inputs(ops, tmp_path / "in")
    tracer = Tracer()
    tracer.install()
    try:
        results = run.run_pass(cli, ops, tmp_path / "out", tracer)
    finally:
        tracer.restore()
    return ops, results, tracer


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_sum_to_traced_wall_time(workload, tmp_path):
    ops, results, tracer = traced_pass(workload, 0.5, tmp_path)
    assert all(r["rc"] == 0 for r in results)
    roots = tracer.root_time()
    assert sum(tracer.self_times().values()) == pytest.approx(roots, rel=1e-9)
    wall = run.total(results)
    assert 0.95 * wall <= roots <= wall
    assert all(s.self_time >= -1e-9 for s in tracer.spans)


def test_traced_structure(tmp_path):
    _, _, tracer = traced_pass("gorenstein", 0.5, tmp_path / "g")
    counts = tracer.counts
    assert counts["hodge.graded_evaluation.calls"] > counts["hodge.graded_evaluation.distinct"]
    ops, _, tracer = traced_pass("posets", 0.5, tmp_path / "p")
    kahnsaks = sum(1 for op in ops if op["cmd"] == "kahnsaks")
    assert tracer.counts["posets.Poset.extensions.passes"] > kahnsaks > 0
    assert not any(k.startswith("linalg.") and v for k, v in tracer.counts.items())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_has_no_failures(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
        )
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names


def test_same_seed_same_batch():
    pools = workloads.load_pools()
    for workload in workloads.WORKLOADS:
        first = workloads.build(workload, 11, 3, pools if workload != "posets" else None)
        again = workloads.build(workload, 11, 3, pools if workload != "posets" else None)
        assert first == again
        keys = [json.dumps([op["cmd"], op["files"], op["args"]], sort_keys=True) for op in first]
        assert len(keys) == len(set(keys))


def test_wrong_answers_are_caught():
    pools = workloads.load_pools()
    op = next(o for o in pools["gorenstein"]["named"][0]["fixed"] if o["cmd"] == "matroid")
    report = {"results": dict(op["expect"]["fields"]), "violations": [], "findings": []}
    assert checks.answer_errors(op, 0, report) == []
    report["results"]["graded_dims"] = report["results"]["graded_dims"][::-1] + [1]
    assert checks.answer_errors(op, 0, report)
    assert checks.answer_errors(op, 2, report)


def brute_extensions(n, below):
    for order in itertools.permutations(range(n)):
        placed = 0
        for e in order:
            if below[e] & ~placed:
                break
            placed |= 1 << e
        else:
            yield order


def test_ideal_oracles_against_brute_force():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 6)
        labels = [f"v{i}" for i in range(n)]
        rel = [[labels[i], labels[j]] for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        below = down_masks(labels, rel)
        lattice = IdealLattice(below)
        orders = list(brute_extensions(n, below))
        assert lattice.extensions == len(orders)
        for e in range(n):
            assert lattice.position_counts(e) == [
                sum(1 for o in orders if o.index(e) == k) for k in range(n)
            ]
        if n >= 2:
            x, y = rng.sample(range(n), 2)
            assert lattice.gap_counts(x, y) == [
                sum(1 for o in orders if o.index(y) - o.index(x) == k) for k in range(1, n)
            ]


def test_kirchhoff_against_brute_force():
    edges = [(0, 1), (0, 1), (1, 2), (2, 0), (2, 3), (3, 0)]

    def is_tree(subset):
        parent = list(range(4))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    trees = sum(1 for s in itertools.combinations(edges, 3) if is_tree(s))
    assert spanning_trees(4, edges) == trees


def teardown_module():
    shutil.rmtree(run.WORK, ignore_errors=True)
