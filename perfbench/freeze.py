"""Build `pools.json`: the instances of the gorenstein and certificates
workloads, each with its frozen answer and its measured cost.

Run from the repository root, on the commit whose answers are to be frozen:

    python3 perfbench/freeze.py

The instances come from a fixed seed and are stored explicitly, so later
changes to the program's generators cannot change them. Costs are the
median of COST_REPS timings in the reference seconds of `run.py`; they only
steer how many instances fill a run's budget.
"""

import json
import random
import sys
import shutil
import statistics
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from checks import project  # noqa: E402
from workloads import POOLS, write_inputs  # noqa: E402

from logcavity import zoo  # noqa: E402
from logcavity.linalg import Graph  # noqa: E402
from logcavity.matroids import Matroid  # noqa: E402

POOL_SEED = 20240417
COST_REPS = 3
POINTS_PER_MATROID = 8
GRAPHS = 40
STANLEY_SPLITS = 40
LORENTZIAN_GRAPHS = 16
DISCRIMINANT_TUPLES = 30


def complete(n):
    return {"vertices": n, "edges": [[i, j] for i in range(n) for j in range(i + 1, n)]}


def bipartite(a, b):
    return {"vertices": a + b, "edges": [[i, a + j] for i in range(a) for j in range(b)]}


NAMED = {
    "K4": {"type": "graphic", "graph": complete(4)},
    "K2,3": {"type": "graphic", "graph": bipartite(2, 3)},
    "K5": {"type": "graphic", "graph": complete(5)},
    "K3,3": {"type": "graphic", "graph": bipartite(3, 3)},
    "U3,7": {"type": "uniform", "k": 3, "n": 7},
    "U4,8": {"type": "uniform", "k": 4, "n": 8},
}
LORENTZIAN_NAMED = dict(
    NAMED,
    **{
        "U2,5": {"type": "uniform", "k": 2, "n": 5},
        "U3,6": {"type": "uniform", "k": 3, "n": 6},
    },
)


def op(cmd, files, args=()):
    return {"cmd": cmd, "files": files, "args": list(args)}


def rational_point(rng, n):
    return ",".join(str(Fraction(rng.randint(1, 9), rng.randint(1, 9))) for _ in range(n))


def multigraph(rng):
    """A connected multigraph with 8 to 10 edges and no loops."""
    while True:
        g = zoo.random_connected_multigraph(rng, max_vertices=6, max_edges=10)
        if 8 <= len(g.edges) <= 10:
            return g.to_json()


def hodge_ops(files, rank, point=None):
    extra = ["--point", point] if point else []
    return [
        op("hodge", files, ["--k", str(k)] + extra) for k in (1, 2) if 2 * k <= rank
    ]


def gorenstein_pool(rng):
    named = []
    for name, obj in NAMED.items():
        m = Matroid.from_json(obj)
        files = {"--matroid": obj}
        fixed = [op("matroid", files), op("probe", files)] + hodge_ops(files, m.rank)
        points = [
            hodge_ops(files, m.rank, rational_point(rng, m.n))
            for _ in range(POINTS_PER_MATROID)
        ]
        named.append({"name": name, "fixed": fixed, "points": points})
    graphs = []
    for i in range(GRAPHS):
        g = multigraph(rng)
        m = Matroid.graphic(Graph.from_json(g))
        files = {"--graph": g}
        ops = [op("matroid", files), op("probe", files)]
        ops += hodge_ops(files, m.rank) + hodge_ops(files, m.rank, rational_point(rng, m.n))
        graphs.append({"name": f"multigraph-{i}", "ops": ops})
    return {"named": named, "graphs": graphs}


def certificates_pool(rng):
    lorentzian = []
    for obj in LORENTZIAN_NAMED.values():
        lorentzian.append(op("lorentzian", {"--matroid": obj}))
        as_bases = Matroid.from_json(obj).to_json()
        lorentzian.append(op("lorentzian", {"--matroid": as_bases}))
    for i in range(LORENTZIAN_GRAPHS):
        g = multigraph(rng)
        obj = {"type": "graphic", "graph": g}
        if i % 2:
            obj = Matroid.from_json(obj).to_json()
        lorentzian.append(op("lorentzian", {"--matroid": obj}))
    stanley = []
    for _ in range(STANLEY_SPLITS):
        g = multigraph(rng)
        n = len(g["edges"])
        split = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
        stanley.append(op("stanley", {"--graph": g}, ["--R", ",".join(map(str, split))]))
    discriminant = []
    for i in range(DISCRIMINANT_TUPLES):
        n = 4 + i % 3
        mults = rng.choice([[1] * n, [2] + [1] * (n - 2), [n - 1, 1], [n]])
        mats = []
        for mult in mults:
            a, _ = zoo.random_psd_with_factor(rng, n)
            mats.append({"matrix": a.to_json(), "mult": mult})
        discriminant.append(op("discriminant", {"--tuple": {"mats": mats}}))
    return {
        "selftest": [op("selftest", {})],
        "lorentzian": lorentzian,
        "stanley": stanley,
        "discriminant": discriminant,
    }


def walk(pools):
    """Every operation in the pools."""
    for group in pools.values():
        for items in group.values():
            for item in items:
                if "cmd" in item:
                    yield item
                elif "ops" in item:
                    yield from item["ops"]
                else:
                    yield from item["fixed"]
                    for ops in item["points"]:
                        yield from ops


def freeze(pools, directory):
    cli = run.import_program()
    ops = list(walk(pools))
    for i, o in enumerate(ops):
        o["id"] = f"{i:04d}-{o['cmd']}"
    write_inputs(ops, directory)
    reps = [run.run_pass(cli, ops, directory / f"rep{i}") for i in range(COST_REPS)]
    for o, results in zip(ops, zip(*reps)):
        first = results[0]
        if any(r["data"] != first["data"] for r in results):
            raise SystemExit(f"{o['id']}: reports differ between runs")
        report = json.loads(first["data"])
        o["cost"] = round(statistics.median(r["ref_seconds"] for r in results), 5)
        o["expect"] = {"rc": first["rc"], "fields": project(o["cmd"], report)}
        if first["rc"] != 0:
            print(f"note: {o['id']} exits {first['rc']}", file=sys.stderr)
        del o["id"], o["argv"]
    # Named bundles run cheapest first, so a small budget still covers some.
    named = pools["gorenstein"]["named"]
    named.sort(key=lambda b: sum(o["cost"] for o in b["fixed"]))


def main():
    rng = random.Random(POOL_SEED)
    pools = {"gorenstein": gorenstein_pool(rng), "certificates": certificates_pool(rng)}
    work = HERE / "_work" / "freeze"
    try:
        freeze(pools, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    POOLS.write_text(json.dumps(pools, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {POOLS}: {sum(1 for _ in walk(pools))} operations")


if __name__ == "__main__":
    main()
