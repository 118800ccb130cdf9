"""The three workloads, built from a seed.

An operation is one CLI invocation: a command, its input files, its other
flags, an estimated cost in seconds and what its answer must be. A batch
holds the operations whose estimated costs fill a budget in seconds; each
instance appears at most once in a batch.

`gorenstein` and `certificates` draw their instances from `pools.json`,
which `freeze.py` built at a fixed commit together with each instance's
frozen answer and measured cost. `posets` generates fresh random posets and
checks their answers against the order-ideal oracles. The benchmark uses
only its own code to build inputs, so a change to the program's fixtures or
generators cannot change them.
"""

import json
import random
from pathlib import Path

from oracles import IdealLattice, down_masks

POOLS = Path(__file__).with_name("pools.json")

WORKLOADS = ("gorenstein", "posets", "certificates")


def load_pools():
    with open(POOLS) as fh:
        return json.load(fh)


def _rng(workload, seed):
    return random.Random(f"{workload}/{seed}")


def _fill(items, budget, cost):
    """Greedy fill in the given order: take every item that still fits."""
    chosen, used = [], 0.0
    for item in items:
        c = cost(item)
        if used + c <= budget:
            chosen.append(item)
            used += c
    return chosen


def _bundle_cost(ops):
    return sum(op["cost"] for op in ops)


def gorenstein(seed, budget, pools):
    """Every named matroid (matroid, probe, hodge at k = 1, 2 at the all-ones
    point and at one seeded rational point), then seeded multigraphs with
    the same commands until the budget is spent."""
    rng = _rng("gorenstein", seed)
    pool = pools["gorenstein"]
    bundles = [b["fixed"] + rng.choice(b["points"]) for b in pool["named"]]
    graphs = list(pool["graphs"])
    rng.shuffle(graphs)
    bundles += [g["ops"] for g in graphs]
    return [op for ops in _fill(bundles, budget, _bundle_cost) for op in ops]


CERTIFICATE_SHARES = (("lorentzian", 0.5), ("stanley", 0.25), ("discriminant", 0.25))


def certificates(seed, budget, pools):
    """selftest, then Lorentzian, Stanley-split and mixed-discriminant
    instances, each kind filling its share of the budget."""
    rng = _rng("certificates", seed)
    pool = pools["certificates"]
    ops = list(pool["selftest"])
    rest = budget - _bundle_cost(ops)
    for kind, share in CERTIFICATE_SHARES:
        items = list(pool[kind])
        rng.shuffle(items)
        ops += _fill(items, rest * share, lambda op: op["cost"])
    return ops


# Cost model of the poset commands, in the reference seconds of run.py,
# fitted at the commit that added the benchmark on a 2-core Intel Xeon
# under Python 3.11: a fixed part plus a part per element of each extension
# visited, where a command enumerates the extensions once per pass.
POSET_FIXED_S = {"kahnsaks": 0.0056, "poset": 0.0042}
POSET_PER_VISITED_ELEMENT_S = {"kahnsaks": 3.98e-7, "poset": 2.1e-7}
# No single instance may cost more than this share of the budget, so that
# the batch stays a sum of many instances.
POSET_INSTANCE_SHARE = 0.08
POSET_SHARES = (("kahnsaks", 0.7), ("poset_x", 0.15), ("poset", 0.15))
DENSITIES = (0.15, 0.25, 0.35, 0.5)


def _random_poset(rng):
    """(elements, relations): random strict relations on a shuffled order, or
    one time in five a disjoint union of 2 to 4 chains."""
    n = rng.randint(9, 12)
    labels = [f"e{i}" for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    relations = []
    if rng.random() < 0.2:
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, 3)))
        for lo, hi in zip([0] + cuts, cuts + [n]):
            chain = [labels[perm[i]] for i in range(lo, hi)]
            relations += [[a, b] for a, b in zip(chain, chain[1:])]
    else:
        density = rng.choice(DENSITIES)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    relations.append([labels[perm[i]], labels[perm[j]]])
    return labels, relations


def _poset_op(rng, kind):
    """One random instance of `kind` with its oracle data and cost."""
    labels, relations = _random_poset(rng)
    below = down_masks(labels, relations)
    lattice = IdealLattice(below)
    obj = {"elements": labels, "relations": relations}
    op = {"cmd": "kahnsaks" if kind == "kahnsaks" else "poset", "args": []}
    if kind == "poset":
        passes, visited = 2, lattice.extensions
    else:
        pairs = [
            (a, b)
            for a in range(len(labels))
            for b in range(len(labels))
            if a != b and not below[a] >> b & 1
        ]
        x, y = rng.choice(pairs)
        if kind == "poset_x":
            op["args"] = ["--x", labels[x]]
            passes, visited = 2, lattice.extensions
        else:
            obj["x"], obj["y"] = labels[x], labels[y]
            gaps = lattice.gap_counts(x, y)
            interior = sum(1 for k in range(2, len(gaps)) if gaps[k - 1])
            passes, visited = 2 + interior, sum(gaps)
    op["files"] = {"--poset": obj}
    cmd = op["cmd"]
    visited_elements = passes * visited * len(labels)
    op["cost"] = POSET_FIXED_S[cmd] + POSET_PER_VISITED_ELEMENT_S[cmd] * visited_elements
    op["oracle"] = kind
    return op


def posets(seed, budget, pools=None):
    """Random marked posets on 9-12 elements for kahnsaks and for poset with
    and without --x. Each kind fills its share of the budget, measured by
    the extensions its commands will enumerate, not by instance count."""
    rng = _rng("posets", seed)
    cap = POSET_INSTANCE_SHARE * budget
    seen = set()
    ops = []
    for kind, share in POSET_SHARES:
        target, used, misses = share * budget, 0.0, 0
        while misses < 50:  # consecutive instances that did not fit
            op = _poset_op(rng, kind)
            key = json.dumps([op["files"], op["args"]], sort_keys=True)
            if op["cost"] > cap or key in seen or used + op["cost"] > target:
                misses += 1
                continue
            seen.add(key)
            ops.append(op)
            used += op["cost"]
            misses = 0
    return ops


BATCHES = {"gorenstein": gorenstein, "posets": posets, "certificates": certificates}


def build(workload, seed, budget, pools):
    """The batch of `workload` for `seed`, with ids in batch order."""
    ops = BATCHES[workload](seed, budget, pools)
    for i, op in enumerate(ops):
        op["id"] = f"{i:04d}-{op['cmd']}"
    return ops


def write_inputs(ops, directory):
    """Write each operation's input files; give it its argv minus --out."""
    directory.mkdir(parents=True, exist_ok=True)
    for op in ops:
        argv = [op["cmd"]]
        for flag, obj in op["files"].items():
            path = directory / f"{op['id']}{flag.replace('-', '.')}.json"
            path.write_text(json.dumps(obj, sort_keys=True))
            argv += [flag, str(path)]
        op["argv"] = argv + op["args"]
