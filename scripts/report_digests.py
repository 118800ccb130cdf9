#!/usr/bin/env python3
"""Digest every report of the benchmark workloads, to compare two checkouts.

    python3 scripts/report_digests.py > out.json

The program and the workloads are imported from the checkout this script
sits in. For each workload of `perfbench/workloads.py`, at seeds 1 and
52817, it builds the batch for the run length of BENCHMARK.json, writes the
input files into a temporary directory, and runs each operation once
through `logcavity.cli.main`, in this interpreter and in batch order, as
`perfbench/run.py` does. A fixed batch built from `logcavity.zoo` follows,
under the workload name "fixed" and seed 0: it takes the CLI paths that the
pools never take (CSV reports, a polynomial with squares, `stanley` with
both a matroid and its graph, `probe --e`, a probe of M(K5) that first
fails in degree 3 with 7 coefficients, a probe of a graph with a loop and
a parallel pair, `hodge --k 0`, points with zeros, a basis family that
fails exchange, a tuple of singular PSD matrices whose subset sums meet
zero pivots, a tuple with a repeated indefinite matrix and fractional
entries, `kahnsaks` on each branch of the normalization: incomparable
marks, x the least and y the greatest element, and elements already
labelled "bot" and "top"; `matroid` and `hodge --k 1` on a linear matroid
with fractional and unreduced entries, a tuple X, Y = (3/2)X and a PSD
fixed matrix, an Alexandrov equality with a fractional lambda, and `stanley`
on U(2, 3) with each element tripled, one clone in R, whose ratio condition
holds, so the report checks the ratio step), and four input errors that
exit 1 with no report (a poset with no "elements", `poset --cap-extensions
1` on a 3-element antichain, a 5000-digit matrix entry and a string
"nvars"), and three empty flag values, each read as written (`poset --x
""` and `kahnsaks --x ""` on a poset with an element "", and `probe --e
""`, which probes no element), and numbers written as decimals, exponents
and with a `_`, which still read (a `discriminant` with the entries "2.5e-1",
"1E3", "1_0" and "-0.5", and `hodge --point 1e2,1/2,0.25`), and `lorentzian`
on x^(2^63) + y^(2^63), an exponent past a machine word. It prints one JSON
object,
{"<workload>/<seed>/<op id>": [exit code, sha256 of the report]}, where
the digest is null for an operation that wrote no report. Two checkouts
give the same answers on the batches iff they print the same object.

The object at the committed code is `tests/golden/report_digests.json`,
and `tests/test_entry_points.py` checks a fresh run against it. A change
that alters report bytes on purpose regenerates it:

    python3 scripts/report_digests.py > tests/golden/report_digests.json
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # no __pycache__ beside the checkout's files
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from logcavity import zoo  # noqa: E402
from logcavity.cli import main as cli_main  # noqa: E402
from logcavity.matroids import Matroid  # noqa: E402

SEEDS = (1, 52817)


def fixed_ops():
    """The fixed batch, in the operation shape of `workloads.build`."""
    k23, k4 = zoo.k23_graph().to_json(), zoo.k4_graph().to_json()
    m_k23 = Matroid.graphic(zoo.k23_graph()).to_json()
    bridge = {"--graph": zoo.bridge_graph().to_json()}
    witness = {"--poset": zoo.ratio_two_witness_poset().to_json()}
    doubled = {"--matroid": Matroid.graphic(zoo.doubled_k3_graph()).to_json()}
    square = [[2, 0, 0], [0, 2, 0], [0, 0, 2], [1, 1, 0], [1, 0, 1], [0, 1, 1]]
    poly = [{"exp": e, "num": "1" if 2 in e else "2", "den": "1"} for e in square]
    no_exchange = {"type": "bases", "ground": [0, 1, 2, 3], "bases": [[0, 1], [2, 3]]}
    k5 = {"vertices": 5, "edges": [[i, j] for i in range(5) for j in range(i + 1, 5)]}
    looped = [[0, 1], [0, 1], [1, 2], [0, 2], [2, 3], [1, 3], [3, 3]]  # 0 | 1, 6 a loop

    def marked(elements, relations, x, y):
        obj = {"elements": elements, "relations": relations, "x": x, "y": y}
        return {"--poset": obj}

    # x and y incomparable, so x <= y is adjoined; a < b lie in mid_y, mid_x
    ab = [["a", "y"], ["x", "b"], ["a", "b"]]
    loose = marked(["x", "y", "a", "b", "c"], ab, "x", "y")
    # x least and y greatest, so fresh bounds go below x and above y
    diamond = [[0, 1], [0, 2], [1, 3], [2, 3], [3, 4]]
    extreme = marked([0, 1, 2, 3, 4], diamond, 0, 4)
    # "bot" and "top" bound nothing, so the fresh bounds are bot0 and top0
    bounds = [["bot", "top"], ["m", "y"]]
    named = marked(["top", "x", "bot", "y", "m"], bounds, "x", "y")

    def matrix(rows):
        return {"rows": len(rows), "cols": len(rows), "entries": sum(rows, [])}

    # the rank-1 Gram matrices v v^T, for v with zeros in front
    vectors = [[0, 1, 2, 1], [0, 0, 1, 3], [2, 1, 0, 0], [1, 1, 1, 1]]
    rank_one = [matrix([[x * y for y in v] for x in v]) for v in vectors]
    gram = {"mats": [{"matrix": m} for m in rank_one]}
    # X twice, indefinite and with fractions, then a PSD fixed matrix
    x = matrix([["1/2", "2", "0"], ["2", "-1", "-3/4"], ["0", "-3/4", "3"]])
    p = matrix([[2, 1, 0], [1, 2, 0], [0, 0, 1]])
    indefinite = {"mats": [{"matrix": x, "mult": 2}, {"matrix": p}]}
    # a 3 x 5 linear matroid over denominators 2, 3 and 4; columns 0 and 4
    # are parallel only once "2/4" reads as 1/2
    halves = ["1/2", "0", "1", "-2/3", "2/4", "0", "1", "2/4", "1/3", "0"]
    halves += ["1", "-2/3", "0", "1", "1"]
    fractional = {"type": "linear", "matrix": {"rows": 3, "cols": 5, "entries": halves}}
    # X positive definite with fractions and Y = (3/2) X: equality, lambda 3/2
    x = matrix([[2, "1/2", 0], ["1/2", 1, 0], [0, 0, "1/3"]])
    y = matrix([[3, "3/4", 0], ["3/4", "3/2", 0], [0, 0, "1/2"]])
    proportional = {"mats": [{"matrix": x}, {"matrix": y}, {"matrix": p}]}
    tripled = {"--matroid": zoo.tripled_u23().to_json()}
    antichain = {"--poset": {"elements": [0, 1, 2], "relations": []}}
    huge = matrix([["1" * 5000]])  # past int's digit limit, as a string
    # "" < a < b and c apart; the JSON marks b and c, the flags mark ""
    empty = marked(["", "a", "b", "c"], [["", "a"], ["a", "b"]], "b", "c")
    a = matrix([["2.5e-1", "-0.5"], ["-0.5", "1E3"]])
    forms = {"mats": [{"matrix": a}, {"matrix": matrix([["1_0", "0"], ["0", "1"]])}]}
    k3 = {"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]}

    def power(i):  # x_i^(2^63) in two variables
        return {"exp": [2**63 * (j == i) for j in range(2)], "num": "1", "den": "1"}

    ops = [
        ("matroid", {"--graph": k4}, ["--format", "csv"]),
        ("hodge", {"--graph": k23}, ["--k", "2", "--format", "csv"]),
        ("kahnsaks", witness, ["--format", "csv"]),
        ("lorentzian", {"--poly": {"nvars": 3, "terms": poly}}, []),  # (x+y+z)^2
        ("lorentzian", {"--poly": {"nvars": 3, "terms": poly[:2]}}, []),  # x^2 + y^2
        ("stanley", {"--matroid": m_k23, "--graph": k23}, ["--R", "0,1,3"]),
        ("probe", doubled, ["--e", "0,3"]),
        ("probe", {"--graph": k4}, ["--e", "5"]),
        ("hodge", {"--matroid": zoo.linear_3x5_matroid().to_json()}, ["--k", "0"]),
        ("hodge", {"--graph": k23}, ["--k", "1", "--point", "0,1,1,0,1,1"]),
        ("hodge", bridge, ["--k", "1", "--point", "0,1,1,1"]),  # f = 0: edge 0 a bridge
        ("hodge", doubled, ["--k", "1", "--point", "0,0,1,1/2,1,3"]),
        ("matroid", {"--matroid": no_exchange}, []),
        ("discriminant", {"--tuple": gram}, []),
        ("discriminant", {"--tuple": indefinite}, []),
        ("probe", {"--graph": k5}, ["--e", "0"]),  # fails first in degree 3
        ("probe", {"--graph": {"vertices": 4, "edges": looped}}, []),
        ("kahnsaks", loose, []),
        ("kahnsaks", extreme, []),
        ("kahnsaks", named, ["--format", "csv"]),
        ("matroid", {"--matroid": fractional}, []),
        ("hodge", {"--matroid": fractional}, ["--k", "1"]),
        ("discriminant", {"--tuple": proportional}, []),
        ("stanley", tripled, ["--R", "0#0,1#0,2#0"]),  # ratio 1/2 steps N_k
        # input errors: each exits 1 and writes no report
        ("poset", {"--poset": {"relations": []}}, []),  # no "elements"
        ("poset", antichain, ["--cap-extensions", "1"]),  # 3! extensions
        ("discriminant", {"--tuple": {"mats": [{"matrix": huge}]}}, []),
        ("lorentzian", {"--poly": {"nvars": "2", "terms": poly}}, []),  # a str
        # empty flag values, read as written
        ("poset", empty, ["--x", ""]),  # stanley_N of ""
        ("kahnsaks", empty, ["--x", ""]),  # x = "", y = c from the JSON
        ("probe", {"--graph": k4}, ["--e", ""]),  # probes no element
        # number forms that still read: decimals, exponents and a _
        ("discriminant", {"--tuple": forms}, []),
        ("hodge", {"--graph": k3}, ["--k", "1", "--point", "1e2,1/2,0.25"]),
        # an exponent past a machine word: the Hessians take no factorial
        ("lorentzian", {"--poly": {"nvars": 2, "terms": [power(0), power(1)]}}, []),
    ]
    return [
        {"id": f"fixed-{i}", "cmd": cmd, "files": files, "args": args}
        for i, (cmd, files, args) in enumerate(ops)
    ]


def digests(workload, seed, seconds, pools, directory):
    """{"<workload>/<seed>/<op id>": [exit code, report sha256 or None]}."""
    if workload == "fixed":
        ops = fixed_ops()
    else:
        ops = workloads.build(workload, seed, seconds, pools)
    workloads.write_inputs(ops, directory)
    out = {}
    for op in ops:
        report = directory / f"{op['id']}.report"
        rc = cli_main(op["argv"] + ["--out", str(report)])
        digest = None
        if report.exists():
            digest = hashlib.sha256(report.read_bytes()).hexdigest()
        out[f"{workload}/{seed}/{op['id']}"] = [rc, digest]
    return out


def main():
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    pools = workloads.load_pools()
    out = {}
    with tempfile.TemporaryDirectory(prefix="report_digests_") as tmp:
        runs = [(w, seed) for w in workloads.WORKLOADS for seed in SEEDS]
        for workload, seed in runs + [("fixed", 0)]:
            directory = Path(tmp) / f"{workload}-{seed}"
            out.update(digests(workload, seed, seconds, pools, directory))
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
