"""What an answer must be.

`project` keeps the fields of a report that a theorem fixes for the
instance: graded dimensions, inertia tuples, HL/HRR verdicts, counting
sequences, certificate verdicts and discriminant values. It drops what an
implementation may change without being wrong: the order of fields, the
count of sampled Hessian failures, explanatory strings and the particular
kernel vector a counterexample reports. `freeze.py` stores these projections
in `pools.json`; `poset_errors` recomputes the poset answers with the
order-ideal oracles instead.
"""

from oracles import IdealLattice, down_masks, spanning_trees

KEEP = {
    "matroid": (
        "ground",
        "rank",
        "bases",
        "loops",
        "coloops",
        "parallel_classes",
        "flats_per_rank",
        "graded_dims",
    ),
    "hodge": (
        "k",
        "graded_dims",
        "mobius_pairing",
        "hr_form_inertia",
        "hl",
        "hrr",
        "socle_trivial",
    ),
    "probe": ("elements_probed", "containment_holds_everywhere"),
    "lorentzian": (
        "passed",
        "homogeneous",
        "m_convex_support",
        "coefficient_log_concavity",
    ),
    "stanley": (
        "N",
        "normalized",
        "ultra_log_concave",
        "equality_indices",
        "ratio_condition",
        "ratio_step_verified",
        "cross_check_deltas",
    ),
    "discriminant": ("value", "n", "count", "psd_inputs", "alexandrov"),
    "selftest": ("checks",),
}


def project(cmd, report):
    results = report["results"]
    out = {key: results[key] for key in KEEP[cmd] if key in results}
    if cmd == "probe":
        # The degree at which containment first fails is fixed by the two
        # annihilator spaces; the kernel vector shown for it is not.
        out["counterexample_degrees"] = [
            [f["element"], f["degree"]] for f in report["findings"]
        ]
    out["violations"] = report["violations"]
    return out


def _graph_of(op):
    files = op["files"]
    if "--graph" in files:
        return files["--graph"]
    matroid = files.get("--matroid", {})
    if matroid.get("type") == "graphic":
        return matroid["graph"]
    return None


def kirchhoff_errors(op, report):
    """Basis counts of graphic matroids against the matrix-tree theorem."""
    graph = _graph_of(op) if op["cmd"] in ("matroid", "stanley") else None
    if graph is None:
        return []
    trees = spanning_trees(graph["vertices"], [tuple(e) for e in graph["edges"]])
    results = report["results"]
    got = results["bases"] if op["cmd"] == "matroid" else sum(results["N"])
    if got != trees:
        return [f"{got} bases, Kirchhoff counts {trees} spanning trees"]
    return []


def _ratio(prev, nk, nxt):
    if prev == nk == nxt:
        return 1
    if nxt == 2 * nk and nk == 2 * prev:
        return 2
    return None


def poset_errors(op, report):
    """Poset answers against the order-ideal oracles and the theorems."""
    obj = op["files"]["--poset"]
    labels = obj["elements"]
    index = {e: i for i, e in enumerate(labels)}
    lattice = IdealLattice(down_masks(labels, obj["relations"]))
    r = report["results"]
    errors = []

    def expect(what, got, want):
        if got != want:
            errors.append(f"{what}: got {got}, oracle {want}")

    if op["oracle"] == "poset":
        expect("extensions", r["extensions"], lattice.extensions)
        want = {e: lattice.position_counts(i) for e, i in index.items()}
        expect("position_counts", r["position_counts"], want)
    elif op["oracle"] == "poset_x":
        expect("extensions", r["extensions"], lattice.extensions)
        expect("stanley_N", r["stanley_N"], lattice.position_counts(index[op["args"][1]]))
        expect("stanley_log_concave", r["stanley_log_concave"], True)
    else:
        x, y = index[obj["x"]], index[obj["y"]]
        n = lattice.gap_counts(x, y)
        expect("N", r["N"], n)
        ordered = IdealLattice(down_masks(labels, obj["relations"] + [[obj["x"], obj["y"]]]))
        expect("sum of N", sum(r["N"]), ordered.extensions)
        expect("log_concave", r["log_concave"], True)
        padded = [0] + n + [0]
        for k in range(1, len(n) + 1):
            entry = r["per_k"][str(k)]
            expect(f"N_{k}", entry["N_k"], n[k - 1])
            expect(f"zero criterion {k}", entry["zero_criterion"], n[k - 1] == 0)
            if "ratio" in entry:
                prev, nk, nxt = padded[k - 1 : k + 2]
                expect(f"equality {k}", entry["equality"], nk * nk == prev * nxt)
                expect(f"ratio {k}", entry["ratio"], _ratio(prev, nk, nxt))
        extremes = r["extremes"]
        expect("min_gap", extremes["min_gap"], next(k for k, c in enumerate(n, 1) if c))
        expect("narrow_target", extremes["narrow_target"], extremes["min_gap"])
        expect("wide_exists", extremes["wide_exists"], True)
    expect("violations", report["violations"], [])
    return errors


def answer_errors(op, rc, report):
    """Every way the operation's answer differs from what it must be."""
    want_rc = op["expect"]["rc"] if "expect" in op else 0
    if rc != want_rc:
        return [f"exit code {rc}, expected {want_rc}"]
    if "oracle" in op:
        return poset_errors(op, report)
    errors = kirchhoff_errors(op, report)
    got = project(op["cmd"], report)
    if got != op["expect"]["fields"]:
        errors.append(f"answer {got} differs from frozen {op['expect']['fields']}")
    return errors
