#!/usr/bin/env python3
"""Sweep the open-question probes over a family of small matroids and emit
the findings as JSON lines.

Probed questions (reported, never asserted):
  * does the annihilator of a deletion embed into that of the contraction?
  * does normalized-sequence equality force the parallel-class ratio
    condition for non-regular matroids?
  * does Hard Lefschetz hold in degrees >= 2 at the all-ones point?
  * does HRR_1 on the facet points of single elements and of pairs agree
    with the facet theorem (`hodge.facet_theorem_scan`, at its default
    subset cap)? One line per matroid of rank >= 2 whose scan disagrees.
"""

import json
import random
import sys

sys.path.insert(0, "src")

from logcavity.hodge import (
    _point,
    _verdicts,
    annihilator_containment_probe,
    facet_theorem_scan,
    hr_inertia,
    value,
)
from logcavity.matroids import Matroid
from logcavity.stanley import ratio_condition_check, stanley_matroid_sequence
from logcavity.zoo import matroid_zoo, random_connected_multigraph


def emit(record):
    print(json.dumps(record, sort_keys=True))


def probe_containment(name, m):
    for e in m.ground:
        if e in m.coloops() or e in m.loops():
            continue
        probe = annihilator_containment_probe(m, e)
        if not probe.contained:
            degree, coeffs = probe.counterexample
            emit(
                {
                    "probe": "annihilator-containment",
                    "matroid": name,
                    "element": str(e),
                    "degree": degree,
                    "witness": [
                        {"subset": sorted(map(str, s)), "coeff": str(c)}
                        for s, c in coeffs.items()
                    ],
                }
            )
            return  # one witness per matroid is enough


def probe_equality_vs_ratio(name, m, rng):
    if m.loops():
        return
    for _ in range(4):
        r_side = [e for e in m.ground if rng.random() < 0.5]
        seq = stanley_matroid_sequence(m, r_side)
        nt = seq.normalized
        if nt[0] == 0 or nt[-1] == 0:
            continue
        equal_somewhere = bool(seq.equality_indices())
        ratio = ratio_condition_check(m, r_side)
        if equal_somewhere and not ratio.holds:
            emit(
                {
                    "probe": "equality-without-ratio",
                    "matroid": name,
                    "R": sorted(map(str, r_side)),
                    "N": list(seq.counts),
                }
            )


def probe_higher_lefschetz(name, m):
    # one pair of inertias per degree gives both HL and HRR
    at = _point(m, [1] * m.n)
    if value(m, at) <= 0:
        return
    for k in range(2, m.rank // 2 + 1):
        hl, hrr = _verdicts(*hr_inertia(m, k, at))
        emit({"probe": "higher-degree", "matroid": name, "k": k, "hl": hl, "hrr": hrr})


def probe_facet_scan(name, m):
    if m.rank < 2:
        return
    scan = facet_theorem_scan(m)
    if not scan.all_consistent:
        emit({"probe": "facet-scan", "matroid": name, "scan": repr(scan)})


def main():
    rng = random.Random(99)
    pool = dict(matroid_zoo())
    for i in range(8):
        g = random_connected_multigraph(rng, 5, 8)
        if not g.has_loop:
            pool[f"random_graphic_{i}"] = Matroid.graphic(g)
    for name, m in pool.items():
        probe_containment(name, m)
        probe_equality_vs_ratio(name, m, rng)
        probe_higher_lefschetz(name, m)
        probe_facet_scan(name, m)


if __name__ == "__main__":
    main()
