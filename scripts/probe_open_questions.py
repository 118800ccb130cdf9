#!/usr/bin/env python3
"""Sweep the open-question probes over a family of small matroids and emit
the findings as JSON lines.

Probed questions (reported, never asserted), each through the report
function of the command that asks it:
  * does the annihilator of a deletion embed into that of the contraction?
    (`hodge.probe_report`; the first counterexample per matroid)
  * does normalized-sequence equality force the parallel-class ratio
    condition for non-regular matroids? (`stanley.stanley_report`'s
    finding of an equality without it, on random splits.) Splits
    with N_0 = 0 or N_r = 0 are skipped: `stanley` counts equality among
    vanishing terms, which is no evidence about the converse, and this
    guard stands until ROADMAP item 11 keeps only equality inside the
    support.
  * does Hard Lefschetz hold in degrees >= 2 at the all-ones point?
    (`hodge.hodge_report`, where f(1, ..., 1) > 0)
  * does HRR_1 on the facet points of single elements and of pairs agree
    with the facet theorem (`hodge.facet_theorem_scan`, at its default
    subset cap)? One line per matroid of rank >= 2 whose scan disagrees.

Usage: python3 scripts/probe_open_questions.py
"""

import json
import random
import sys

sys.path.insert(0, "src")

from logcavity.hodge import facet_theorem_scan, hodge_report, probe_report
from logcavity.matroids import Matroid
from logcavity.stanley import stanley_report
from logcavity.zoo import matroid_zoo, random_connected_multigraph


def emit(record):
    print(json.dumps(record, sort_keys=True))


def probe_containment(name, m):
    findings = probe_report(m, m.ground)[1]
    if findings:  # one witness per matroid is enough
        first = findings[0]
        emit(
            {
                "probe": "annihilator-containment",
                "matroid": name,
                "element": first["element"],
                "degree": first["degree"],
                "witness": first["vector"],
            }
        )


def probe_equality_vs_ratio(name, m, rng):
    if m.loops():
        return
    for _ in range(4):
        r_side = [e for e in m.ground if rng.random() < 0.5]
        results, findings, _ = stanley_report(m, r_side)
        counts = results["N"]
        if counts[0] == 0 or counts[-1] == 0:  # the N_0 = 0 / N_r = 0 guard
            continue
        if findings:  # its one kind: equality without the ratio condition
            emit(
                {
                    "probe": "equality-without-ratio",
                    "matroid": name,
                    "R": sorted(map(str, r_side)),
                    "N": counts,
                }
            )


def probe_higher_lefschetz(name, m):
    ones = [1] * m.n
    for k in range(2, m.rank // 2 + 1):
        results = hodge_report(m, k, ones)[0]
        if "hl" not in results:  # f(1, ..., 1) = 0
            return
        hl, hrr = results["hl"], results["hrr"]
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
