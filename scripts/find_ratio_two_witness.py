#!/usr/bin/env python3
"""Bounded search for marked posets whose Kahn-Saks sequence has a run
(c, 2c, 4c), i.e. an equality case with step ratio 2.

The frozen fixture in logcavity.zoo was produced by this search; rerunning
confirms it and can surface further witnesses.

Usage: python3 scripts/find_ratio_two_witness.py [--max-size 8] [--trials 20000]
"""

import argparse
import random
import sys

sys.path.insert(0, "src")

from logcavity.errors import TooLarge
from logcavity.posets import MarkedPoset, kahn_saks_extremal_classify, kahn_saks_sequence
from logcavity.zoo import random_marks, random_poset, ratio_two_witness_poset


def ratio_two_indices(seq):
    out = []
    for k in range(2, len(seq)):
        if seq[k - 2] > 0 and seq[k - 1] == 2 * seq[k - 2] and seq[k] == 2 * seq[k - 1]:
            out.append(k)
    return out


def inspect(mp, label):
    seq = kahn_saks_sequence(mp)
    hits = ratio_two_indices(seq)
    for k in hits:
        verdict = kahn_saks_extremal_classify(mp, k)
        print(f"[{label}] N = {seq}, k = {k}, ratio = {verdict.ratio}, "
              f"conditions = {verdict.ratio_two_conditions}")
        print(f"  poset = {mp.to_json()}")
    return bool(hits)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-size", type=int, default=8)
    parser.add_argument("--trials", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=12)
    args = parser.parse_args()

    print("frozen fixture:")
    inspect(ratio_two_witness_poset(), "fixture")

    rng = random.Random(args.seed)
    found = 0
    for trial in range(args.trials):
        n = rng.randint(4, args.max_size)
        p = random_poset(rng, n, density=rng.choice((0.2, 0.35, 0.5)))
        x, y = random_marks(rng, p)
        mp = MarkedPoset(p, x, y)
        try:
            p.count_extensions(cap=40000)
        except TooLarge:
            continue
        if inspect(mp, f"trial {trial}"):
            found += 1
            if found >= 5:
                break
    print(f"search finished: {found} additional witnesses")


if __name__ == "__main__":
    main()
