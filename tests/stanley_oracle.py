"""Slow routes for zonotope volumes and mixed volumes, used only as test
oracles.

`zonotope_volume_by_subsets` sums |det| over every index subset of the
generators with `linalg.det` on Fraction matrices, taking no shortcut for
repeated or zero vectors. `mixed_volume_by_inversion` is the inversion
formula over the volumes of the 2^r Minkowski sums of the zonotopes (a sum of
zonotopes is the zonotope on the concatenated generators). The library uses
the transversal formula instead, with equal lists taken together, in one
pruned depth-first elimination; `transversal_sum_by_combinations` is the same
sum with one determinant per combination of rows.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

from logcavity.errors import LogcavityError
from logcavity.linalg import QMatrix, det, integer_det


def zonotope_volume_by_subsets(vectors):
    """Volume of the zonotope on the segments [0, v]: the sum of |det| over
    the index subsets of size n, where n is the dimension."""
    vectors = [tuple(Fraction(x) for x in v) for v in vectors]
    if not vectors:
        return Fraction(0)
    n = len(vectors[0])
    total = Fraction(0)
    for subset in combinations(range(len(vectors)), n):
        total += abs(det(QMatrix([vectors[i] for i in subset])))
    return total


def mixed_volume_by_inversion(lists):
    """V(Z(T_1), ..., Z(T_r)) = (1/r!) sum over subsets S of [r] of
    (-1)^(r - |S|) vol(sum of Z(T_i), i in S); 0 when r = 0."""
    lists = [[tuple(Fraction(x) for x in v) for v in t] for t in lists]
    r = len(lists)
    if any(len(v) != r for t in lists for v in t):
        raise LogcavityError("ambient dimension must equal the number of zonotopes")
    total = Fraction(0)
    for size in range(r + 1):
        for subset in combinations(range(r), size):
            gens = [v for i in subset for v in lists[i]]
            total += (-1) ** (r - size) * zonotope_volume_by_subsets(gens)
    return total / math.factorial(r)


def transversal_sum_by_combinations(groups):
    """Sum of |det| over the square matrices whose rows are m distinct
    positions of each group (vectors, m), one integer determinant per
    combination of distinct nonzero vectors, weighted by their counts, after
    the denominators are cleared by their common lcm d."""
    groups = [([[Fraction(x) for x in v] for v in vs], m) for vs, m in groups]
    d = math.lcm(*(x.denominator for vs, _ in groups for v in vs for x in v))
    choices = []
    for vectors, m in groups:
        counts = Counter(tuple(int(x * d) for x in v) for v in vectors if any(v))
        choices.append(combinations(counts.items(), m))
    total = 0
    for choice in product(*choices):
        rows = [v for picked in choice for v, _ in picked]
        weight = math.prod(c for picked in choice for _, c in picked)
        total += weight * abs(integer_det(rows))
    return Fraction(total, d ** sum(m for _, m in groups))
