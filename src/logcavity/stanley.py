"""Stanley's matroid inequality pipelines: basis counting sequences,
ultra-log-concavity, equality characterizations, zonotope mixed-volume
cross-checks, and the truncated-sum construction behind Mason's inequality.

Direct basis enumeration is the ground truth; the mixed-volume and
polynomial-substitution routes are cross-checks.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import product

from .errors import LogcavityError, TooLarge
from .linalg import QMatrix, Record, _bits, _scaled
from .matroids import Matroid
from .polynomials import MPoly, basis_generating_poly


def _log_concave(seq):
    """seq[k] seq[k] >= seq[k - 1] seq[k + 1] at every inner index k."""
    return all(
        seq[k] * seq[k] >= seq[k - 1] * seq[k + 1] for k in range(1, len(seq) - 1)
    )


class StanleySequence(Record):
    _fields = ("counts", "normalized")  # N_0..N_r and N_k / C(r, k)

    def log_concave(self):
        return _log_concave(self.normalized)

    def equality_indices(self):
        n = self.normalized
        return [
            k
            for k in range(1, len(n) - 1)
            if n[k] * n[k] == n[k - 1] * n[k + 1]
        ]


def B_count(m: Matroid, tuple_spec) -> int:
    """Number of ordered tuples (y_1, ..., y_r), the i-th block drawn from its
    subset, whose underlying set is a basis.

    Counted per basis: ways to split the basis into blocks of the prescribed
    sizes inside the prescribed subsets, times the product of block factorials."""
    spec = [(m._mask(subset), int(mult)) for subset, mult in tuple_spec]
    total_mult = sum(mult for _, mult in spec)
    if total_mult != m.rank:
        raise LogcavityError(
            f"multiplicities sum to {total_mult}, rank is {m.rank}"
        )
    factor = 1
    for _, mult in spec:
        factor *= math.factorial(mult)
    total = 0
    for b in m.bases:
        total += _assignments(list(_bits(b)), spec)
    return total * factor


def _assignments(elements, spec):
    """Ways to assign each element to one block, respecting membership masks
    and exact block capacities."""
    k = len(spec)

    def rec(pos, caps):
        if pos == len(elements):
            return 1 if all(c == 0 for c in caps) else 0
        e = elements[pos]
        total = 0
        for i in range(k):
            if caps[i] > 0 and spec[i][0] >> e & 1:
                caps[i] -= 1
                total += rec(pos + 1, caps)
                caps[i] += 1
        return total

    return rec(0, [mult for _, mult in spec])


def stanley_matroid_sequence(m: Matroid, R) -> StanleySequence:
    """N_k = number of bases meeting R in exactly k elements, k = 0..rank."""
    r_mask = m._mask(R)
    r = m.rank
    counts = [0] * (r + 1)
    for b in m.bases:
        counts[(b & r_mask).bit_count()] += 1
    normalized = tuple(
        Fraction(counts[k], math.comb(r, k)) for k in range(r + 1)
    )
    return StanleySequence(tuple(counts), normalized)


class RatioVerdict(Record):
    _fields = ("holds", "ratio")  # ratio: the Fraction q/r if it holds, else None


def ratio_condition_check(m: Matroid, R) -> RatioVerdict:
    """True iff |class ∩ R| / |class ∩ Q| is one positive rational across all
    parallel classes; that constant is the expected step ratio of the
    normalized sequence."""
    if m.loops():
        raise LogcavityError("ratio condition is stated for loopless matroids")
    r_set = frozenset(R)
    pairs = [(len(c & r_set), len(c - r_set)) for c in m.parallel_data().classes]
    return RatioVerdict(*_constant_ratio(pairs))


def _constant_ratio(pairs):
    """(holds, ratio): whether every (r, q) count pair is positive with one
    common r/q, and that ratio; (True, None) when there are no pairs."""
    ratios = {Fraction(r, q) if r and q else None for r, q in pairs}
    if None in ratios or len(ratios) > 1:
        return False, None
    return True, next(iter(ratios), None)


def _transversal_sums(groups, n):
    """(tally, d^n): tally[k] sums |det| over the n x n matrices whose rows
    are k_i distinct positions of group i, for the groups (vectors, cap) and
    every k with k_i <= cap_i, denominators cleared by their lcm d. A
    depth-first pass adds one row at a time to a fraction-free (Bareiss)
    echelon form, each later candidate reduced one step against the new
    pivot row; the last pivot is +-det. A candidate that reduces to zero
    depends on the rows taken, so every completion through it has det 0 and
    it leaves the branch. Equal vectors of a group are taken once, weighted
    by their count; zero vectors never."""
    d, scaled = _scaled(v for vs, _ in groups for v in vs)
    rows, items = map(tuple, scaled), []
    for g, (vs, cap) in enumerate(groups):
        counts = Counter(next(rows) for _ in vs)
        items += [(g, v, c) for v, c in counts.items() if any(v) and cap]
    taken, tally = [0] * len(groups), Counter()

    def visit(cands, need, prev, weight):
        if not need:
            tally[tuple(taken)] += weight * abs(prev)
            return
        for i in range(len(cands) - need + 1):
            g, row, c = cands[i]
            col = next(j for j, x in enumerate(row) if x)
            p = row[col]
            taken[g] += 1
            later = []
            for h, other, w in cands[i + 1 :] if need > 1 else ():
                f = other[col]
                other = [(x * p - f * y) // prev for x, y in zip(other, row)]
                if taken[h] < groups[h][1] and any(other):
                    later.append((h, other, w))
            visit(later, need - 1, p, weight * c)
            taken[g] -= 1

    visit(items, n, 1, 1)
    return tally, d**n


def zonotope_volume(vectors) -> Fraction:
    """Volume of the zonotope spanned by the segments [0, v_i]: the sum of
    absolute determinants over n-subsets (duplicates contribute by
    multiplicity products)."""
    vectors = [tuple(Fraction(x) for x in v) for v in vectors]
    if not vectors:
        return Fraction(0)
    n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        raise LogcavityError("zonotope vectors must all have the same dimension")
    tally, scale = _transversal_sums([(vectors, n)], n)
    return Fraction(tally[n,], scale)


def mixed_volume_zonotopes(lists) -> Fraction:
    """Mixed volume V_r(Z(T_1), ..., Z(T_r)) by the transversal formula
    (Shephard 1974): r! V = sum of |det(v_1, ..., v_r)| over v_i in T_i.
    Equal lists are taken together: a list repeated m times contributes
    m! times the sum over its m-subsets, so V = prod m! / r! times the
    transversal sum over those subsets. With no zonotopes the value is 0."""
    lists = [tuple(tuple(Fraction(x) for x in v) for v in t) for t in lists]
    r = len(lists)
    if any(len(v) != r for t in lists for v in t):
        raise LogcavityError("ambient dimension must equal the number of zonotopes")
    if not r:
        return Fraction(0)
    groups = Counter(lists)
    weight = math.prod(math.factorial(m) for m in groups.values())
    tally, scale = _transversal_sums(list(groups.items()), r)
    return Fraction(weight * tally[tuple(groups.values())], scale * math.factorial(r))


class MasonReport(Record):
    """independent_counts: I_0..I_r; construction_identity: whether f_k of
    T^n(B_n (+) M) equals I_k C(n, n-k)."""

    _fields = ("independent_counts", "log_concave", "construction_identity")


def mason_sequence(m: Matroid, element_cap=12) -> MasonReport:
    """Independent-set counts with the truncated-sum cross-check."""
    if m.n > element_cap:
        raise TooLarge(f"mason check capped at {element_cap} elements")
    r = m.rank
    counts = tuple(m.independent_count(k) for k in range(r + 1))
    lc = _log_concave(counts)
    boolean = _fresh_boolean(m, r)
    summed = boolean.direct_sum(m)
    trunc = summed
    for _ in range(r):
        trunc = trunc.truncate()
    m_labels = frozenset(m.ground)
    f = [0] * (r + 1)
    for b in trunc.bases:
        shared = len(trunc._labels(b) & m_labels)
        f[shared] += 1
    identity = all(
        f[k] == counts[k] * math.comb(r, r - k) for k in range(r + 1)
    )
    return MasonReport(counts, lc, identity)


def _fresh_boolean(m: Matroid, size):
    labels = []
    i = 0
    existing = set(m.ground)
    while len(labels) < size:
        cand = f"aux{i}"
        if cand not in existing:
            labels.append(cand)
        i += 1
    full = (1 << size) - 1
    return Matroid(tuple(labels), [full])


def parallel_replicate(m: Matroid, r_copies, q_copies):
    """Parallel extension giving every element r_copies R-clones and q_copies
    Q-clones; returns (matroid, R) realizing the constant-ratio condition."""
    if r_copies < 1 or q_copies < 1:
        raise LogcavityError("parallel_replicate needs at least one copy per side")
    per = r_copies + q_copies
    ground = []
    r_labels = []
    for e in m.ground:
        for i in range(per):
            lab = f"{e}#{i}"
            ground.append(lab)
            if i < r_copies:
                r_labels.append(lab)
    # copy i of element e is bit per * e + i; a basis takes one copy of each
    masks = set()
    for b in m.bases:
        copies = [[1 << (per * e + i) for i in range(per)] for e in _bits(b)]
        masks.update(sum(picked) for picked in product(*copies))
    return Matroid(tuple(ground), sorted(masks)), frozenset(r_labels)


def g_polynomial(m: Matroid, subsets):
    """The substituted basis generating polynomial over one variable per
    subset: x_e -> sum of y_i over subsets containing e."""
    if not m.n:  # f = 1, and a matrix of no rows has no columns
        return MPoly(len(subsets), {(0,) * len(subsets): 1})
    masks = [m._mask(s) for s in subsets]
    a = QMatrix([[mask >> i & 1 for mask in masks] for i in range(m.n)])
    return basis_generating_poly(m).substitute_linear(a)
