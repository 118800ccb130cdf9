"""Stanley's matroid inequality pipelines: basis counting sequences,
ultra-log-concavity, equality characterizations, zonotope mixed-volume
cross-checks, and the truncated-sum construction behind Mason's inequality.

Direct basis enumeration is the ground truth; the mixed-volume and
polynomial-substitution routes are cross-checks.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .errors import BadMultiplicities, DimensionMismatch, LoopPresent, TooLarge
from .linalg import QMatrix, _bits, integer_det
from .matroids import Matroid
from .polynomials import basis_generating_poly


def _log_concave(seq):
    """seq[k] seq[k] >= seq[k - 1] seq[k + 1] at every inner index k."""
    return all(
        seq[k] * seq[k] >= seq[k - 1] * seq[k + 1] for k in range(1, len(seq) - 1)
    )


@dataclass(frozen=True)
class StanleySequence:
    counts: tuple  # N_0..N_r
    normalized: tuple  # N_k / C(r, k)

    @property
    def total(self):
        return sum(self.counts)

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
        raise BadMultiplicities(
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


@dataclass(frozen=True)
class RatioVerdict:
    holds: bool
    ratio: object  # Fraction q/r when holds, else None


def ratio_condition_check(m: Matroid, R) -> RatioVerdict:
    """True iff |class ∩ R| / |class ∩ Q| is one positive rational across all
    parallel classes; that constant is the expected step ratio of the
    normalized sequence."""
    if m.loops():
        raise LoopPresent("ratio condition is stated for loopless matroids")
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


def _transversal_sum(groups) -> Fraction:
    """Sum of |det| over the square matrices whose rows are m distinct
    positions of each group (vectors, m). Denominators are cleared once by
    their common lcm d, so every determinant is of integers; equal vectors
    of a group are taken once, weighted by their count, and zero vectors not
    at all, since a repeated or zero row has determinant 0."""
    d = math.lcm(*(x.denominator for vectors, _ in groups for v in vectors for x in v))
    choices = []
    for vectors, m in groups:
        counts = Counter(
            tuple(x.numerator * (d // x.denominator) for x in v)
            for v in vectors
            if any(v)
        )
        choices.append(combinations(counts.items(), m))
    total = 0
    for choice in product(*choices):
        rows = [v for picked in choice for v, _ in picked]
        weight = math.prod(c for picked in choice for _, c in picked)
        total += weight * abs(integer_det(rows))
    return Fraction(total, d ** sum(m for _, m in groups))


def zonotope_volume(vectors) -> Fraction:
    """Volume of the zonotope spanned by the segments [0, v_i]: the sum of
    absolute determinants over n-subsets (duplicates contribute by
    multiplicity products)."""
    vectors = [tuple(Fraction(x) for x in v) for v in vectors]
    if not vectors:
        return Fraction(0)
    n = len(vectors[0])
    if any(len(v) != n for v in vectors):
        raise DimensionMismatch("all vectors must have the same dimension")
    return _transversal_sum([(vectors, n)])


def mixed_volume_zonotopes(lists) -> Fraction:
    """Mixed volume V_r(Z(T_1), ..., Z(T_r)) by the transversal formula
    (Shephard 1974): r! V = sum of |det(v_1, ..., v_r)| over v_i in T_i.
    Equal lists are taken together: a list repeated m times contributes
    m! times the sum over its m-subsets, so V = prod m! / r! times the
    transversal sum over those subsets. With no zonotopes the value is 0."""
    lists = [tuple(tuple(Fraction(x) for x in v) for v in t) for t in lists]
    r = len(lists)
    for t in lists:
        for v in t:
            if len(v) != r:
                raise DimensionMismatch(
                    "ambient dimension must equal the number of zonotopes"
                )
    if not r:
        return Fraction(0)
    groups = Counter(lists)
    weight = math.prod(math.factorial(m) for m in groups.values())
    return weight * _transversal_sum(list(groups.items())) / math.factorial(r)


@dataclass(frozen=True)
class MasonReport:
    independent_counts: tuple  # I_0..I_r
    log_concave: bool
    construction_identity: bool  # f_k of T^n(B_n (+) M) equals I_k C(n, n-k)


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
        raise BadMultiplicities("each class needs at least one copy per side")
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
    cols = len(subsets)
    masks = [m._mask(s) for s in subsets]
    a = QMatrix(
        [
            [Fraction(1) if masks[j] >> i & 1 else Fraction(0) for j in range(cols)]
            for i in range(m.n)
        ]
    )
    return basis_generating_poly(m).substitute_linear(a)
