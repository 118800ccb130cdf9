"""Mixed discriminants by independent routes, Alexandrov's inequality with
its equality case, and hyperbolicity of symmetric matrices."""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

from .errors import DimensionMismatch, NotPSD, NotSymmetric
from .linalg import QMatrix, det, inertia, integer_det
from .polynomials import polarization_sum


def _square_tuple(mats):
    """The n matrices of a mixed discriminant, all n x n, as a list."""
    mats = list(mats)
    if not mats:
        raise DimensionMismatch("need at least one matrix")
    n = mats[0].rows
    if any(a.rows != n or a.cols != n for a in mats):
        raise DimensionMismatch("all matrices must be n x n")
    if len(mats) != n:
        raise DimensionMismatch(f"need exactly {n} matrices for dimension {n}")
    return mats


def mixed_discriminant(mats) -> Fraction:
    """D(A_1, ..., A_n) as the polarization of det (Bapat, Mixed
    discriminants of positive semidefinite matrices, 1989): with distinct
    matrices A_i taken m_i times, n! D is the sum over 0 <= j_i <= m_i of
    (-1)^(n - sum j) prod C(m_i, j_i) det(sum j_i A_i). The entries are
    scaled once by their common denominator d, so every determinant is of
    integers, and the sum is divided by n! d^n."""
    mats = _square_tuple(mats)
    n = len(mats)
    groups = Counter(mats)
    d = math.lcm(*(x.denominator for a in groups for row in a.m for x in row))
    # each matrix as one flat row-major list of d-scaled integer entries
    scaled = [
        [x.numerator * (d // x.denominator) for row in a.m for x in row]
        for a in groups
    ]

    def value(js):
        flat = [0] * (n * n)
        for j, a in zip(js, scaled):
            if j:
                flat = [x + j * y for x, y in zip(flat, a)]
        return integer_det([flat[r * n : (r + 1) * n] for r in range(n)])

    total = polarization_sum(list(groups.values()), value)
    return Fraction(total, math.factorial(n) * d**n)


def mixed_discriminant_perm(mats) -> Fraction:
    """(1/n!) sum over permutations of the determinant whose j-th column is
    column j of the sigma(j)-th matrix: the defining formula, kept as the
    reference route for `mixed_discriminant`."""
    mats = _square_tuple(mats)
    n = len(mats)
    cols = [[a.column(j) for j in range(n)] for a in mats]
    total = Fraction(0)
    for sigma in permutations(range(n)):
        picked = QMatrix(zip(*[cols[sigma[j]][j] for j in range(n)]))
        total += det(picked)
    return total / math.factorial(n)


@dataclass(frozen=True)
class GramFactor:
    """Column factor X with per-column nonnegative weights: represents the
    PSD matrix  sum_j w_j x_j x_j^T  without leaving rational arithmetic."""

    columns: tuple  # tuple of column tuples
    weights: tuple  # tuple of Fractions

    @staticmethod
    def from_matrix(x: QMatrix):
        return GramFactor(
            tuple(x.column(j) for j in range(x.cols)),
            tuple(Fraction(1) for _ in range(x.cols)),
        )

    def psd_matrix(self) -> QMatrix:
        n = len(self.columns[0]) if self.columns else 0
        acc = [[Fraction(0)] * n for _ in range(n)]
        for col, w in zip(self.columns, self.weights):
            for i in range(n):
                for j in range(n):
                    acc[i][j] += w * col[i] * col[j]
        return QMatrix(acc)


def mixed_discriminant_gram(factors) -> Fraction:
    """(1/n!) sum over column choices of weight-scaled squared determinants.

    Each factor is a QMatrix with n rows (unit weights) or a GramFactor; the
    value equals the permutation-formula discriminant of X_k X_k^T."""
    norm = []
    for f in factors:
        if isinstance(f, QMatrix):
            f = GramFactor.from_matrix(f)
        norm.append(f)
    if not norm:
        raise DimensionMismatch("need at least one factor")
    n = len(norm[0].columns[0])
    if any(len(c) != n for f in norm for c in f.columns):
        raise DimensionMismatch("all factor columns must have n entries")
    if len(norm) != n:
        raise DimensionMismatch(f"need exactly {n} factors for dimension {n}")
    total = Fraction(0)
    for choice in product(*[range(len(f.columns)) for f in norm]):
        cols = [norm[k].columns[j] for k, j in enumerate(choice)]
        w = Fraction(1)
        for k, j in enumerate(choice):
            w *= norm[k].weights[j]
        if w == 0:
            continue
        d = det(QMatrix(zip(*cols)))
        total += w * d * d
    return total / math.factorial(n)


@dataclass(frozen=True)
class PSDFactorization:
    """LDL^T data for a rational PSD matrix: lower unitriangular L and the
    nonnegative pivot diagonal; sqrt_factor is L sqrt(D) when every pivot is
    a rational square, else None."""

    lower: QMatrix
    diag: tuple
    sqrt_factor: object

    def gram_factor(self) -> GramFactor:
        cols = tuple(self.lower.column(j) for j in range(self.lower.cols))
        return GramFactor(cols, self.diag)


def _rational_sqrt(x: Fraction):
    """The rational root of a pivot x >= 0 of `psd_decompose`, else None."""
    pn = math.isqrt(x.numerator)
    pd = math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


def psd_decompose(a: QMatrix) -> PSDFactorization:
    """Rational LDL^T of a symmetric PSD matrix; raises NotPSD on any
    negative pivot or on a zero pivot with a nonzero residual row."""
    if not a.is_symmetric:
        raise NotSymmetric("decomposition requires a symmetric matrix")
    n = a.rows
    m = [list(row) for row in a.m]
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    diag = []
    for k in range(n):
        pivot = m[k][k]
        if pivot < 0:
            raise NotPSD(f"negative pivot at position {k}")
        diag.append(pivot)
        if pivot == 0:
            if any(m[k][j] != 0 for j in range(k, n)):
                raise NotPSD(f"zero pivot with nonzero row at position {k}")
            continue
        for i in range(k + 1, n):
            f = m[i][k] / pivot
            lower[i][k] = f
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
        for i in range(k + 1, n):
            m[k][i] = Fraction(0)
    roots = [_rational_sqrt(d) for d in diag]
    sqrt_factor = None
    if all(r is not None for r in roots):
        sqrt_factor = QMatrix(
            [lower[i][j] * roots[j] for j in range(n)] for i in range(n)
        )
    return PSDFactorization(QMatrix(lower), tuple(diag), sqrt_factor)


@dataclass(frozen=True)
class AlexandrovReport:
    lhs: Fraction  # D(X, Y, fixed)^2
    rhs: Fraction  # D(X, X, fixed) * D(Y, Y, fixed)
    equal: bool
    lam: object  # the scalar with Y = lam X, when equality and PD hypotheses
    proportional: bool


def is_psd(a: QMatrix) -> bool:
    """Whether a is symmetric and positive semidefinite: one inertia."""
    return a.is_symmetric and inertia(a).n_neg == 0


def alexandrov_check(
    x: QMatrix, y: QMatrix, fixed, mixed=None, psd=is_psd
) -> AlexandrovReport:
    """Alexandrov's inequality for mixed discriminants, with exact equality
    detection and proportionality extraction.

    A caller that already holds D(X, Y, fixed) passes it as mixed, and one
    that already tests matrices for positive semidefiniteness passes its
    (memoized) test as psd, so that neither is computed twice."""
    fixed = list(fixed)
    n = x.rows
    if y.rows != n or y.cols != n or x.cols != n:
        raise DimensionMismatch("X and Y must be n x n")
    if len(fixed) != n - 2:
        raise DimensionMismatch(f"need n-2 = {n - 2} fixed matrices")
    for a in dict.fromkeys(fixed):
        if not a.is_symmetric:
            raise NotSymmetric("fixed matrices must be symmetric")
        if not psd(a):
            raise NotPSD("fixed matrices must be positive semidefinite")
    if not (x.is_symmetric and y.is_symmetric):
        raise NotSymmetric("X and Y must be symmetric")
    if mixed is None:
        mixed = mixed_discriminant([x, y] + fixed)
    xx = mixed_discriminant([x, x] + fixed)
    yy = mixed_discriminant([y, y] + fixed)
    lhs = mixed * mixed
    rhs = xx * yy
    equal = lhs == rhs
    lam = None
    proportional = False
    if equal:
        witness = None
        for i in range(n):
            for j in range(n):
                if x[i][j] != 0:
                    witness = y[i][j] / x[i][j]
                    break
            if witness is not None:
                break
        if witness is not None and y == x.scale(witness):
            lam = witness
            proportional = True
    return AlexandrovReport(lhs, rhs, equal, lam, proportional)


def mixed_discriminant_sequence(a: QMatrix, b: QMatrix):
    """D_k = D(a taken k times, b taken n-k times), k = 0..n."""
    n = a.rows
    return [
        mixed_discriminant([a] * k + [b] * (n - k)) for k in range(n + 1)
    ]


def hyperbolic_check(m: QMatrix) -> bool:
    """True iff the positive eigenspace has dimension at most one."""
    if not m.is_symmetric:
        raise NotSymmetric("hyperbolicity is about symmetric matrices")
    return inertia(m).n_pos <= 1
