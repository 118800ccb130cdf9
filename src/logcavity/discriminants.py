"""Mixed discriminants by independent routes, and Alexandrov's inequality
with its equality case."""

import math
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

from .errors import LogcavityError
from .linalg import QMatrix, Record, _scaled, det, integer_det, integer_inertia
from .polynomials import polarization_sum


def _check_count(mats, count):
    """Raise unless count matrices drawn from mats can be those of a mixed
    discriminant: all n x n, and n of them."""
    if not mats:
        raise LogcavityError("a mixed discriminant needs at least one matrix")
    n = mats[0].rows
    if any(a.rows != n or a.cols != n for a in mats):
        raise LogcavityError(f"mixed discriminant matrices must all be {n} x {n}")
    if count != n:
        raise LogcavityError(
            f"a mixed discriminant of {n} x {n} matrices needs {n} of them, "
            f"got {count}"
        )


class SubsetSumTable:
    """det(sum j_i A_i) over the distinct matrices A_i of one command, each
    sum once, in integers: the entries are scaled by their common denominator."""

    def __init__(self, mats):
        self.index = {a: i for i, a in enumerate(dict.fromkeys(mats))}
        # each matrix as one flat row-major list of d-scaled integer entries
        flat = ([x for row in a.m for x in row] for a in self.index)
        self.d, self.scaled = _scaled(flat)
        self.dets = {}
        self.psds = {}

    def psd(self, a):
        """Whether a, one of the matrices, is symmetric and PSD, read once off
        its d-scaled rows: the scale d > 0 keeps symmetry and inertia."""
        i = self.index[a]
        if i not in self.psds:
            n, flat = a.rows, self.scaled[i]
            rows = [flat[r * n : (r + 1) * n] for r in range(n)]
            symmetric = a.is_square and rows == [list(c) for c in zip(*rows)]
            self.psds[i] = symmetric and integer_inertia(rows, n)[1].n_neg == 0
        return self.psds[i]

    def det(self, key):
        """d^n det(sum j_i A_i) for key, the sorted pairs (i, j_i), j_i > 0."""
        if key not in self.dets:
            n = next(iter(self.index)).rows
            flat = [0] * (n * n)
            for i, j in key:
                flat = [x + j * y for x, y in zip(flat, self.scaled[i])]
            self.dets[key] = integer_det([flat[r * n : (r + 1) * n] for r in range(n)])
        return self.dets[key]


def mixed_discriminant(mats, table=None) -> Fraction:
    """D(A_1, ..., A_n) as the polarization of det (Bapat, Mixed
    discriminants of positive semidefinite matrices, 1989): with distinct
    matrices A_i taken m_i times, n! D is the sum over 0 <= j_i <= m_i of
    (-1)^(n - sum j) prod C(m_i, j_i) det(sum j_i A_i), each determinant
    read from table (one of these matrices alone by default), which must
    hold every A_i."""
    mats = list(mats)
    _check_count(mats, len(mats))
    table = table or SubsetSumTable(mats)
    groups = Counter(mats)
    where = [table.index[a] for a in groups]

    def value(js):
        return table.det(tuple(sorted((i, j) for i, j in zip(where, js) if j)))

    total = polarization_sum(list(groups.values()), value)
    return Fraction(total, math.factorial(len(mats)) * table.d ** len(mats))


def mixed_discriminant_perm(mats) -> Fraction:
    """(1/n!) sum over permutations of the determinant whose j-th column is
    column j of the sigma(j)-th matrix: the defining formula, kept as the
    reference route for `mixed_discriminant`."""
    mats = list(mats)
    _check_count(mats, len(mats))
    n = len(mats)
    cols = [[a.column(j) for j in range(n)] for a in mats]
    total = Fraction(0)
    for sigma in permutations(range(n)):
        picked = QMatrix(zip(*[cols[sigma[j]][j] for j in range(n)]))
        total += det(picked)
    return total / math.factorial(n)


def mixed_discriminant_gram(factors) -> Fraction:
    """(1/n!) sum over column choices of squared determinants: each factor
    X_k is a QMatrix with n rows, and the value equals the
    permutation-formula discriminant of the X_k X_k^T."""
    if not factors:
        raise LogcavityError("the Gram route needs at least one factor")
    n = factors[0].rows
    if any(f.rows != n for f in factors):
        raise LogcavityError(f"Gram route factors must all have {n} rows")
    if len(factors) != n:
        raise LogcavityError(
            f"the Gram route needs {n} factors of {n} rows, got {len(factors)}"
        )
    columns = [[f.column(j) for j in range(f.cols)] for f in factors]
    total = Fraction(0)
    for cols in product(*columns):
        total += det(QMatrix(zip(*cols))) ** 2
    return total / math.factorial(n)


class AlexandrovReport(Record):
    """lhs = D(X, Y, fixed)^2 against rhs = D(X, X, fixed) D(Y, Y, fixed); lam
    is the scalar with Y = lam X, when equality and PD hypotheses hold."""

    _fields = ("lhs", "rhs", "equal", "lam", "proportional")


def alexandrov_check(x: QMatrix, y: QMatrix, fixed, table=None) -> AlexandrovReport:
    """Alexandrov's inequality for mixed discriminants, with exact equality
    detection and proportionality extraction.

    The PSD test of the fixed matrices and D(X, Y, fixed), D(X, X, fixed)
    and D(Y, Y, fixed) share one SubsetSumTable, the caller's table if
    given (it must hold X, Y and the fixed matrices), so that no
    determinant or inertia is computed twice."""
    fixed = list(fixed)
    n = x.rows
    if y.rows != n or y.cols != n or x.cols != n:
        raise LogcavityError(f"Alexandrov check: X and Y must be {n} x {n}")
    if len(fixed) != n - 2:
        raise LogcavityError(
            f"Alexandrov check needs n-2 = {n - 2} fixed matrices, got {len(fixed)}"
        )
    table = table or SubsetSumTable([x, y] + fixed)
    for a in dict.fromkeys(fixed):
        if not a.is_symmetric:
            raise LogcavityError("Alexandrov check: fixed matrices must be symmetric")
        if not table.psd(a):
            raise LogcavityError("Alexandrov check: fixed matrices must be PSD")
    if not (x.is_symmetric and y.is_symmetric):
        raise LogcavityError("Alexandrov check: X and Y must be symmetric")
    mixed = mixed_discriminant([x, y] + fixed, table)
    xx = mixed_discriminant([x, x] + fixed, table)
    yy = mixed_discriminant([y, y] + fixed, table)
    lhs = mixed * mixed
    rhs = xx * yy
    equal = lhs == rhs
    lam = None
    proportional = False
    if equal:
        # the first nonzero entry of X gives the only candidate lambda
        ratios = (b / a for ra, rb in zip(x.m, y.m) for a, b in zip(ra, rb) if a)
        witness = next(ratios, None)
        if witness is not None and y == x.scale(witness):
            lam, proportional = witness, True
    return AlexandrovReport(lhs, rhs, equal, lam, proportional)
