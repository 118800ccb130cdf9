"""Mixed discriminants by independent routes, and Alexandrov's inequality
with its equality case."""

import math
from collections import Counter
from fractions import Fraction
from itertools import islice, permutations, product

from .errors import LogcavityError
from .linalg import QMatrix, Record, _common_scaled, det, integer_dets, integer_inertia
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


_BATCH = 256  # members per `integer_dets` call, which holds all their entries


class SubsetSumTable:
    """The mixed discriminants of a tuple of n x n matrices, by position, each
    once, from det(sum j_i A_i) over its distinct A_i, each sum once, in ints:
    the distinct matrices are scaled by one d, and kept as flat int rows."""

    def __init__(self, mats):
        self.mats, self.n = list(mats), mats[0].rows
        distinct = {}  # each distinct matrix: its index
        self.where = [distinct.setdefault(a, len(distinct)) for a in mats]
        self.d, self.flats = _common_scaled(distinct)
        self.dets, self.values, self.psds = {(): 0}, {}, {}  # () is the zero sum

    def psd(self, p):
        """Whether the matrix at position p is symmetric and PSD, read once
        per distinct matrix off its ints (d > 0 keeps inertia)."""
        a, i = self.mats[p], self.where[p]
        if i not in self.psds:
            symmetric = a.is_symmetric
            self.psds[i] = symmetric and integer_inertia(a.ints).n_neg == 0
        return self.psds[i]

    def discriminant(self, positions) -> Fraction:
        """D of the matrices at positions, as the polarization of det (Bapat,
        Mixed discriminants of positive semidefinite matrices, 1989): with
        distinct matrices A_i taken m_i times, n! D is the sum over
        0 <= j_i <= m_i of (-1)^(n - sum j) prod C(m_i, j_i) det(sum j_i A_i).
        Each D is kept under its sorted (i, m_i) signature; the missing sums,
        keyed by (i, j_i > 0), grow from their prefixes into `integer_dets`."""
        signature = tuple(sorted(Counter(self.where[p] for p in positions).items()))
        if signature not in self.values:
            ids, mults = zip(*signature)
            counts = product(*[range(m + 1) for m in mults])
            keys = {js: tuple([(i, j) for i, j in zip(ids, js) if j]) for js in counts}

            def flat(key):
                if key not in sums:
                    (i, j), prefix = key[-1], flat(key[:-1])
                    sums[key] = [x + j * y for x, y in zip(prefix, self.flats[i])]
                return sums[key]

            missing = [key for key in keys.values() if key not in self.dets]
            for at in range(0, len(missing), _BATCH):
                sums, batch = {(): [0] * self.n**2}, missing[at : at + _BATCH]
                self.dets.update(zip(batch, integer_dets([*map(flat, batch)], self.n)))
            total = polarization_sum(mults, lambda js: self.dets[keys[js]])
            scale = math.factorial(self.n) * self.d**self.n
            self.values[signature] = Fraction(total, scale)
        return self.values[signature]


def mixed_discriminant(mats) -> Fraction:
    """D(A_1, ..., A_n) as the polarization of det: the discriminant of the
    whole tuple in its own `SubsetSumTable`."""
    mats = list(mats)
    _check_count(mats, len(mats))
    return SubsetSumTable(mats).discriminant(range(len(mats)))


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
    X_k is a QMatrix with n rows, and the value equals the permutation-formula
    discriminant of the X_k X_k^T. All factors are scaled to ints by one d,
    so a pick's determinant (of its columns as rows) is an int times d^n."""
    if not factors:
        raise LogcavityError("the Gram route needs at least one factor")
    n = factors[0].rows
    if any(f.rows != n for f in factors):
        raise LogcavityError(f"Gram route factors must all have {n} rows")
    if len(factors) != n:
        raise LogcavityError(
            f"the Gram route needs {n} factors of {n} rows, got {len(factors)}"
        )
    d, flats = _common_scaled(factors)
    columns = [[f[j :: a.cols] for j in range(a.cols)] for f, a in zip(flats, factors)]
    picks = ([x for col in pick for x in col] for pick in product(*columns))
    batches = iter(lambda: integer_dets(list(islice(picks, _BATCH)), n), [])
    total = sum(v * v for dets in batches for v in dets)
    return Fraction(total, math.factorial(n) * d ** (2 * n))


class AlexandrovReport(Record):
    """lhs = D(X, Y, fixed)^2 against rhs = D(X, X, fixed) D(Y, Y, fixed); lam
    is the scalar with Y = lam X, when equality and PD hypotheses hold."""

    _fields = ("lhs", "rhs", "equal", "lam", "proportional")


def _alexandrov_failure(table):
    """The first failed hypothesis of Alexandrov's inequality on the table, as
    a message, or None: n >= 2, each fixed one symmetric then PSD, X, Y symmetric."""
    mats = table.mats
    if table.n < 2:
        return "needs X and Y, so n >= 2"
    for p in range(2, table.n):
        if not mats[p].is_symmetric:
            return "fixed matrices must be symmetric"
        if not table.psd(p):
            return "fixed matrices must be PSD"
    if not (mats[0].is_symmetric and mats[1].is_symmetric):
        return "X and Y must be symmetric"


def alexandrov_check(table: SubsetSumTable) -> AlexandrovReport:
    """Alexandrov's inequality for mixed discriminants, with exact equality
    detection and proportionality extraction, for the table's matrices: X at
    position 0, Y at 1 and the fixed ones after them.

    The symmetry and PSD tests and D(X, Y, fixed), D(X, X, fixed) and
    D(Y, Y, fixed) all read the table: no determinant, inertia or
    discriminant is computed twice."""
    mats, n = table.mats, table.n
    _check_count(mats, len(mats))  # X, Y and n - 2 fixed matrices, all n x n
    if failed := _alexandrov_failure(table):
        raise LogcavityError("Alexandrov check: " + failed)
    rest = range(2, n)
    mixed, xx, yy = map(table.discriminant, (range(n), [0, 0, *rest], [1, 1, *rest]))
    lhs, rhs, lam = mixed * mixed, xx * yy, None
    if lhs == rhs:
        # the first nonzero entry of X gives the only candidate lambda
        fx, fy = table.flats[table.where[0]], table.flats[table.where[1]]
        a, b = next(((a, b) for a, b in zip(fx, fy) if a), (0, 0))
        if a and all(a * v == b * u for u, v in zip(fx, fy)):
            lam = Fraction(b, a)
    return AlexandrovReport(lhs, rhs, lhs == rhs, lam, lam is not None)


def discriminant_report(given):
    """(results, findings, violations) of the `discriminant` command for the
    (matrix, multiplicity) pairs given; Alexandrov's inequality is checked
    where its hypotheses hold: symmetric X and Y, the first two, PSD rest."""
    _check_count([a for a, _ in given], sum(mult for _, mult in given))
    mats = [a for a, mult in given for _ in range(mult)]
    table = SubsetSumTable(mats)
    value = table.discriminant(range(len(mats)))
    results = {"value": str(value), "n": mats[0].rows, "count": len(mats)}
    violations = []
    # one inertia per distinct matrix, shared with alexandrov_check below
    results["psd_inputs"] = all(map(table.psd, range(len(mats))))
    if results["psd_inputs"] and value < 0:
        violations.append("positivity failed for PSD tuple")
    if _alexandrov_failure(table) is None:
        rep = alexandrov_check(table)
        results["alexandrov"] = {
            "lhs": str(rep.lhs),
            "rhs": str(rep.rhs),
            "equal": rep.equal,
            "lambda": str(rep.lam) if rep.lam is not None else None,
        }
        if rep.lhs < rep.rhs:
            violations.append("alexandrov inequality failed")
    return results, [], violations
