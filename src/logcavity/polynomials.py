"""Exact multivariate polynomials and the Lorentzian / M-convexity checks.

Coefficients are Fractions keyed by dense exponent tuples; degrees and
variable counts here are tiny, so no monomial-order machinery is used.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import (
    DegreeMismatch,
    DimensionMismatch,
    IndexOutOfRange,
    MixedDegrees,
    NegativeCoefficient,
)
from .linalg import QMatrix, inertia
from .matroids import Matroid, _bits


def _q(x):
    return x if isinstance(x, Fraction) else Fraction(x)


class MPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms):
        object.__setattr__(self, "nvars", nvars)
        clean = {}
        for exp, c in terms.items():
            c = _q(c)
            if c == 0:
                continue
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise DimensionMismatch(f"bad exponent vector {exp}")
            clean[exp] = clean.get(exp, Fraction(0)) + c
        object.__setattr__(
            self, "terms", {e: c for e, c in clean.items() if c != 0}
        )

    def __setattr__(self, *a):
        raise AttributeError("MPoly is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "MPoly(0)"
        bits = []
        for exp, c in sorted(self.terms.items()):
            mono = "*".join(
                f"x{i}^{e}" if e > 1 else f"x{i}"
                for i, e in enumerate(exp)
                if e
            )
            bits.append(f"{c}*{mono}" if mono else str(c))
        return "MPoly(" + " + ".join(bits) + ")"

    @staticmethod
    def zero(nvars):
        return MPoly(nvars, {})

    @staticmethod
    def constant(nvars, c):
        return MPoly(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars, i):
        exp = [0] * nvars
        exp[i] = 1
        return MPoly(nvars, {tuple(exp): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), Fraction(0))

    def support(self):
        return SupportSet(frozenset(self.terms))

    def has_nonneg_coefficients(self):
        return all(c >= 0 for c in self.terms.values())

    def __add__(self, other):
        if self.nvars != other.nvars:
            raise DimensionMismatch("variable counts differ")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MPoly(self.nvars, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            return self.scale(other)
        if self.nvars != other.nvars:
            raise DimensionMismatch("variable counts differ")
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MPoly(self.nvars, out)

    def scale(self, s):
        s = _q(s)
        return MPoly(self.nvars, {e: c * s for e, c in self.terms.items()})

    def partial(self, i):
        if not 0 <= i < self.nvars:
            raise IndexOutOfRange(f"no variable {i}")
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            new = list(e)
            new[i] -= 1
            out[tuple(new)] = c * e[i]
        return MPoly(self.nvars, out)

    def partial_multi(self, alpha):
        out = self
        for i, k in enumerate(alpha):
            for _ in range(k):
                out = out.partial(i)
                if out.is_zero():
                    return out
        return out

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise DimensionMismatch("point length must equal nvars")
        point = [_q(x) for x in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v *= x**k
            total += v
        return total

    def gradient_at(self, point):
        return tuple(self.partial(i).evaluate(point) for i in range(self.nvars))

    def hessian_at(self, point) -> QMatrix:
        n = self.nvars
        partials = [self.partial(i) for i in range(n)]
        rows = []
        for i in range(n):
            rows.append(
                [partials[i].partial(j).evaluate(point) for j in range(n)]
            )
        return QMatrix(rows)

    def substitute_linear(self, a: QMatrix):
        """Compose with the linear map x = A y: returns f(Ay) in a.cols variables."""
        if a.rows != self.nvars:
            raise DimensionMismatch("matrix must have one row per variable")
        m = a.cols
        lin = [MPoly(m, {_unit(m, j): a[i][j] for j in range(m)}) for i in range(self.nvars)]
        out = MPoly.zero(m)
        for e, c in self.terms.items():
            term = MPoly.constant(m, c)
            for i, k in enumerate(e):
                for _ in range(k):
                    term = term * lin[i]
            out = out + term
        return out

    def to_json(self):
        return {
            "nvars": self.nvars,
            "terms": [
                {"exp": list(e), "num": str(c.numerator), "den": str(c.denominator)}
                for e, c in sorted(self.terms.items())
            ],
        }

    @staticmethod
    def from_json(obj):
        terms = {
            tuple(t["exp"]): Fraction(int(t["num"]), int(t["den"]))
            for t in obj["terms"]
        }
        return MPoly(obj["nvars"], terms)


def _unit(n, j):
    e = [0] * n
    e[j] = 1
    return tuple(e)


@dataclass(frozen=True)
class SupportSet:
    exponents: frozenset

    def degrees(self):
        return {sum(e) for e in self.exponents}


def basis_generating_poly(m: Matroid) -> MPoly:
    """Sum of squarefree monomials over the bases; homogeneous of degree rank."""
    terms = {}
    for b in m.bases:
        exp = [0] * m.n
        for i in _bits(b):
            exp[i] = 1
        terms[tuple(exp)] = Fraction(1)
    return MPoly(m.n, terms)


def polarization(f: MPoly, vectors) -> Fraction:
    """Polarization form F_f(v_1, ..., v_d): the symmetric multilinear form
    with F_f(v, ..., v) = f(v), extracted by inclusion-exclusion over subset
    sums (exact finite differencing of the degree-d polynomial)."""
    if not f.is_homogeneous():
        raise DegreeMismatch("polarization needs a homogeneous polynomial")
    d = f.degree()
    vectors = [tuple(_q(x) for x in v) for v in vectors]
    if len(vectors) != d:
        raise DegreeMismatch(f"need exactly {d} vectors, got {len(vectors)}")
    for v in vectors:
        if len(v) != f.nvars:
            raise DimensionMismatch("vector length must equal nvars")
    if d == 0:
        return f.evaluate((0,) * f.nvars)
    total = Fraction(0)
    for size in range(d + 1):
        sign = (-1) ** (d - size)
        for subset in combinations(range(d), size):
            point = [Fraction(0)] * f.nvars
            for i in subset:
                for j in range(f.nvars):
                    point[j] += vectors[i][j]
            total += sign * f.evaluate(point)
    return total / math.factorial(d)


def m_convex(support) -> bool:
    """Exchange property on exponent vectors, checked exhaustively."""
    if isinstance(support, SupportSet):
        exps = list(support.exponents)
    else:
        exps = [tuple(e) for e in support]
    if not exps:
        return True
    degs = {sum(e) for e in exps}
    if len(degs) > 1:
        raise MixedDegrees("support mixes total degrees")
    expset = set(exps)
    n = len(exps[0])
    for alpha in exps:
        for beta in exps:
            for i in range(n):
                if alpha[i] <= beta[i]:
                    continue
                ok = False
                for j in range(n):
                    if alpha[j] < beta[j]:
                        cand = list(alpha)
                        cand[i] -= 1
                        cand[j] += 1
                        if tuple(cand) in expset:
                            ok = True
                            break
                if not ok:
                    return False
    return True


def default_sample_points(nvars):
    """The all-ones point plus one rational perturbation pencil."""
    ones = tuple(Fraction(1) for _ in range(nvars))
    pencil = tuple(Fraction(10 + i, 10) for i in range(nvars))
    return (ones, pencil)


@dataclass(frozen=True)
class LorentzianReport:
    passed: bool
    homogeneous: bool
    m_convex_support: bool
    failures: tuple  # (alpha, point) pairs where the Hessian test failed
    sample_points: tuple


def lorentzian_check(f: MPoly, sample_points=None) -> LorentzianReport:
    """Desk-scale Lorentzian certificate: nonnegative coefficients, M-convex
    support, and for every derivative order up to codegree 2 the Hessian has
    exactly one positive eigenvalue at each (positive) sample point.

    The positivity quantifier of the definition ranges over all positive
    points; sampling is the exact-arithmetic surrogate used here."""
    if not f.has_nonneg_coefficients():
        raise NegativeCoefficient("Lorentzian candidates need nonneg coefficients")
    if sample_points is None:
        sample_points = default_sample_points(f.nvars)
    sample_points = tuple(tuple(_q(x) for x in p) for p in sample_points)
    homogeneous = f.is_homogeneous()
    if f.is_zero():
        return LorentzianReport(True, True, True, (), sample_points)
    if not homogeneous:
        return LorentzianReport(False, False, False, (), sample_points)
    mcx = m_convex(f.support())
    failures = []
    d = f.degree()
    if d >= 2:
        for alpha in _exponents_up_to(f.nvars, d - 2):
            g = f.partial_multi(alpha)
            if g.is_zero():
                continue
            for point in sample_points:
                h = g.hessian_at(point)
                if inertia(h).n_pos != 1:
                    failures.append((alpha, point))
    passed = mcx and not failures
    return LorentzianReport(passed, homogeneous, mcx, tuple(failures), sample_points)


def _exponents_up_to(n, max_total):
    """All exponent vectors in n variables of total degree <= max_total."""

    def rec(pos, remaining):
        if pos == n:
            yield ()
            return
        for k in range(remaining + 1):
            for rest in rec(pos + 1, remaining - k):
                yield (k,) + rest

    for total in range(max_total + 1):
        for e in rec(0, total):
            if sum(e) == total:
                yield e


def _exponents_of_degree(n, total):
    def rec(pos, remaining):
        if pos == n - 1:
            yield (remaining,)
            return
        for k in range(remaining + 1):
            for rest in rec(pos + 1, remaining - k):
                yield (k,) + rest

    if n == 0:
        if total == 0:
            yield ()
        return
    yield from rec(0, total)


def coefficient_logconcavity(f: MPoly) -> bool:
    """Normalized-coefficient log-concavity: with f = sum c_a/a! x^a, checks
    c_a^2 >= c_{a+ei-ej} c_{a-ei+ej} over the whole degree simplex."""
    if not f.is_homogeneous():
        raise DegreeMismatch("needs a homogeneous polynomial")
    d = f.degree()
    n = f.nvars

    def c(exp):
        if any(e < 0 for e in exp):
            return Fraction(0)
        coeff = f.terms.get(tuple(exp), Fraction(0))
        for e in exp:
            coeff *= math.factorial(e)
        return coeff

    for alpha in _exponents_of_degree(n, d):
        ca = c(alpha)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                up = list(alpha)
                up[i] += 1
                up[j] -= 1
                down = list(alpha)
                down[i] -= 1
                down[j] += 1
                if ca * ca < c(up) * c(down):
                    return False
    return True


def polarization_af_analog_check(f: MPoly, vectors) -> bool:
    """F(v1,v2,v3..)^2 >= F(v1,v1,v3..) F(v2,v2,v3..) for nonneg vectors."""
    vectors = [tuple(_q(x) for x in v) for v in vectors]
    mixed = polarization(f, vectors)
    left = polarization(f, [vectors[0], vectors[0]] + list(vectors[2:]))
    right = polarization(f, [vectors[1], vectors[1]] + list(vectors[2:]))
    return mixed * mixed >= left * right
