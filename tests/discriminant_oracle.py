"""Positive definite test matrices, the rational LDL^T that turns a PSD
matrix into a weighted Gram factor, the Gram-factor route to the mixed
discriminant on weighted factors, Alexandrov's three values by three
permutation sums and the mixed discriminant read off a symbolic
determinant, used only by the tests; no command decomposes a matrix."""

import math
from fractions import Fraction
from itertools import permutations, product
from typing import NamedTuple

from logcavity.discriminants import mixed_discriminant_perm
from logcavity.errors import LogcavityError
from logcavity.linalg import QMatrix, det
from logcavity.polynomials import MPoly
from logcavity.zoo import random_psd_with_factor
from linalg_oracle import add, identity


def random_positive_definite(rng, n):
    """Positive definite rational matrix: X X^T + I for random X."""
    return add(random_psd_with_factor(rng, n)[0], identity(n))


class GramFactor(NamedTuple):
    """Column factor X with per-column nonnegative weights: represents the
    PSD matrix  sum_j w_j x_j x_j^T  without leaving rational arithmetic."""

    columns: tuple  # tuple of column tuples
    weights: tuple  # tuple of Fractions


def weighted_gram_discriminant(factors):
    """(1/n!) sum over column choices of the product of the chosen weights
    times the squared determinant of the chosen columns: the mixed
    discriminant of the psd_matrix of each factor."""
    n = len(factors)
    total = Fraction(0)
    for choice in product(*(range(len(f.columns)) for f in factors)):
        cols = [f.columns[j] for f, j in zip(factors, choice)]
        weight = math.prod(f.weights[j] for f, j in zip(factors, choice))
        total += weight * det(QMatrix(zip(*cols))) ** 2
    return total / math.factorial(n)


def alexandrov_values(x, y, fixed):
    """D(X, Y, fixed), D(X, X, fixed) and D(Y, Y, fixed), each by its own
    permutation sum."""
    fixed = list(fixed)
    return tuple(
        mixed_discriminant_perm([a, b] + fixed) for a, b in ((x, y), (x, x), (y, y))
    )


class PSDFactorization(NamedTuple):
    """Lower unitriangular L and the pivots D of A = L D L^T; sqrt_factor is
    L sqrt(D) when every pivot is a rational square, else None."""

    lower: QMatrix
    diag: tuple
    sqrt_factor: object

    def gram_factor(self) -> GramFactor:
        cols = tuple(self.lower.column(j) for j in range(self.lower.cols))
        return GramFactor(cols, self.diag)


def psd_matrix(factor: GramFactor) -> QMatrix:
    """sum_j w_j x_j x_j^T, the matrix a Gram factor stands for."""
    n = len(factor.columns[0]) if factor.columns else 0
    pairs = list(zip(factor.columns, factor.weights))
    return QMatrix(
        [sum(w * c[i] * c[j] for c, w in pairs) for j in range(n)] for i in range(n)
    )


def rational_sqrt(x: Fraction):
    """The rational root of x >= 0, else None."""
    pn, pd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    square = pn * pn == x.numerator and pd * pd == x.denominator
    return Fraction(pn, pd) if square else None


def psd_decompose(a: QMatrix) -> PSDFactorization:
    """Rational LDL^T of a symmetric PSD matrix; raises LogcavityError on any
    negative pivot or on a zero pivot with a nonzero residual row."""
    if not a.is_symmetric:
        raise LogcavityError("decomposition requires a symmetric matrix")
    n = a.rows
    m = [list(row) for row in a.m]
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        if m[k][k] < 0:
            raise LogcavityError(f"negative pivot at position {k}")
        if m[k][k] == 0 and any(m[k][k:]):
            raise LogcavityError(f"zero pivot with nonzero row at position {k}")
        for i in range(k + 1, n) if m[k][k] else ():
            lower[i][k] = f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    diag = tuple(m[k][k] for k in range(n))
    roots = [rational_sqrt(d) for d in diag]
    sqrt_factor = None
    if None not in roots:
        sqrt_factor = QMatrix([x * r for x, r in zip(row, roots)] for row in lower)
    return PSDFactorization(QMatrix(lower), diag, sqrt_factor)


def symbolic_det_coefficient(mats):
    """Oracle: the coefficient of l_1 ... l_n in det(sum l_i A_i), expanded
    literally through the multivariate polynomial ring."""
    n = mats[0].rows
    m = len(mats)
    entry = [
        [
            MPoly(
                m,
                {
                    tuple(int(t == i) for t in range(m)): mats[i][r][c]
                    for i in range(m)
                },
            )
            for c in range(n)
        ]
        for r in range(n)
    ]
    total = MPoly(m, {})
    for sigma in permutations(range(n)):
        inv = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if sigma[i] > sigma[j]
        )
        prod = MPoly(m, {(0,) * m: -1 if inv % 2 else 1})
        for r in range(n):
            prod = prod * entry[r][sigma[r]]
        total = total + prod
    return total.coefficient((1,) * m)
