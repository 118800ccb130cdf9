"""Positive definite test matrices and the rational LDL^T that turns a PSD
matrix into a weighted Gram factor for `mixed_discriminant_gram`, used only
by the tests; no command decomposes a matrix."""

import math
from fractions import Fraction
from typing import NamedTuple

from logcavity.discriminants import GramFactor
from logcavity.errors import NotPSD, NotSymmetric
from logcavity.linalg import QMatrix
from logcavity.zoo import random_psd_with_factor


def random_positive_definite(rng, n):
    """Positive definite rational matrix: X X^T + I for random X."""
    return random_psd_with_factor(rng, n)[0] + QMatrix.identity(n)


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
    """Rational LDL^T of a symmetric PSD matrix; raises NotPSD on any
    negative pivot or on a zero pivot with a nonzero residual row."""
    if not a.is_symmetric:
        raise NotSymmetric("decomposition requires a symmetric matrix")
    n = a.rows
    m = [list(row) for row in a.m]
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        if m[k][k] < 0:
            raise NotPSD(f"negative pivot at position {k}")
        if m[k][k] == 0 and any(m[k][k:]):
            raise NotPSD(f"zero pivot with nonzero row at position {k}")
        for i in range(k + 1, n) if m[k][k] else ():
            lower[i][k] = f = m[i][k] / m[k][k]
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    diag = tuple(m[k][k] for k in range(n))
    roots = [rational_sqrt(d) for d in diag]
    sqrt_factor = None
    if None not in roots:
        sqrt_factor = QMatrix([x * r for x, r in zip(row, roots)] for row in lower)
    return PSDFactorization(QMatrix(lower), diag, sqrt_factor)
