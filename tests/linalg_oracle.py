"""Reference eliminations, used only as test oracles.

Each routine but the last two is plain Gaussian elimination on rational
entries, written independently of the fraction-free integer kernel in
`logcavity.linalg`, and returns exactly what the public entry point of the
same name returns. The last two, `eager_eliminate` and `eager_inertia`, are
the eager Bareiss eliminations that rescale every row at every step; the
lazy kernel must reproduce their pivots and rows bit for bit. `diagonal`
and `apply` build the diagonal matrices and matrix-vector products that the
tests write by hand.
"""

import math
from fractions import Fraction

from logcavity.errors import DimensionMismatch, NonSquare, NotSymmetric
from logcavity.linalg import Inertia, QMatrix


def diagonal(entries):
    """The square matrix with the entries on its diagonal and 0 elsewhere."""
    n = len(entries)
    return QMatrix([entries[i] if i == j else 0 for j in range(n)] for i in range(n))


def apply(m: QMatrix, vector):
    """The product m v, as a tuple of Fractions."""
    if len(vector) != m.cols:
        raise DimensionMismatch("vector length does not match column count")
    return tuple(sum(a * Fraction(b) for a, b in zip(row, vector)) for row in m.m)


def det(m: QMatrix) -> Fraction:
    """Product of the pivots of Gaussian elimination, signed by the swaps."""
    if not m.is_square:
        raise NonSquare("determinant requires a square matrix")
    n = m.rows
    a = [list(row) for row in m.m]
    value = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            value = -value
        p = a[c][c]
        value *= p
        for i in range(c + 1, n):
            f = a[i][c] / p
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return value


def inertia(m: QMatrix) -> Inertia:
    """Symmetric Gaussian elimination; a zero diagonal pivot with a nonzero
    off-diagonal entry is resolved by the row+column addition congruence."""
    if not m.is_symmetric:
        raise NotSymmetric("inertia requires a symmetric matrix")
    n = m.rows
    a = [list(row) for row in m.m]
    active = list(range(n))
    n_pos = n_neg = n_zero = 0
    while active:
        piv = next((i for i in active if a[i][i] != 0), None)
        if piv is None:
            off = None
            for idx, i in enumerate(active):
                for j in active[idx + 1 :]:
                    if a[i][j] != 0:
                        off = (i, j)
                        break
                if off:
                    break
            if off is None:
                n_zero += len(active)
                break
            i, j = off
            for k in range(n):
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            piv = i
        p = a[piv][piv]
        if p > 0:
            n_pos += 1
        else:
            n_neg += 1
        active.remove(piv)
        for i in active:
            f = a[i][piv] / p
            if f == 0:
                continue
            for j in active:
                a[i][j] -= f * a[piv][j]
        for i in active:
            a[i][piv] = Fraction(0)
            a[piv][i] = Fraction(0)
    return Inertia(n_pos, n_neg, n_zero)


def rank_of_matrix(m: QMatrix) -> int:
    a = [list(row) for row in m.m]
    rank = 0
    col = 0
    rows, cols = m.rows, m.cols
    while rank < rows and col < cols:
        piv = next((i for i in range(rank, rows) if a[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        a[rank], a[piv] = a[piv], a[rank]
        p = a[rank][col]
        for i in range(rank + 1, rows):
            f = a[i][col] / p
            if f:
                for j in range(col, cols):
                    a[i][j] -= f * a[rank][j]
        rank += 1
        col += 1
    return rank


def rref(m: QMatrix):
    """Reduced row echelon form; returns (rows as lists, pivot column list)."""
    a = [list(row) for row in m.m]
    rows, cols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][c]
        a[r] = [x / p for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def kernel_basis(m: QMatrix):
    """Basis of the right null space {v : m v = 0}, as tuples of Fractions."""
    a, pivots = rref(m)
    cols = m.cols
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -a[r][f]
        basis.append(tuple(v))
    return basis


def row_space_basis_indices(m: QMatrix):
    """Indices of a maximal independent set of rows, greedy in row order."""
    reduced = []
    chosen = []
    for idx in range(m.rows):
        v = list(m.m[idx])
        for lead, pivot_row in reduced:
            if v[lead] != 0:
                f = v[lead]
                v = [x - f * y for x, y in zip(v, pivot_row)]
        lead = next((j for j, x in enumerate(v) if x != 0), None)
        if lead is None:
            continue
        p = v[lead]
        v = [x / p for x in v]
        reduced.append((lead, v))
        chosen.append(idx)
    return chosen


def solve(m: QMatrix, b):
    """Solve m x = b exactly for square nonsingular m."""
    if not m.is_square:
        raise NonSquare("solve requires a square matrix")
    n = m.rows
    a = [list(row) + [Fraction(x)] for row, x in zip(m.m, b)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            raise DimensionMismatch("singular system")
        a[c], a[piv] = a[piv], a[c]
        p = a[c][c]
        a[c] = [x / p for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return tuple(a[i][n] for i in range(n))


def _bareiss(a, r, c, prev, targets, lo):
    """Eager Bareiss update: with pivot p = a[r][c] and previous pivot prev,
    row i of targets becomes (a[i]*p - a[i][c]*a[r]) // prev from column lo
    on, whether or not a[i][c] is zero."""
    pivot_row = a[r][lo:]
    p = a[r][c]
    for i in targets:
        row = a[i]
        f = row[c]
        row[lo:] = [(x * p - f * y) // prev for x, y in zip(row[lo:], pivot_row)]


def eager_eliminate(a, ncols, jordan=False):
    """What `linalg._eliminate` returns, by the eager update: the integer
    rows a are changed in place to the same final rows."""
    rows = len(a)
    pivots = []
    prev = 1
    sign = 1
    for c in range(ncols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        _bareiss(a, r, c, prev, range(r + 1, rows), c)
        if jordan:
            _bareiss(a, r, c, prev, range(r), 0)
        pivots.append(c)
        prev = a[r][c]
    return pivots, prev, sign


def eager_inertia(m: QMatrix) -> Inertia:
    """What `linalg.inertia` returns, by the eager symmetric update."""
    if not m.is_symmetric:
        raise NotSymmetric("inertia requires a symmetric matrix")
    d = math.lcm(*(x.denominator for row in m.m for x in row))
    a = [[x.numerator * (d // x.denominator) for x in row] for row in m.m]
    active = list(range(m.rows))
    n_pos = n_neg = 0
    prev = 1
    while active:
        piv = next((i for i in active if a[i][i]), None)
        if piv is None:
            off = next(
                (
                    (i, j)
                    for idx, i in enumerate(active)
                    for j in active[idx + 1 :]
                    if a[i][j]
                ),
                None,
            )
            if off is None:
                break
            i, j = off
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for k in active:
                a[k][i] += a[k][j]
            piv = i
        p = a[piv][piv]
        if (p > 0) == (prev > 0):
            n_pos += 1
        else:
            n_neg += 1
        active.remove(piv)
        _bareiss(a, piv, piv, prev, active, 0)
        prev = p
    return Inertia(n_pos, n_neg, len(active))
