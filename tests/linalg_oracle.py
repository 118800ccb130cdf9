"""Reference eliminations, used only as test oracles.

Each routine up to `solve` is plain Gaussian elimination on rational
entries, written independently of the fraction-free integer kernel in
`logcavity.linalg`, and returns exactly what the public entry point of the
same name returns. `eager_eliminate` and `eager_inertia` are the eager
Bareiss eliminations that rescale every row at every step; the lazy kernel
must reproduce their pivots and pivot rows bit for bit. `full_row_inertia`
is the lazy inertia on whole rows that `integer_inertia` runs on the upper
triangle. `diagonal`, `identity`, `submatrix`, `apply`, `transpose`,
`scale`, `add` and `product` build the diagonal matrices, submatrices,
matrix-vector products, transposes, multiples, sums and products that the
tests write by hand, entry by entry in Fractions.
"""

import math
from fractions import Fraction
from functools import reduce
from itertools import combinations

from logcavity.errors import LogcavityError
from logcavity.linalg import Inertia, QMatrix, _update


def diagonal(entries):
    """The square matrix with the entries on its diagonal and 0 elsewhere."""
    n = len(entries)
    return QMatrix([entries[i] if i == j else 0 for j in range(n)] for i in range(n))


def identity(n):
    return diagonal([1] * n)


def submatrix(m: QMatrix, row_idx, col_idx):
    """The entries of m in the rows row_idx and the columns col_idx."""
    entries = m.m
    return QMatrix(([entries[i][j] for j in col_idx] for i in row_idx), len(col_idx))


def apply(m: QMatrix, vector):
    """The product m v, as a tuple of Fractions."""
    if len(vector) != m.cols:
        raise LogcavityError("vector length does not match column count")
    return tuple(sum(a * Fraction(b) for a, b in zip(row, vector)) for row in m.m)


def transpose(m: QMatrix) -> QMatrix:
    return QMatrix(map(m.column, range(m.cols)), m.rows)


def scale(m: QMatrix, s) -> QMatrix:
    """s times m, for a rational s."""
    return QMatrix(([x * Fraction(s) for x in row] for row in m.m), m.cols)


def add(a: QMatrix, b: QMatrix) -> QMatrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise LogcavityError("cannot add matrices of different shapes")
    return QMatrix(([x + y for x, y in zip(r, s)] for r, s in zip(a.m, b.m)), a.cols)


def product(*mats: QMatrix) -> QMatrix:
    """The product of the matrices, from the left: an n x 0 matrix times a
    0 x c matrix is the n x c zero matrix."""

    def times(a, b):
        if a.cols != b.rows:
            raise LogcavityError(
                f"cannot multiply a {a.rows}x{a.cols} matrix by a "
                f"{b.rows}x{b.cols} matrix"
            )
        cols = [b.column(j) for j in range(b.cols)]
        dot = lambda row, col: sum((x * y for x, y in zip(row, col)), Fraction(0))
        return QMatrix(([dot(row, col) for col in cols] for row in a.m), b.cols)

    return reduce(times, mats)


def det(m: QMatrix) -> Fraction:
    """Product of the pivots of Gaussian elimination, signed by the swaps."""
    if not m.is_square:
        raise LogcavityError("determinant requires a square matrix")
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
        raise LogcavityError("inertia requires a symmetric matrix")
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
    """The exact solution x of m x = b for square m, or None if m is singular."""
    if not m.is_square:
        raise LogcavityError("solve requires a square matrix")
    n = m.rows
    a = [list(row) + [Fraction(x)] for row, x in zip(m.m, b)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return None
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


def eager_eliminate(a, ncols, lead=None):
    """What `linalg._eliminate` returns, by the eager update: the integer
    rows a are changed in place, and the pivot rows end as the lazy
    elimination leaves them. Only the first lead rows (all if None) may
    pivot; the pass stops at the first column where none of them can and
    a row past them is nonzero."""
    rows = len(a)
    lead = rows if lead is None else lead
    pivots = []
    prev = 1
    sign = 1
    for c in range(ncols):
        r = len(pivots)
        nonzero = [i for i in range(r, rows) if a[i][c]]
        pivotal = [i for i in nonzero if i < lead]
        if not pivotal:
            if nonzero:
                break
            continue
        piv = pivotal[0]
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        _bareiss(a, r, c, prev, range(r + 1, rows), c)
        pivots.append(c)
        prev = a[r][c]
    return pivots, prev, sign


def eager_inertia(m: QMatrix) -> Inertia:
    """What `linalg.inertia` returns, by the eager symmetric update."""
    if not m.is_symmetric:
        raise LogcavityError("inertia requires a symmetric matrix")
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


def _raise(a, level, rows, to):
    """Bring each of the given lazy rows up to the level to: row i becomes
    a[i] * to // level[i], its eager value."""
    for i in rows:
        a[i] = [x * to // level[i] for x in a[i]]
        level[i] = to


def full_row_inertia(rows):
    """What `linalg.integer_inertia` returns, by the lazy update on whole
    rows: the same pivot rules (the first nonzero diagonal, else the
    row+column congruence after raising every row to prev), with the pivot
    row popped and its column deleted."""
    a = [list(row) for row in rows]
    level = [1] * len(a)
    signs = [0, 0]
    prev = 1
    while True:
        piv = next((i for i in range(len(a)) if a[i][i]), None)
        if piv is None:
            pairs = combinations(range(len(a)), 2)
            off = next(((i, j) for i, j in pairs if a[i][j]), None)
            if off is None:
                return Inertia(*signs, len(a))
            _raise(a, level, range(len(a)), prev)
            i, j = off
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
            piv = i
        _raise(a, level, (piv,), prev)
        pivot_row = a.pop(piv)
        del level[piv]
        p = pivot_row[piv]
        signs[(p > 0) != (prev > 0)] += 1
        _update(a, level, pivot_row, piv, range(len(a)), 0)
        for row in a:
            del row[piv]
        prev = p
