"""Exact rational matrices: determinants, inertia, kernels, graph Laplacians.

Entries are fractions.Fraction; nothing here touches floating point. Every
elimination clears denominators once per row and runs one fraction-free
integer (Bareiss) update, applied lazily: a row is rescaled only when it
has a nonzero in the pivot column or must hold its eager value.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import (
    Disconnected,
    DimensionMismatch,
    LoopEdge,
    MalformedInput,
    NonSquare,
    NotSymmetric,
    SingularSystem,
)


def _q(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


_JSON_KINDS = {int: "an integer", list: "a list", dict: "a JSON object"}


def _expect(value, kind, what):
    """value, if it is of the JSON kind int (booleans excluded), list or
    dict; else an input error naming what."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise MalformedInput(f"{what} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _bits(mask):
    """The indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _json_labels(value, what):
    """value, if it is a JSON list of element labels (no lists or objects);
    else an input error naming what."""
    for x in _expect(value, list, what):
        if isinstance(x, (list, dict)):
            raise MalformedInput(f"{what} must hold element labels, got {x!r}")
    return value


class QMatrix:
    """Immutable dense matrix with Fraction entries, row-major."""

    __slots__ = ("m", "rows", "cols", "_hash")

    def __init__(self, rows_of_entries):
        m = tuple(tuple(_q(x) for x in row) for row in rows_of_entries)
        if m and any(len(r) != len(m[0]) for r in m):
            raise DimensionMismatch("rows of unequal length")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "rows", len(m))
        object.__setattr__(self, "cols", len(m[0]) if m else 0)
        # hash(self.m), computed on first use: it hashes every Fraction
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("QMatrix is immutable")

    def __getitem__(self, i):
        return self.m[i]

    def __eq__(self, other):
        return isinstance(other, QMatrix) and self.m == other.m

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.m))
        return self._hash

    def __repr__(self):
        return "QMatrix(%s)" % "; ".join(" ".join(str(x) for x in r) for r in self.m)

    @property
    def is_square(self):
        return self.rows == self.cols

    @property
    def is_symmetric(self):
        return self.is_square and all(
            self.m[i][j] == self.m[j][i] for i in range(self.rows) for j in range(i)
        )

    @property
    def T(self):
        return QMatrix(zip(*self.m)) if self.m else QMatrix([])

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shape mismatch in addition")
        return QMatrix(
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.m, other.m)
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, QMatrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions do not match")
        cols = list(zip(*other.m))
        return QMatrix(
            [sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols]
            for row in self.m
        )

    def scale(self, s):
        s = _q(s)
        return QMatrix([x * s for x in row] for row in self.m)

    def submatrix(self, row_idx, col_idx):
        return QMatrix([self.m[i][j] for j in col_idx] for i in row_idx)

    def column(self, j):
        return tuple(row[j] for row in self.m)

    @staticmethod
    def identity(n):
        return QMatrix(
            [Fraction(int(i == j)) for j in range(n)] for i in range(n)
        )

    @staticmethod
    def zero(rows, cols):
        return QMatrix([Fraction(0)] * cols for _ in range(rows))

    def to_json(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [str(x) for row in self.m for x in row],
        }

    @staticmethod
    def from_json(obj):
        _expect(obj, dict, "matrix")
        r = _expect(obj["rows"], int, "matrix 'rows'")
        c = _expect(obj["cols"], int, "matrix 'cols'")
        entries = _expect(obj["entries"], list, "matrix 'entries'")
        try:
            flat = [Fraction(str(x)) for x in entries]
        except (ValueError, ZeroDivisionError):
            raise MalformedInput("matrix entries must be rationals like 3 or -1/2")
        if len(flat) != r * c:
            raise DimensionMismatch("entry count does not match rows*cols")
        return QMatrix(flat[i * c : (i + 1) * c] for i in range(r))


@dataclass(frozen=True)
class Inertia:
    """Counts of positive, negative and zero eigenvalues of a symmetric matrix."""

    n_pos: int
    n_neg: int
    n_zero: int

    @property
    def dimension(self):
        return self.n_pos + self.n_neg + self.n_zero

    def as_tuple(self):
        return (self.n_pos, self.n_neg, self.n_zero)


def _integer_rows(rows):
    """Each rational row times the lcm of its denominators, as int lists, and
    the product of those multipliers."""
    out = []
    scale = 1
    for row in rows:
        d = math.lcm(*[x.denominator for x in row])
        scale *= d
        out.append([x.numerator * (d // x.denominator) for x in row])
    return out, scale


def _raise(a, level, rows, to, lo=0):
    """Bring each of the given integer rows up to the level to, from column
    lo on (the entries before lo are zero): row i becomes a[i] * to //
    level[i], which is exact because it is the row's eager value."""
    for i in rows:
        lvl = level[i]
        if lvl != to:
            a[i][lo:] = [x * to // lvl for x in a[i][lo:]]
            level[i] = to


def _update(a, level, pivot_row, c, targets, lo):
    """The one fraction-free (Bareiss) row update, done lazily: row i of a
    is stored at level[i], the pivot it was last scaled to, and equals its
    eager value times level[i] / prev, prev being the last pivot. With
    p = pivot_row[c] the eager pivot, a target with f = a[i][c] != 0
    becomes (a[i]*p - f*pivot_row) // level[i] from column lo on, its eager
    value (x*p - f*y) // prev with x and f scaled by prev / level[i], and
    takes the level p; a target with f = 0 would only be multiplied by
    p / prev, so it is left as it is. Every quotient is an eager value, a
    minor of the input, so every division is exact (Bareiss, Sylvester's
    identity and multistep integer-preserving Gaussian elimination, Math.
    Comp. 1968)."""
    tail = pivot_row[lo:]
    p = pivot_row[c]
    for i in targets:
        row = a[i]
        f = row[c]
        if f:
            lvl = level[i]
            row[lo:] = [(x * p - f * y) // lvl for x, y in zip(row[lo:], tail)]
            level[i] = p


def _eliminate(a, ncols, jordan=False):
    """Fraction-free elimination of the integer rows a, in place, pivoting on
    the first nonzero entry at or below the current row in columns
    0..ncols-1.

    Rows below each pivot are cleared, leaving an echelon form whose last
    pivot is, up to the swap sign, the minor on the pivot rows and columns.
    With jordan=True the rows above are cleared too, leaving d * RREF with d
    the last pivot. Returns (pivot columns, last pivot, swap sign).

    The update is the lazy `_update`, each pivot row first raised to prev,
    so the pivots, last pivot and swap sign are the eager ones; with
    jordan=True every row is raised to d at the end, giving the eager
    d * RREF."""
    rows = len(a)
    level = [1] * rows
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
            level[r], level[piv] = level[piv], level[r]
            sign = -sign
        _raise(a, level, (r,), prev, c)
        _update(a, level, a[r], c, range(r + 1, rows), c)
        if jordan:
            _update(a, level, a[r], c, range(r), 0)
        pivots.append(c)
        prev = level[r] = a[r][c]
    if jordan:
        _raise(a, level, range(rows), prev)
    return pivots, prev, sign


def integer_det(rows) -> int:
    """Determinant of a square matrix of ints, given as rows: swap sign
    times the last fraction-free pivot. The rows are copied, not changed."""
    a = [list(row) for row in rows]
    if any(len(row) != len(a) for row in a):
        raise NonSquare("determinant requires a square matrix")
    pivots, last, sign = _eliminate(a, len(a))
    return sign * last if len(pivots) == len(a) else 0


def integer_row_basis(rows):
    """Indices of a maximal independent set of the integer rows, greedy in
    row order: the pivot columns of the transpose."""
    return _eliminate([list(col) for col in zip(*rows)], len(rows))[0]


def integer_kernel(rows, ncols):
    """(d, vectors): a basis of the right null space of the integer rows, one
    int vector per free column f of the RREF in column order. Every pivot of
    the fraction-free Jordan form a equals its last pivot d, so a is d RREF
    and v = d e_f - sum_r a[r][f] e_(pivot r) is d times the RREF kernel
    vector. The rows are copied, not changed."""
    a = [list(row) for row in rows]
    pivots, d, _ = _eliminate(a, ncols, jordan=True)
    vectors = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[f] = d
        for r, c in enumerate(pivots):
            v[c] = -a[r][f]
        vectors.append(v)
    return d, vectors


def det(m: QMatrix) -> Fraction:
    """Exact determinant: the integer determinant of the rows with their
    denominators cleared, over the product of the row multipliers."""
    if not m.is_square:
        raise NonSquare("determinant requires a square matrix")
    a, scale = _integer_rows(m.m)
    return Fraction(integer_det(a), scale)


def integer_inertia(rows, lead):
    """(In of the leading lead x lead block, In of the whole) of a symmetric
    int matrix given as rows (copied, not changed), by congruence
    diagonalization (Sylvester's law): diagonal pivots, and the row+column
    addition congruence where the diagonal is zero. Both are taken inside
    the leading block until it is zero, which gives its In, then over all
    rows; every step is a congruence of the whole (Haynsworth 1968). The
    k-th LDL^T pivot is pivot_k / pivot_(k-1), so its sign is the product
    of theirs. The pivot row is popped and its column deleted, so no update
    touches a retired column. The update is the lazy one of `_eliminate`
    (Bareiss 1968), and the congruence first raises every row to prev."""
    a = [list(row) for row in rows]
    level = [1] * len(a)
    signs = [0, 0]  # positive and negative LDL^T pivots so far
    prev = 1
    block = None
    lim = lead
    while True:
        piv = next((i for i in range(lim) if a[i][i]), None)
        if piv is None:
            pairs = combinations(range(lim), 2)
            off = next(((i, j) for i, j in pairs if a[i][j]), None)
            if off is None:
                block = block or Inertia(*signs, lim)
                if lim == len(a):
                    break
                lim = len(a)
                continue
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
        lim -= 1
    return block, Inertia(*signs, len(a))


def inertia(m: QMatrix) -> Inertia:
    """Exact inertia: `integer_inertia` of the matrix times one common
    multiplier, which keeps the integer copy symmetric and congruent."""
    if not m.is_symmetric:
        raise NotSymmetric("inertia requires a symmetric matrix")
    d = math.lcm(*(x.denominator for row in m.m for x in row))
    a = [[x.numerator * (d // x.denominator) for x in row] for row in m.m]
    return integer_inertia(a, m.rows)[1]


def rank_of_matrix(m: QMatrix) -> int:
    a, _ = _integer_rows(m.m)
    return len(_eliminate(a, m.cols)[0])


def kernel_basis(m: QMatrix):
    """Basis of the right null space {v : m v = 0}, as tuples of Fractions,
    one per free column of the RREF in column order."""
    d, vectors = integer_kernel(_integer_rows(m.m)[0], m.cols)
    return [tuple(Fraction(x, d) for x in v) for v in vectors]


def row_space_basis_indices(m: QMatrix):
    """Indices of a maximal independent set of rows, greedy in row order."""
    return integer_row_basis(_integer_rows(m.m)[0])


def solve(m: QMatrix, b):
    """Solve m x = b exactly for square nonsingular m."""
    if not m.is_square:
        raise NonSquare("solve requires a square matrix")
    n = m.rows
    a, _ = _integer_rows([row + (_q(x),) for row, x in zip(m.m, b)])
    pivots = _eliminate(a, n, jordan=True)[0]
    if len(pivots) < n:
        raise SingularSystem("singular system")
    return tuple(Fraction(a[r][n], a[r][r]) for r in range(n))


@dataclass(frozen=True)
class Graph:
    """Multigraph on vertices 0..n-1; parallel edges allowed, loops allowed
    at construction (rejected by operations whose contract requires looplessness)."""

    vertices: int
    edges: tuple

    def __post_init__(self):
        edges = tuple((int(u), int(v)) for u, v in self.edges)
        for u, v in edges:
            if not (0 <= u < self.vertices and 0 <= v < self.vertices):
                raise DimensionMismatch("edge endpoint out of range")
        object.__setattr__(self, "edges", edges)

    @property
    def has_loop(self):
        return any(u == v for u, v in self.edges)

    def _forest_rank(self, edge_indices):
        """The size of a spanning forest of the given edges (union-find)."""
        parent = list(range(self.vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        rank = 0
        for i in edge_indices:
            u, v = self.edges[i]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                rank += 1
        return rank

    def is_connected(self):
        forest = self._forest_rank(range(len(self.edges)))
        return self.vertices <= 1 or forest == self.vertices - 1

    def to_json(self):
        return {"vertices": self.vertices, "edges": [list(e) for e in self.edges]}

    @staticmethod
    def from_json(obj):
        _expect(obj, dict, "graph")
        vertices = _expect(obj["vertices"], int, "graph 'vertices'")
        edges = _expect(obj["edges"], list, "graph 'edges'")
        for e in edges:
            if not isinstance(e, list) or len(e) != 2:
                raise MalformedInput(f"a graph edge must be a pair [u, v], got {e!r}")
            _expect(e[0], int, "a graph edge endpoint")
            _expect(e[1], int, "a graph edge endpoint")
        return Graph(vertices, tuple(tuple(e) for e in edges))


def laplacian(graph: Graph) -> QMatrix:
    """Graph Laplacian: degrees on the diagonal, minus edge multiplicity off it."""
    if graph.has_loop:
        raise LoopEdge("Laplacian is defined for loopless graphs")
    n = graph.vertices
    a = [[0] * n for _ in range(n)]
    for u, v in graph.edges:
        a[u][u] += 1
        a[v][v] += 1
        a[u][v] -= 1
        a[v][u] -= 1
    return QMatrix(a)


def incidence_matrix(graph: Graph) -> QMatrix:
    """Signed incidence matrix: +1 at the smaller endpoint, -1 at the larger."""
    if graph.has_loop:
        raise LoopEdge("incidence matrix requires a loopless graph")
    n = graph.vertices
    cols = []
    for u, v in graph.edges:
        lo, hi = (u, v) if u < v else (v, u)
        col = [0] * n
        col[lo] = 1
        col[hi] = -1
        cols.append(col)
    return QMatrix(zip(*cols)) if cols else QMatrix.zero(n, 0)


def reduced_incidence_matrix(graph: Graph) -> QMatrix:
    """Incidence matrix with the last vertex row removed."""
    b = incidence_matrix(graph)
    return b.submatrix(range(b.rows - 1), range(b.cols))


def spanning_tree_count(graph: Graph) -> int:
    """Matrix-tree count: determinant of the reduced Laplacian."""
    if graph.has_loop:
        raise LoopEdge("spanning tree counting requires a loopless graph")
    if not graph.is_connected():
        raise Disconnected("graph is not connected")
    # one vertex leaves a 0 x 0 reduced Laplacian, of determinant 1
    lap = laplacian(graph)
    reduced = lap.submatrix(range(lap.rows - 1), range(lap.cols - 1))
    value = det(reduced)
    assert value.denominator == 1
    return int(value)
