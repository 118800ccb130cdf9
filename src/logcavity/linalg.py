"""Exact rational matrices: determinants, inertia, kernels, graph Laplacians.

A QMatrix is one denominator d and the integer rows ints, the matrix times
d, which `_scaled` computes once; nothing here touches floating point. Every
elimination runs one fraction-free (Bareiss) update on such int rows, lazily:
a row is rescaled only when it has a nonzero in the pivot column or must
hold its eager value.
"""

import math
import re
import sys
from fractions import Fraction
from itertools import combinations, compress

from .errors import LogcavityError

_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")  # read by int as by Fraction
_NUMBER = re.compile(r"([\d_.]+)(?:[eE][-+]?([\d_]+))?")  # a mantissa, its e±N


def _q(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


_JSON_KINDS = {int: "an integer", list: "a list", dict: "a JSON object"}


def _shown(value):
    """repr(value), cut after 40 characters: an input error's echo of it."""
    return text if len(text := repr(value)) <= 40 else f"{text[:40]}..."


def _expect(value, kind, what):
    """value, if it is of the JSON kind int (booleans excluded), list or
    dict; else an input error naming what."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise LogcavityError(f"{what} must be {_JSON_KINDS[kind]}, got {_shown(value)}")
    return value


def _check_digits(text, what):
    """Raise an input error if a number written in the string text is past
    int's digit limit (none where sys has no get_int_max_str_digits): its
    mantissa's digits (a _ between two joins them; a leading point counts
    as its 0) plus N for an exponent e±N. The bound is on the written form,
    so nothing is built first; under it, numerator and denominator print.
    A text of at most 640 characters and no e or E passes every limit: 640,
    sys.int_info.str_digits_check_threshold, is the least Python accepts."""
    if len(text) <= 640 and "e" not in text and "E" not in text:
        return
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for mantissa, power in _NUMBER.findall(text) if limit else ():
        digits = len(re.sub("[_.]", "", mantissa)) + mantissa.startswith(".")
        power = power.replace("_", "") or "0"
        if len(power) > limit or digits + int(power) > limit:
            shown = f"{what} {text[:40]!r}{'...' * (len(text) > 40)}"
            raise LogcavityError(f"{shown} exceeds the {limit}-digit limit")


def _rational(text, what, expected):
    """The one reader of a rational in CLI input: text as Fraction reads it (by
    int for -?digits(/digits)?), digits checked first; else the error expected."""
    _check_digits(text, what)
    try:
        if ratio := _RATIO.fullmatch(text):
            num, den = ratio.groups()
            return int(num) if den is None else Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise LogcavityError(expected) from None


def _json_int(value, what):
    """A JSON integer, or a string int reads, its digits checked first."""
    if isinstance(value, str):
        _check_digits(value, what)
        try:
            return int(value)
        except ValueError:
            pass
    return _expect(value, int, what)


def _bits(mask):
    """The indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _log_concave(seq):
    """seq[k] seq[k] >= seq[k - 1] seq[k + 1] at every inner index k."""
    return all(
        seq[k] * seq[k] >= seq[k - 1] * seq[k + 1] for k in range(1, len(seq) - 1)
    )


def _is_label(x):
    """Whether x is an element label: a JSON string or integer. Python takes
    True, 1.0 and 1 for one dict key, so booleans and decimals are not."""
    return isinstance(x, (str, int)) and not isinstance(x, bool)


def _json_labels(value, what):
    """value, if it is a JSON list of element labels; else an input error
    naming what."""
    for x in _expect(value, list, what):
        if not _is_label(x):
            raise LogcavityError(
                f"{what} must hold strings or integers as labels, got {_shown(x)}"
            )
    return value


def _label_index(labels, what):
    """{label: its position, str(label): the same}, if no two labels are equal
    or print alike; else an input error naming the label. The one naming rule:
    a reference r, in any input or call, names the element at index[str(r)]."""
    index = {}
    for i, lab in enumerate(labels):
        if index.setdefault(lab, i) != i or index.setdefault(str(lab), i) != i:
            shown = _shown(str(lab))
            raise LogcavityError(f"{what} must be distinct; two print as {shown}")
    return index


def _fresh_label(base, existing):
    """The first of base, base0, base1, ... that is not in existing."""
    tried = [base] + [f"{base}{k}" for k in range(len(existing))]
    return next(label for label in tried if label not in existing)


class Record:
    """The base of every immutable value type: the values named by the class
    attribute _fields, set positionally, compared with records of the same
    type only, hashed and shown by those values. Frozen dataclasses, without
    importing `dataclasses` (and with it `inspect`) at every start. Only
    subclasses without __slots__ keep the __dict__ cached_property fills."""

    __slots__ = ()
    _fields = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} values")
        # one by one: a __dict__ filled at once makes every later read slower
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"


class QMatrix(Record):
    """Immutable dense rational matrix, row-major: ints is the matrix times d,
    the lcm of its entries' reduced denominators (1 for an integer matrix),
    so the fields (d, cols, ints) are canonical (cols tells apart matrices
    with no rows); m holds the entries as Fractions. It has no indexing and no
    arithmetic: callers build the int rows they need."""

    __slots__ = ("d", "ints", "rows", "cols")
    _fields = ("d", "cols", "ints")

    def __init__(self, rows_of_entries, cols=0):
        """cols is the width of a matrix with no rows; the rows set it otherwise."""
        rows = ((x if type(x) is int else _q(x) for x in r) for r in rows_of_entries)
        d, ints = _scaled(rows)
        if ints:
            cols = len(ints[0])
            if any(len(r) != cols for r in ints):
                raise LogcavityError("matrix rows have unequal lengths")
        super().__init__(d, cols, tuple(map(tuple, ints)))
        object.__setattr__(self, "rows", len(ints))

    @property
    def m(self):
        """The entries as rows of Fractions, each ints entry over d."""
        return tuple(tuple(Fraction(x, self.d) for x in row) for row in self.ints)

    @property
    def is_square(self):
        return self.rows == self.cols

    @property
    def is_symmetric(self):
        a = self.ints
        return self.is_square and all(
            a[i][j] == a[j][i] for i in range(self.rows) for j in range(i)
        )

    def column(self, j):
        return tuple(Fraction(row[j], self.d) for row in self.ints)

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
        if r < 0 or c < 0:
            shown = f"{_shown(r)}x{_shown(c)}"
            raise LogcavityError(f"a matrix needs sizes of at least 0, got {shown}")
        entries = _expect(obj["entries"], list, "matrix 'entries'")
        expected = "matrix entries must be rationals like 3 or -1/2"
        flat = [_rational(str(x), "a matrix entry", expected) for x in entries]
        if len(flat) != r * c:
            raise LogcavityError(
                f"a {_shown(r)}x{_shown(c)} matrix needs {_shown(r * c)} entries, "
                f"got {len(flat)}"
            )
        return QMatrix((flat[i * c : (i + 1) * c] for i in range(r)), c)


class Inertia(Record):
    """Counts of positive, negative and zero eigenvalues of a symmetric matrix."""

    _fields = ("n_pos", "n_neg", "n_zero")

    @property
    def dimension(self):
        return self.n_pos + self.n_neg + self.n_zero


def _scaled(rows):
    """(d, int rows): the rational rows times d, the lcm of all their
    denominators, so one positive multiplier for every entry. This is the
    one place a rational becomes an integer; ints are kept as they are."""
    rows = [list(row) for row in rows]
    d = math.lcm(*[x.denominator for row in rows for x in row])
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in rows]


def _common_scaled(mats):
    """(d, each matrix times d as a flat row-major int list): d is the lcm of
    the matrices' denominators, so one multiplier serves them all."""
    d = math.lcm(*[a.d for a in mats])
    return d, [[x * (d // a.d) for row in a.ints for x in row] for a in mats]


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
    Comp. 1968). A target already at the level p becomes x - f*y // p: p
    divides x*p - f*y, hence f*y, so only the pivot row's nonzero columns
    change."""
    tail = pivot_row[lo:]
    p = pivot_row[c]
    nonzero = None
    for i in targets:
        row = a[i]
        f = row[c]
        if not f:
            continue
        lvl = level[i]
        if lvl == p:
            if nonzero is None:
                nonzero = [(j, y) for j, y in enumerate(tail, lo) if y]
            for j, y in nonzero:
                row[j] -= f * y // p
        else:
            row[lo:] = [(x * p - f * y) // lvl for x, y in zip(row[lo:], tail)]
            level[i] = p


def _eliminate(a, ncols, lead=None):
    """Fraction-free elimination of the integer rows a, in place, pivoting on
    the first nonzero entry at or below the current row in columns
    0..ncols-1. Rows below each pivot are cleared, leaving an echelon form
    whose last pivot is, up to the swap sign, the minor on the pivot rows
    and columns. Only the first lead rows (all if None) pivot: the pass
    stops at the first column where a later row is the first nonzero.
    Returns (pivot columns, last pivot, swap sign).

    The update is the lazy `_update`, each pivot row first raised to prev
    (a[r] * prev // level[r], its eager value), so the pivots, last pivot,
    swap sign and pivot rows (which no later step changes) are eager."""
    rows = len(a)
    lead = rows if lead is None else lead
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
        if piv >= lead:  # no pivot in column c, and a row past lead is nonzero
            break
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            level[r], level[piv] = level[piv], level[r]
            sign = -sign
        if level[r] != prev:  # its eager value, exact; zero before column c
            a[r][c:] = [x * prev // level[r] for x in a[r][c:]]
        _update(a, level, a[r], c, range(r + 1, rows), c)
        pivots.append(c)
        prev = level[r] = a[r][c]
    return pivots, prev, sign


def integer_det(rows) -> int:
    """Determinant of a square matrix of ints, given as rows: swap sign
    times the last fraction-free pivot. The rows are copied, not changed."""
    a = [list(row) for row in rows]
    if any(len(row) != len(a) for row in a):
        raise LogcavityError("determinant requires a square matrix")
    pivots, last, sign = _eliminate(a, len(a))
    return sign * last if len(pivots) == len(a) else 0


def integer_dets(flats, n):
    """integer_det of each n x n int matrix in flats, flat row-major lists:
    `_eliminate`'s recurrence, eager and with no row swaps, one list per
    entry across the batch. A member whose pivot is 0 leaves for `integer_det`."""
    # each entry across the batch, then each member's place in flats
    e = [[f[i] for f in flats] for i in range(n * n)] + [list(range(len(flats)))]
    for k in range(n - 1):
        if 0 in e[k * n + k]:  # drop the members whose pivot is 0
            e = [list(compress(entry, e[k * n + k])) for entry in e]
        p = e[k * n + k]
        prev = e[(k - 1) * (n + 1)] if k else [1] * len(p)  # the last pivot
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                terms = zip(e[i * n + j], p, e[i * n + k], e[k * n + j], prev)
                e[i * n + j] = [(x * q - y * z) // r for x, q, y, z, r in terms]
    done = dict(zip(e[-1], e[-2] if n else [1] * len(flats)))
    return [
        done[b] if b in done else integer_det([f[r * n : r * n + n] for r in range(n)])
        for b, f in enumerate(flats)
    ]


def integer_row_basis(rows):
    """Indices of a maximal independent set of the integer rows, greedy in
    row order: the pivot columns of the transpose."""
    return _eliminate([list(col) for col in zip(*rows)], len(rows))[0]


def kernel_witness(rows, others, ncols):
    """The first RREF kernel vector of the int rows, by column, that some
    other row does not annihilate, or None; neither list is changed. It is
    that of the free column where `_eliminate` of both, with only the rows
    pivoting, stops: no pivot changes a column left of its own."""
    a = [list(row) for row in [*rows, *others]]
    pivots = _eliminate(a, ncols, len(rows))[0]
    reduced, free = a[len(rows) :], range(pivots[-1] + 1 if pivots else 0, ncols)
    f = next((j for j in free if any(row[j] for row in reduced)), None)
    return None if f is None else kernel_vector(a, pivots, f, ncols)


def kernel_vector(a, pivots, f, ncols):
    """The RREF kernel vector of the free column f of the echelon form a, as
    Fractions: p times it, p the last pivot left of f (1 if none), by exact
    back substitution over those pivots, as p is a minor of the input."""
    t = sum(c < f for c in pivots)
    v = [0] * ncols
    v[f] = a[t - 1][pivots[t - 1]] if t else 1
    for r in reversed(range(t)):
        s = a[r][f] * v[f] + sum(a[r][c] * v[c] for c in pivots[r + 1 : t])
        v[pivots[r]] = -s // a[r][pivots[r]]
    return tuple(Fraction(x, v[f]) for x in v)


def det(m: QMatrix) -> Fraction:
    """Exact determinant: the integer determinant of the matrix times d,
    over d^n."""
    if not m.is_square:
        raise LogcavityError("determinant requires a square matrix")
    return Fraction(integer_det(m.ints), m.d**m.rows)


def integer_inertia(rows, lead):
    """(In of the leading lead x lead block, In of the whole) of a symmetric
    int matrix given as rows (copied, not changed), by congruence
    diagonalization (Sylvester's law): diagonal pivots, and the row+column
    addition congruence where the diagonal is zero. Both are taken inside
    the leading block until it is zero, which gives its In, then over all
    rows; every step is a congruence of the whole (Haynsworth 1968). The
    k-th LDL^T pivot is pivot_k / pivot_(k-1), so its sign is the product
    of theirs. The pivot row and column are deleted, so no update touches a
    retired column.

    The update is the lazy one of `_update` (Bareiss 1968) on the upper
    triangle, a[i] holding the entries (i, j) for j >= i: the eager values
    of a symmetric matrix are symmetric minors, so the pivot row is read at
    level prev down its column and along its row, and a target k below the
    pivot takes (k, piv) = (piv, k) scaled to its own level. The congruence
    adds the eager rows i and j and, in the rows above i, the stored
    columns."""
    n = len(rows)
    a = [list(row[i:]) for i, row in enumerate(rows)]
    level = [1] * n
    signs = [0, 0]  # positive and negative LDL^T pivots so far
    prev = 1
    block = None
    lim = lead

    def eager(i):  # the whole row i at level prev; a[0] itself if already there
        row = a[i] if level[i] == prev else [x * prev // level[i] for x in a[i]]
        return [a[k][i - k] * prev // level[k] for k in range(i)] + row if i else row

    while True:
        for piv in range(lim):
            if a[piv][0]:
                y = eager(piv)
                break
        else:
            pairs = combinations(range(lim), 2)
            off = next(((i, j) for i, j in pairs if a[i][j - i]), None)
            if off is None:
                if lim == n:
                    break
                block, lim = Inertia(*signs, lim), n
                continue
            piv, j = off
            y = [u + v for u, v in zip(eager(piv), eager(j))]
            y[piv] += y[j]
            for k in range(piv):
                a[k][piv - k] += a[k][j - k]
        p = y.pop(piv)
        signs[(p > 0) != (prev > 0)] += 1
        del a[piv], level[piv]
        n -= 1
        for k in range(n):
            lvl = level[k]
            f = a[k].pop(piv - k) if k < piv else y[k] * lvl // prev
            if f:
                a[k] = [(x * p - f * t) // lvl for x, t in zip(a[k], y[k:])]
                level[k] = p
        prev = p
        lim -= 1
    whole = Inertia(*signs, n)
    return block or whole, whole


def inertia(m: QMatrix) -> Inertia:
    """Exact inertia: `integer_inertia` of ints, the matrix times one
    positive d, which keeps the integer copy symmetric and congruent."""
    if not m.is_symmetric:
        raise LogcavityError("inertia requires a symmetric matrix")
    return integer_inertia(m.ints, m.rows)[1]


def rank_of_matrix(m: QMatrix) -> int:
    return len(_eliminate([list(row) for row in m.ints], m.cols)[0])


def kernel_basis(m: QMatrix):
    """Basis of the right null space {v : m v = 0}, as tuples of Fractions:
    one `kernel_vector` per free column of the RREF, in column order."""
    a, n = [list(row) for row in m.ints], m.cols
    pivots = _eliminate(a, n)[0]
    return [kernel_vector(a, pivots, f, n) for f in range(n) if f not in pivots]


def row_space_basis_indices(m: QMatrix):
    """Indices of a maximal independent set of rows, greedy in row order."""
    return integer_row_basis(m.ints)


class Graph(Record):
    """Multigraph on vertices 0..n-1; parallel edges allowed, loops allowed
    at construction (rejected by operations whose contract requires looplessness)."""

    _fields = ("vertices", "edges")

    def __init__(self, vertices, edges):
        if vertices < 0:
            shown = _shown(vertices)
            raise LogcavityError(f"a graph needs at least 0 vertices, got {shown}")
        edges = tuple((int(u), int(v)) for u, v in edges)
        for u, v in edges:
            if not (0 <= u < vertices and 0 <= v < vertices):
                raise LogcavityError(
                    f"graph edge [{_shown(u)}, {_shown(v)}] has an endpoint outside "
                    f"0..{_shown(vertices - 1)}"
                )
        super().__init__(vertices, edges)

    @property
    def has_loop(self):
        return any(u == v for u, v in self.edges)

    def is_connected(self):
        """Whether a spanning forest has vertices - 1 edges: union-find over
        the endpoints of the edges only (parent holds the non-roots)."""
        parent = {}

        def find(x):
            while x in parent:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        forest = 0
        for u, v in self.edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                forest += 1
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
                shown = _shown(e)
                raise LogcavityError(f"a graph edge must be a pair [u, v], got {shown}")
            _expect(e[0], int, "a graph edge endpoint")
            _expect(e[1], int, "a graph edge endpoint")
        return Graph(vertices, tuple(tuple(e) for e in edges))


def laplacian(graph: Graph) -> QMatrix:
    """Graph Laplacian: degrees on the diagonal, minus edge multiplicity off it."""
    if graph.has_loop:
        raise LogcavityError("Laplacian is defined for loopless graphs")
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
        raise LogcavityError("incidence matrix requires a loopless graph")
    rows = [[0] * len(graph.edges) for _ in range(graph.vertices)]
    for j, (u, v) in enumerate(graph.edges):
        rows[min(u, v)][j], rows[max(u, v)][j] = 1, -1
    return QMatrix(rows, len(graph.edges))


def reduced_incidence_matrix(graph: Graph) -> QMatrix:
    """Incidence matrix with the last vertex row of each component removed:
    a greedy row basis, so its columns are totally unimodular in dimension
    rank, with the spanning forests as bases. Only vertices with an edge get
    a row: the greedy basis never takes a zero row."""
    touched = {v: i for i, v in enumerate(sorted({v for e in graph.edges for v in e}))}
    edges = [(touched[u], touched[v]) for u, v in graph.edges]
    b = incidence_matrix(Graph(len(touched), edges))
    return QMatrix([b.ints[i] for i in integer_row_basis(b.ints)], b.cols)


def spanning_tree_count(graph: Graph) -> int:
    """Matrix-tree count: determinant of the reduced Laplacian."""
    if graph.has_loop:
        raise LogcavityError("spanning tree counting requires a loopless graph")
    if not graph.is_connected():
        raise LogcavityError("spanning tree counting requires a connected graph")
    # ints, so d = 1; one vertex leaves a 0 x 0 reduced Laplacian, of det 1
    return integer_det([row[:-1] for row in laplacian(graph).ints[:-1]])
