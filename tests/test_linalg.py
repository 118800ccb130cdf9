import math
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import linalg_oracle as oracle
from logcavity import linalg
from logcavity.errors import LogcavityError
from logcavity.linalg import (
    _eliminate,
    _rational,
    _scaled,
    Graph,
    Inertia,
    QMatrix,
    Record,
    det,
    incidence_matrix,
    inertia,
    integer_det,
    integer_dets,
    integer_inertia,
    kernel_basis,
    kernel_witness,
    laplacian,
    rank_of_matrix,
    reduced_incidence_matrix,
    row_space_basis_indices,
    spanning_tree_count,
)
from logcavity.hodge import _inverse_form_nonzero
from logcavity.posets import MarkedPoset, Poset

K3 = Graph(3, ((0, 1), (0, 2), (1, 2)))
K4 = Graph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))
K4_ADJ = QMatrix([[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]])


def count_eigs_below(m, t):
    """Eigenvalues of m strictly below t: the negative ones of m - t I,
    which has the same inertia as any congruent matrix (Sylvester)."""
    return inertia(oracle.add(m, oracle.scale(oracle.identity(m.rows), -t))).n_neg


def brute_force_spanning_trees(graph):
    n = graph.vertices
    count = 0
    for combo in combinations(range(len(graph.edges)), n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        ok = True
        for i in combo:
            u, v = graph.edges[i]
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            count += 1
    return count


class Point(Record):
    _fields = ("x", "y")


class Twin(Record):
    _fields = ("x", "y")


class TestRecord:
    """The contract of frozen dataclasses that the package's result types
    keep on `Record`."""

    def test_equal_only_to_the_same_type(self):
        assert Point(1, 2) == Point(1, 2) and Point(1, 2) != Point(2, 1)
        assert Point(1, 2) != Twin(1, 2)
        assert Point(1, 2) != (1, 2) and Inertia(1, 0, 0) != (1, 0, 0)
        assert Point(1, 2).__eq__((1, 2)) is NotImplemented

    def test_equal_records_hash_equally(self):
        a, b = Point(1, Fraction(1, 2)), Point(Fraction(1), Fraction(2, 4))
        assert a == b and hash(a) == hash(b)
        assert len({Inertia(1, 2, 0), Inertia(1, 2, 0), Inertia(2, 1, 0)}) == 2

    def test_repr(self):
        assert repr(Point(1, "a")) == "Point(x=1, y='a')"
        assert repr(Inertia(1, 2, 3)) == "Inertia(n_pos=1, n_neg=2, n_zero=3)"
        assert repr(Graph(2, [(0, 1)])) == "Graph(vertices=2, edges=((0, 1),))"

    def test_immutable(self):
        p = Point(1, 2)
        with pytest.raises(AttributeError):
            p.x = 3
        with pytest.raises(AttributeError):
            p.z = 3
        with pytest.raises(AttributeError):
            del p.x
        assert (p.x, p.y) == (1, 2) and vars(p) == {"x": 1, "y": 2}

    @pytest.mark.parametrize("values", [(), (1,), (1, 2, 3)])
    def test_wrong_number_of_values(self, values):
        with pytest.raises(TypeError, match="Point takes 2 values"):
            Point(*values)

    def test_validating_subclasses(self):
        # Graph normalizes and checks its edges before the fields are set
        assert Graph(2, [[0, 1]]).edges == ((0, 1),)
        with pytest.raises(LogcavityError, match=r"edge \[0, 2\] has an endpoint"):
            Graph(2, [(0, 2)])
        with pytest.raises(TypeError):
            Graph(2)

    def test_cached_property_is_computed_once(self):
        p = Poset.from_relations("xyz", [])
        mp = MarkedPoset(p, "x", "y")
        ks = mp._ks
        assert mp._ks is ks and vars(mp)["_ks"] is ks
        # the cached value is no field: it is neither compared nor hashed
        twin = MarkedPoset(p, "x", "y")
        assert mp == twin and hash(mp) == hash(twin)
        assert mp._fields == ("poset", "x", "y")


class TestQMatrixHash:
    def test_equal_matrices_hash_equally_and_stably(self):
        a = QMatrix([[1, Fraction(1, 2)], [Fraction(1, 2), 3]])
        b = QMatrix([[Fraction(2, 2), "1/2"], [Fraction(3, 6), 3]])
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash(a)

    def test_hash_reads_no_fraction(self, monkeypatch):
        a = QMatrix([[1, Fraction(1, 2)], [3, 4]])
        calls = []
        monkeypatch.setattr(
            Fraction, "__hash__", lambda x: calls.append(x) or hash(x.numerator)
        )
        assert hash(a) == hash(a) == hash((2, 2, ((2, 1), (6, 8)))) and not calls

    def test_matrices_without_rows_differ_by_width(self):
        widths = [QMatrix([], c) for c in range(4)]
        assert len(set(widths)) == len({hash(a) for a in widths}) == 4
        assert QMatrix([], 3) != QMatrix([], 2)
        assert QMatrix([[], []]) != QMatrix([[]]) and QMatrix([[]]) != QMatrix([])


class TestQMatrixShape:
    def test_a_matrix_without_rows_keeps_its_columns(self):
        empty = QMatrix.from_json({"rows": 0, "cols": 3, "entries": []})
        assert empty == QMatrix([], 3)
        assert (empty.rows, empty.cols) == (0, 3)
        tall = oracle.transpose(empty)
        assert (tall.rows, tall.cols) == (3, 0)
        assert oracle.transpose(tall) == empty
        sub = oracle.submatrix(oracle.identity(3), [], [0, 2])
        assert (sub.rows, sub.cols) == (0, 2)

    def test_the_oracle_product_over_no_inner_columns_is_zero(self):
        # an n x 0 matrix times a 0 x c matrix: an empty sum in each entry
        for n, c in ((2, 3), (0, 3), (2, 0), (0, 0)):
            out = oracle.product(QMatrix([[]] * n), QMatrix([], c))
            assert (out.rows, out.cols) == (n, c)
            assert out == QMatrix([[0] * c] * n, c)


class TestDet:
    def test_identity(self):
        assert det(oracle.identity(3)) == 1

    def test_2x2(self):
        assert det(QMatrix([[2, 1], [1, 3]])) == 5

    def test_reduced_laplacian_k3_vs_enumeration(self):
        lap = laplacian(K3)
        reduced = oracle.submatrix(lap, [0, 1], [0, 1])
        assert det(reduced) == brute_force_spanning_trees(K3) == 3

    def test_rational_entries(self):
        m = QMatrix([[Fraction(1, 2), 1], [1, Fraction(4, 3)]])
        assert det(m) == Fraction(1, 2) * Fraction(4, 3) - 1

    def test_non_square(self):
        with pytest.raises(LogcavityError, match="determinant requires a square"):
            det(QMatrix([[1, 2, 3], [4, 5, 6]]))

    def test_singular(self):
        assert det(QMatrix([[1, 2], [2, 4]])) == 0

    def test_integer_rows(self):
        rows = [[0, 2, 1], [3, 1, 0], [1, 0, 4]]
        assert integer_det(rows) == det(QMatrix(rows)) == -25
        assert rows == [[0, 2, 1], [3, 1, 0], [1, 0, 4]]  # left unchanged
        assert integer_det([]) == 1
        with pytest.raises(LogcavityError, match="determinant requires a square"):
            integer_det([[1, 2]])


@st.composite
def det_batches(draw):
    """(n, flats): 0-8 n x n int matrices, n = 0-5, each a flat row-major
    list with entries in -3..3, mostly 0, so that zero pivots and singular
    members are common."""
    n = draw(st.integers(min_value=0, max_value=5))
    entries = st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2, -2, 3, -3))
    flats = st.lists(st.lists(entries, min_size=n * n, max_size=n * n), max_size=8)
    return n, draw(flats)


class TestIntegerDets:
    @settings(max_examples=300, deadline=None)
    @given(det_batches())
    @example((2, [[0, 1, 1, 0], [1, 2, 2, 4], [2, 1, 1, 1]]))  # a swap; singular
    @example((3, [[1, 2, 3, 2, 4, 7, 1, 0, 0]]))  # a zero pivot at the second step
    def test_matches_integer_det_and_fraction_oracle(self, batch):
        n, flats = batch
        copies = [list(f) for f in flats]
        dets = integer_dets(flats, n)
        rows = [[f[r * n : (r + 1) * n] for r in range(n)] for f in flats]
        assert dets == [integer_det(a) for a in rows]
        assert dets == [oracle.det(QMatrix(a, n)) for a in rows]
        assert all(type(x) is int for x in dets)
        assert flats == copies  # the members are read, not changed

    def test_only_zero_pivots_fall_back(self, monkeypatch):
        # the batch pivots on no member: the second and fourth meet a zero
        # pivot, at the first and the second step, and leave for integer_det
        calls = []

        def pivoting(rows):
            calls.append(rows)
            return integer_det(rows)

        monkeypatch.setattr(linalg, "integer_det", pivoting)
        flats = [
            [2, 1, 0, 1, 2, 1, 0, 1, 2],
            [0, 1, 0, 1, 0, 0, 0, 0, 1],
            [3, 0, 0, 0, 1, 0, 0, 0, 1],
            [1, 2, 3, 2, 4, 7, 1, 0, 0],
        ]
        assert integer_dets(flats, 3) == [4, -1, 3, 2]
        assert calls == [
            [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
            [[1, 2, 3], [2, 4, 7], [1, 0, 0]],
        ]

    def test_empty_batch_and_empty_matrices(self):
        assert integer_dets([], 4) == []
        assert integer_dets([[], []], 0) == [1, 1]
        assert integer_dets([[5], [0], [-2]], 1) == [5, 0, -2]


NOT_RATIONAL = "matrix entries must be rationals like 3 or -1/2"


def _short_exponent(text):
    """Whether every exponent in text has at most 3 digits: past the digit
    limit the reader fails first, where Fraction builds 10^N."""
    return not re.search(r"[eE][-+]?[\d_]{4}", text)


# rationals as int and Fraction write them, and near misses: signs, points,
# exponents, a _ and a slash in every place, ASCII digits as the fast path's
D = "[0-9]"
NEAR_RATIONAL = (
    f" ?[-+]?{D}{{0,3}}(_{D})?(\\.{D}{{0,3}})?([eE][-+]?{D}{{1,3}}(_{D})?)?"
    f"(/[-+]?{D}{{0,3}})? ?"
)


def _read_alike(x):
    """Whether the matrix entry x reads as Fraction(str(x)) reads it: an
    equal value, or a failure of both."""
    try:
        expected = Fraction(str(x))
    except (ValueError, ZeroDivisionError):
        expected = None
    try:
        value = _rational(str(x), "a matrix entry", NOT_RATIONAL)
    except LogcavityError as e:
        assert str(e) == NOT_RATIONAL
        value = None
    if expected is None:
        with pytest.raises(LogcavityError, match="matrix entries must be rationals"):
            QMatrix.from_json({"rows": 1, "cols": 1, "entries": [x]})
    return value == expected and (value is None) == (expected is None)


class TestEntryParse:
    @pytest.mark.parametrize(
        "x",
        [
            *("+3", " 3", "0.1", "1e2", "\u0663", "\u00b2", "1/0", "3/-4", ""),
            *(True, None, 1e400, float("nan"), "-0", "007", "-12/8", "0/5"),
            *("-", "/3", "1/", "3 /4", "3/4 ", "--1", "1_000", "0/0", 7, -12, 0),
        ],
    )
    def test_reads_as_fraction_of_its_text(self, x):
        assert _read_alike(x)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.text(alphabet="0123456789-+/. e_\u0663\u00b2", max_size=8).filter(
                _short_exponent
            ),
            st.integers(min_value=-(10**30), max_value=10**30),
        )
    )
    def test_drawn_entries(self, x):
        assert _read_alike(x)

    def test_ints_stay_ints(self):
        # the QMatrix makes each a Fraction; no rational is parsed on the way
        read = [_rational(str(x), "an entry", NOT_RATIONAL) for x in ("12", "-3", 4)]
        assert [type(x) for x in read] == [int, int, int]
        assert _rational("6/4", "an entry", NOT_RATIONAL) == Fraction(3, 2)

    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(
            st.text(alphabet="0123456789-+/.eE_ ", max_size=10),
            st.from_regex(NEAR_RATIONAL, fullmatch=True),
            st.from_regex(f"[-+]?{D}{{1,3}}(/[-+]?{D}{{1,3}})?", fullmatch=True),
        ).filter(_short_exponent)
    )
    def test_reader_against_fraction(self, text):
        # the int route of -?digits(/digits)? and the Fraction route agree:
        # the same value, or an input error exactly where Fraction fails
        assert _read_alike(text)


class TestScaled:
    def test_one_common_multiplier(self):
        # the lcm of every denominator, not a multiplier per row
        d, rows = _scaled([[Fraction(1, 2), 3], [Fraction(-2, 3), 0]])
        assert d == 6 and rows == [[3, 18], [-4, 0]]
        assert all(type(x) is int for row in rows for x in row)

    def test_ints_and_empty_rows(self):
        assert _scaled([[1, -2], [0, 5]]) == (1, [[1, -2], [0, 5]])
        assert _scaled([]) == (1, []) and _scaled([[]]) == (1, [[]])
        assert _scaled(iter([(Fraction(3, 4),)])) == (4, [[3]])


class TestInertia:
    def test_diagonal(self):
        assert inertia(oracle.diagonal([1, -2, 0])) == Inertia(1, 1, 1)

    def test_k4_adjacency(self):
        # eigenvalues 3, -1, -1, -1
        assert inertia(K4_ADJ) == Inertia(1, 3, 0)

    def test_rank2_hessian(self):
        h = QMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert inertia(h) == Inertia(1, 2, 0)

    def test_zero_diagonal_block(self):
        assert inertia(QMatrix([[0, 1], [1, 0]])) == Inertia(1, 1, 0)

    def test_not_symmetric(self):
        with pytest.raises(LogcavityError, match="inertia requires a symmetric"):
            inertia(QMatrix([[0, 1], [2, 0]]))

    def test_det_sign_consistency(self, rng):
        for _ in range(40):
            n = rng.randint(1, 5)
            m = QMatrix(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            )
            m = oracle.add(m, oracle.transpose(m))
            iner = inertia(m)
            d = det(m)
            if iner.n_zero:
                assert d == 0
            else:
                assert (d > 0) == (iner.n_neg % 2 == 0)


@st.composite
def congruence_instances(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = draw(st.integers(min_value=-5, max_value=5))
            entries[i][j] = v
            entries[j][i] = v
    p = [
        [draw(st.integers(min_value=-3, max_value=3)) for _ in range(n)]
        for _ in range(n)
    ]
    return QMatrix(entries), QMatrix(p)


class TestSylvester:
    @settings(max_examples=80, deadline=None)
    @given(congruence_instances())
    def test_congruence_invariance(self, pair):
        m, p = pair
        assume(det(p) != 0)
        assert inertia(oracle.product(oracle.transpose(p), m, p)) == inertia(m)


class TestEigCounts:
    def test_diagonal_probe(self):
        assert count_eigs_below(oracle.diagonal([0, 1, 2]), Fraction(3, 2)) == 2

    def test_k4_at_zero(self):
        assert count_eigs_below(K4_ADJ, 0) == 3

    def test_hand_computed_2x2(self):
        # eigenvalues of [[2,1],[1,3]] are (5 +- sqrt 5)/2, one below 2
        assert count_eigs_below(QMatrix([[2, 1], [1, 3]]), 2) == 1

    def test_cauchy_interlacing(self, rng):
        for _ in range(25):
            n = rng.randint(2, 5)
            m = QMatrix(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            )
            m = oracle.add(m, oracle.transpose(m))
            drop = rng.randrange(n)
            keep = [i for i in range(n) if i != drop]
            sub = oracle.submatrix(m, keep, keep)
            probes = [Fraction(t, 2) for t in range(-25, 26)]
            for t in probes:
                big = count_eigs_below(m, t)
                small = count_eigs_below(sub, t)
                assert big - 1 <= small <= big


class TestLaplacian:
    def test_k3(self):
        assert laplacian(K3) == QMatrix(
            [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        )

    def test_doubled_edge(self):
        g = Graph(2, ((0, 1), (0, 1)))
        assert laplacian(g) == QMatrix([[2, -2], [-2, 2]])

    def test_loop_rejected(self):
        with pytest.raises(LogcavityError, match="Laplacian is defined for loopless"):
            laplacian(Graph(2, ((0, 0),)))

    def test_equals_bbt(self, rng):
        for _ in range(15):
            n = rng.randint(2, 6)
            edges = []
            for _ in range(rng.randint(1, 9)):
                u = rng.randrange(n)
                v = rng.randrange(n)
                if u != v:
                    edges.append((u, v))
            if not edges:
                continue
            g = Graph(n, tuple(edges))
            b = incidence_matrix(g)
            assert oracle.product(b, oracle.transpose(b)) == laplacian(g)


class TestSpanningTrees:
    def test_k3(self):
        assert spanning_tree_count(K3) == 3

    def test_tree(self):
        assert spanning_tree_count(Graph(4, ((0, 1), (1, 2), (2, 3)))) == 1

    def test_k4_vs_enumeration(self):
        assert spanning_tree_count(K4) == brute_force_spanning_trees(K4) == 16

    def test_multigraph(self):
        g = Graph(2, ((0, 1), (0, 1), (0, 1)))
        assert spanning_tree_count(g) == 3

    def test_disconnected(self):
        with pytest.raises(LogcavityError, match="requires a connected graph"):
            spanning_tree_count(Graph(4, ((0, 1), (2, 3))))


def bfs_connected(graph):
    """Whether a breadth-first search from vertex 0 reaches every vertex."""
    if graph.vertices == 0:
        return True
    seen, frontier = {0}, [0]
    while frontier:
        step = []
        for u, v in graph.edges:
            for a, b in ((u, v), (v, u)):
                if a in frontier and b not in seen:
                    seen.add(b)
                    step.append(b)
        frontier = step
    return len(seen) == graph.vertices


@st.composite
def multigraphs(draw):
    """Multigraphs on 0-6 vertices; loops, parallel and isolated vertices
    allowed."""
    n = draw(st.integers(min_value=0, max_value=6))
    if n == 0:
        return Graph(0, ())
    end = st.integers(min_value=0, max_value=n - 1)
    return Graph(n, tuple(draw(st.lists(st.tuples(end, end), max_size=8))))


class TestConnected:
    @settings(max_examples=200, deadline=None)
    @given(multigraphs())
    @example(Graph(0, ()))
    @example(Graph(1, ()))
    @example(Graph(1, ((0, 0),)))
    @example(Graph(2, ((0, 0), (1, 1))))
    @example(Graph(3, ((0, 1), (2, 2))))  # a loop at an isolated vertex
    @example(Graph(3, ((0, 1), (0, 1), (1, 2))))
    @example(Graph(4, ((0, 1), (1, 2), (2, 0))))  # n - 1 edges, not a tree
    def test_matches_bfs(self, graph):
        assert graph.is_connected() == bfs_connected(graph)


class TestKernels:
    def test_kernel_solves(self, rng):
        for _ in range(20):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            m = QMatrix(
                [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            )
            basis = kernel_basis(m)
            assert len(basis) == cols - rank_of_matrix(m)
            for v in basis:
                assert all(x == 0 for x in oracle.apply(m, v))

    def test_reduced_incidence_columns(self):
        ri = reduced_incidence_matrix(K3)
        assert ri.rows == 2 and ri.cols == 3

    def test_reduced_incidence_drops_one_row_per_component(self):
        # a triangle, an edge and an isolated vertex: rank 5 - 2 - 1 = 3
        g = Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4)))
        ri = reduced_incidence_matrix(g)
        assert ri == oracle.submatrix(incidence_matrix(g), (0, 1, 3), range(4))
        assert rank_of_matrix(ri) == 3


class TestSolve:
    """The bordered-determinant test that the facet scan runs in place of
    solving H x = g: whether g^T H^-1 g is defined and nonzero."""

    def test_singular_gives_none(self):
        # a singular H has no inverse; a regular one may still give 0
        assert not _inverse_form_nonzero([[1, 2], [2, 4]], [1, 2])
        assert not _inverse_form_nonzero([[0, 1], [1, 0]], [1, 0])
        assert _inverse_form_nonzero([[0, 1], [1, 0]], [1, 1])


# Properties pairing each public elimination with its Fraction oracle in
# tests/linalg_oracle.py; outputs must be identical, not just equivalent.

RATIONALS = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
)


@st.composite
def rational_matrices(draw, min_rows=0, max_rows=6, cols=None):
    rows = draw(st.integers(min_value=min_rows, max_value=max_rows))
    if cols is None:
        cols = draw(st.integers(min_value=1, max_value=7))
    return QMatrix(
        [[draw(RATIONALS) for _ in range(cols)] for _ in range(rows)]
    )


@st.composite
def rank_deficient_products(draw):
    inner = draw(st.integers(min_value=1, max_value=3))
    left = draw(rational_matrices(min_rows=1, cols=inner))
    right = draw(rational_matrices(min_rows=inner, max_rows=inner))
    return oracle.product(left, right)


MATRICES = st.one_of(
    rational_matrices(),
    rank_deficient_products(),
    rational_matrices(min_rows=1, max_rows=1),
    st.just(QMatrix([])),
)


def _square(m):
    n = min(m.rows, m.cols)
    return oracle.submatrix(m, range(n), range(n))


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    zero_diagonal = draw(st.booleans())
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j and zero_diagonal:
                continue
            entries[i][j] = entries[j][i] = draw(RATIONALS)
    m = QMatrix(entries)
    if n and draw(st.booleans()):
        # B D B^T has rank at most its inner dimension
        inner = draw(st.integers(min_value=1, max_value=n))
        b = QMatrix([[draw(RATIONALS) for _ in range(inner)] for _ in range(n)])
        d = oracle.diagonal([draw(RATIONALS) for _ in range(inner)])
        m = oracle.product(b, d, oracle.transpose(b))
    return m


class TestAgainstFractionOracle:
    @settings(max_examples=150, deadline=None)
    @given(MATRICES)
    def test_rank(self, m):
        assert rank_of_matrix(m) == oracle.rank_of_matrix(m)

    @settings(max_examples=150, deadline=None)
    @given(MATRICES)
    def test_row_space_basis_indices(self, m):
        assert row_space_basis_indices(m) == oracle.row_space_basis_indices(m)

    @settings(max_examples=150, deadline=None)
    @given(MATRICES)
    @example(QMatrix([], 3))  # 0 x c: every column is free
    @example(QMatrix([[], []]))  # r x 0: no column
    @example(QMatrix([[0, 0, 0, 0], [0, 1, 0, 2], [0, 0, 0, 0], [0, 2, 0, 4]]))
    @example(QMatrix([[Fraction(1, 2), Fraction(-2, 3), 1], [Fraction(3, 4), 0, 5]]))
    def test_kernel_basis(self, m):
        assert kernel_basis(m) == oracle.kernel_basis(m)

    @settings(max_examples=150, deadline=None)
    @given(MATRICES)
    def test_det(self, m):
        square = _square(m)
        assert det(square) == oracle.det(square)

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(MATRICES, symmetric_matrices()),
        st.lists(RATIONALS, min_size=7, max_size=7),
    )
    def test_solve(self, m, b):
        # the bordered-determinant test against g^T x for the x the oracle
        # solves H x = g for, None when H is singular; one common positive
        # multiplier makes H and g integers
        square = _square(m)
        g = [Fraction(x) for x in b[: square.rows]]
        x = oracle.solve(square, g)
        expected = x is not None and sum(a * b for a, b in zip(g, x)) != 0
        d = math.lcm(*(v.denominator for v in g + [*sum(square.m, ())]))
        rows = [[int(v * d) for v in row] for row in square.m]
        assert _inverse_form_nonzero(rows, [int(v * d) for v in g]) == expected

    @settings(max_examples=200, deadline=None)
    @given(symmetric_matrices())
    def test_inertia(self, m):
        assert inertia(m) == oracle.inertia(m)


@st.composite
def fraction_rows(draw):
    """Rows of Fractions, of 0 to 4 rows and 0 to 4 columns, and their
    width; a square one is symmetric half of the time."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    symmetric = draw(st.booleans())
    cols = rows if symmetric else cols
    f = [[Fraction(draw(RATIONALS)) for _ in range(cols)] for _ in range(rows)]
    for i in range(rows if symmetric else 0):
        for j in range(i):
            f[i][j] = f[j][i]
    return tuple(map(tuple, f)), cols


@st.composite
def spelled(draw, fractions):
    """A QMatrix of the Fraction rows, each entry an int, a Fraction or an
    unreduced "p/q" string, or the same spellings read by from_json."""
    f, cols = fractions

    def spell(x, json):
        k, form = draw(st.integers(1, 3)), draw(st.sampled_from("ift"))
        if form == "i" and x.denominator == 1:
            return int(x)
        if form == "t" or json:
            return f"{x.numerator * k}/{x.denominator * k}"
        return x

    if draw(st.booleans()):
        entries = [spell(x, True) for row in f for x in row]
        return QMatrix.from_json({"rows": len(f), "cols": cols, "entries": entries})
    return QMatrix(([spell(x, False) for x in row] for row in f), cols)


class TestRepresentation:
    """A QMatrix holds one denominator d and the int rows ints, the matrix
    times d, however its entries were given: the pair is canonical."""

    @settings(max_examples=300, deadline=None)
    @given(st.data(), fraction_rows(), fraction_rows(), st.booleans())
    def test_one_denominator_and_int_rows(self, data, f, g, same):
        g = f if same else g
        a, b = data.draw(spelled(f)), data.draw(spelled(g))
        rows, n = f[0], a.rows
        ints = [x for row in a.ints for x in row]
        assert a.d >= 1 and math.gcd(a.d, *ints) == 1
        assert all(type(x) is int for x in ints)
        assert a.m == rows and all(type(x) is Fraction for row in a.m for x in row)
        assert (a == b) == (f == g) and a != rows  # the entries and the width
        if a == b:
            assert hash(a) == hash(b)
        pairs = ((i, j) for i in range(n) for j in range(i))
        symmetric = a.cols == n and all(rows[i][j] == rows[j][i] for i, j in pairs)
        assert a.is_symmetric == symmetric
        if a.cols == n:
            assert det(a) == oracle.det(a)
        if symmetric:
            assert inertia(a) == oracle.inertia(a)
        assert rank_of_matrix(a) == oracle.rank_of_matrix(a)


# Properties pairing the lazy fraction-free kernel with the eager Bareiss
# oracles in tests/linalg_oracle.py: pivots, signs and rows must be the same
# ints. Sparse inputs make rows skip steps, so that levels differ.

SPARSE = st.sampled_from((0, 0, 0, 1))
SMALL = st.sampled_from((0, 0, 0, 1, -1, 2, -3))


@st.composite
def integer_grids(draw, entries, min_rows=1, max_rows=7):
    rows = draw(st.integers(min_value=min_rows, max_value=max_rows))
    cols = draw(st.integers(min_value=1, max_value=8))
    return [[draw(entries) for _ in range(cols)] for _ in range(rows)]


@st.composite
def rank_deficient_ints(draw):
    left = draw(integer_grids(SMALL, max_rows=7))
    inner = len(left[0])
    right = draw(integer_grids(SMALL, min_rows=inner, max_rows=inner))
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]


INTEGER_GRIDS = st.one_of(
    integer_grids(SPARSE),
    integer_grids(SMALL),
    rank_deficient_ints(),
    integer_grids(SMALL, max_rows=1),
    st.just([]),
    st.integers(min_value=1, max_value=7).map(lambda rows: [[]] * rows),
)


@st.composite
def sparse_symmetric(draw):
    """Symmetric int matrices whose diagonal is mostly or wholly zero, so
    the congruence step runs, often after a non-unit pivot."""
    zero_diagonal = draw(st.booleans())
    n = draw(st.integers(min_value=4 if zero_diagonal else 1, max_value=7))
    diagonal = st.just(0) if zero_diagonal else SMALL
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = draw(diagonal)
        for j in range(i + 1, n):
            a[i][j] = a[j][i] = draw(SMALL)
    return QMatrix(a)


class TestLazyAgainstEager:
    @settings(max_examples=400, deadline=None)
    @given(INTEGER_GRIDS, st.data())
    def test_eliminate(self, grid, data):
        # the pivot rows end eager: `kernel_vector` back-substitutes on them;
        # every other row, those past lead at the stop too, is a nonzero
        # multiple of its eager value, so it is zero where that is
        width = len(grid[0]) if grid else 0
        ncols = data.draw(st.integers(min_value=0, max_value=width))
        lead = data.draw(st.none() | st.integers(min_value=0, max_value=len(grid)))
        lazy = [list(row) for row in grid]
        eager = [list(row) for row in grid]
        result = _eliminate(lazy, ncols, lead)
        assert result == oracle.eager_eliminate(eager, ncols, lead)
        rank = len(result[0])
        assert lazy[:rank] == eager[:rank]
        for x, y in zip(lazy[rank:], eager[rank:]):
            k = next((j for j, v in enumerate(y) if v), None)
            assert not any(x) if k is None else x[k] != 0
            assert k is None or [u * y[k] for u in x] == [v * x[k] for v in y]

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(sparse_symmetric(), symmetric_matrices()))
    # two congruences, the second between rows at different levels
    @example(
        QMatrix(
            [
                [0, -1, 0, -1, 0],
                [-1, 0, 0, 0, 0],
                [0, 0, 0, -1, 0],
                [-1, 0, -1, 0, 1],
                [0, 0, 0, 1, 0],
            ]
        )
    )
    def test_inertia(self, m):
        assert inertia(m) == oracle.eager_inertia(m)


@st.composite
def witness_inputs(draw):
    """(rows, others): an int grid split into rows and other rows, the
    others joined by sums of two rows, which lie in their row space."""
    grid = draw(st.one_of(integer_grids(SPARSE), integer_grids(SMALL)))
    cut = draw(st.integers(min_value=0, max_value=len(grid)))
    rows, others = grid[:cut], grid[cut:]
    if rows:
        pair = st.tuples(st.sampled_from(rows), st.sampled_from(rows))
        sums = draw(st.lists(pair, max_size=3))
        others += [[u + v for u, v in zip(x, y)] for x, y in sums]
    return rows, draw(st.permutations(others))


class TestKernelWitness:
    # the witness is the first kernel vector, in the Fraction oracle's
    # column order, that some other row does not annihilate
    @settings(max_examples=300, deadline=None)
    @given(witness_inputs())
    def test_first_failing_kernel_vector(self, pair):
        rows, others = pair
        ncols = len((rows + others)[0])
        failing = [
            v
            for v in oracle.kernel_basis(QMatrix(rows, ncols))
            if any(sum(x * y for x, y in zip(c, v)) for c in others)
        ]
        expected = failing[0] if failing else None
        assert kernel_witness(rows, others, ncols) == expected

    def test_stops_at_the_witness_column(self, monkeypatch):
        # the witness is column 1's vector; the pivots of columns 2 and 3
        # are right of it, so no update of theirs runs
        applied = []

        def spy(a, level, pivot_row, c, targets, lo):
            applied.append(c)
            return update(a, level, pivot_row, c, targets, lo)

        update = linalg._update
        monkeypatch.setattr(linalg, "_update", spy)
        rows = [[1, 2, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
        assert kernel_witness(rows, [[1, 0, 5, 7]], 4) == (-2, 1, 0, 0)
        assert applied and all(c < 1 for c in applied)

    def test_a_list_in_both_is_not_changed(self):
        rows = [[1, 2, 0, 3], [2, 4, 1, 1], [0, 0, 2, 4]]
        others = [rows[1], [1, 0, 0, 0]]  # rows[1] itself, and one outside
        # column 1 is the one free column: v_1 = e_1 - 2 e_0
        assert kernel_witness(rows, others, 4) == (-2, 1, 0, 0)
        assert rows == [[1, 2, 0, 3], [2, 4, 1, 1], [0, 0, 2, 4]]
        assert others == [[2, 4, 1, 1], [1, 0, 0, 0]] and others[0] is rows[1]


ZERO_ONE = st.sampled_from((0, 1))


class TestEqualLevelUpdate:
    # 0/1 rows have a unit first pivot, so every target starts at the
    # pivot's level and takes the sparse update; later pivots repeat levels
    @settings(max_examples=400, deadline=None)
    @given(integer_grids(ZERO_ONE, max_rows=9))
    def test_zero_one_matches_fraction_oracle(self, grid):
        m = QMatrix(grid)
        assert rank_of_matrix(m) == oracle.rank_of_matrix(m)
        assert row_space_basis_indices(m) == oracle.row_space_basis_indices(m)
        assert kernel_basis(m) == oracle.kernel_basis(m)
        square = _square(m)
        assert det(square) == oracle.det(square)


@st.composite
def symmetric_ints(draw):
    """Symmetric int matrices of size 0 to 7 whose diagonal is often sparse
    or zero, so that the row+column congruence runs, often more than once;
    half of them are bordered, with a zero trailing block."""
    n = draw(st.integers(min_value=0, max_value=7))
    diagonal = draw(st.sampled_from((SMALL, SPARSE, st.just(0))))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = draw(diagonal)
        for j in range(i + 1, n):
            a[i][j] = a[j][i] = draw(SMALL)
    if draw(st.booleans()):
        border = draw(st.integers(min_value=0, max_value=n))
        for i in range(n - border, n):
            a[i][n - border :] = [0] * border
    return a


@st.composite
def singular_symmetric(draw):
    """G^T D G for an int r x n matrix G with r < n: symmetric, singular."""
    n = draw(st.integers(min_value=1, max_value=7))
    r = draw(st.integers(min_value=0, max_value=n - 1))
    g = [[draw(SMALL) for _ in range(n)] for _ in range(r)]
    d = [draw(SMALL) for _ in range(r)]
    return [
        [sum(d[t] * g[t][i] * g[t][j] for t in range(r)) for j in range(n)]
        for i in range(n)
    ]


class TestIntegerInertia:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(symmetric_ints(), singular_symmetric()))
    def test_upper_triangle_matches_full_rows(self, a):
        assert integer_inertia(a) == oracle.full_row_inertia(a)

    @settings(max_examples=400, deadline=None)
    @given(symmetric_ints())
    @example([])
    @example([[0]])
    @example([[-2]])
    # a zero leading block whose congruence comes after a non-unit pivot
    @example([[0, 1, 0, 2], [1, 0, 3, 0], [0, 3, 2, 1], [2, 0, 1, 0]])
    def test_block_and_whole_match_eager(self, a):
        # each proper leading principal submatrix, then the whole
        rows = [list(row) for row in a]
        for lead in range(len(a)):
            block = [row[:lead] for row in a[:lead]]
            assert integer_inertia(block) == oracle.eager_inertia(QMatrix(block)), lead
        assert integer_inertia(rows) == oracle.eager_inertia(QMatrix(a))
        assert rows == a  # copied, not changed
