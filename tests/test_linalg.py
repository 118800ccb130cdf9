from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import linalg_oracle as oracle
from logcavity.errors import (
    DimensionMismatch,
    Disconnected,
    LoopEdge,
    NonSquare,
    NotSymmetric,
    SingularSystem,
)
from logcavity.linalg import (
    _eliminate,
    Graph,
    Inertia,
    QMatrix,
    det,
    incidence_matrix,
    inertia,
    integer_det,
    integer_inertia,
    kernel_basis,
    laplacian,
    rank_of_matrix,
    reduced_incidence_matrix,
    row_space_basis_indices,
    solve,
    spanning_tree_count,
)

K3 = Graph(3, ((0, 1), (0, 2), (1, 2)))
K4 = Graph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))
K4_ADJ = QMatrix([[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]])


def count_eigs_below(m, t):
    """Eigenvalues of m strictly below t: the negative ones of m - t I,
    which has the same inertia as any congruent matrix (Sylvester)."""
    return inertia(m - QMatrix.identity(m.rows).scale(t)).n_neg


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


class TestQMatrixHash:
    def test_equal_matrices_hash_equally_and_stably(self):
        a = QMatrix([[1, Fraction(1, 2)], [Fraction(1, 2), 3]])
        b = QMatrix([[Fraction(2, 2), "1/2"], [Fraction(3, 6), 3]])
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash(a) == hash(a.m)

    def test_hash_is_computed_once(self, monkeypatch):
        a = QMatrix([[1, 2], [3, 4]])
        calls = []
        monkeypatch.setattr(
            Fraction, "__hash__", lambda x: calls.append(x) or hash(x.numerator)
        )
        first = hash(a)
        assert hash(a) == first and len(calls) == 4


class TestDet:
    def test_identity(self):
        assert det(QMatrix.identity(3)) == 1

    def test_2x2(self):
        assert det(QMatrix([[2, 1], [1, 3]])) == 5

    def test_reduced_laplacian_k3_vs_enumeration(self):
        lap = laplacian(K3)
        reduced = lap.submatrix([0, 1], [0, 1])
        assert det(reduced) == brute_force_spanning_trees(K3) == 3

    def test_rational_entries(self):
        m = QMatrix([[Fraction(1, 2), 1], [1, Fraction(4, 3)]])
        assert det(m) == Fraction(1, 2) * Fraction(4, 3) - 1

    def test_non_square(self):
        with pytest.raises(NonSquare):
            det(QMatrix([[1, 2, 3], [4, 5, 6]]))

    def test_singular(self):
        assert det(QMatrix([[1, 2], [2, 4]])) == 0

    def test_integer_rows(self):
        rows = [[0, 2, 1], [3, 1, 0], [1, 0, 4]]
        assert integer_det(rows) == det(QMatrix(rows)) == -25
        assert rows == [[0, 2, 1], [3, 1, 0], [1, 0, 4]]  # left unchanged
        assert integer_det([]) == 1
        with pytest.raises(NonSquare):
            integer_det([[1, 2]])


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
        with pytest.raises(NotSymmetric):
            inertia(QMatrix([[0, 1], [2, 0]]))

    def test_det_sign_consistency(self, rng):
        for _ in range(40):
            n = rng.randint(1, 5)
            m = QMatrix(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            )
            m = m + m.T
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
        assert inertia(p.T * m * p) == inertia(m)


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
            m = m + m.T
            drop = rng.randrange(n)
            keep = [i for i in range(n) if i != drop]
            sub = m.submatrix(keep, keep)
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
        with pytest.raises(LoopEdge):
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
            assert b * b.T == laplacian(g)


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
        with pytest.raises(Disconnected):
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


class TestSolve:
    def test_singular_raises_dedicated_error(self):
        with pytest.raises(SingularSystem):
            solve(QMatrix([[1, 2], [2, 4]]), [1, 2])
        assert issubclass(SingularSystem, DimensionMismatch)


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
    return left * right


MATRICES = st.one_of(
    rational_matrices(),
    rank_deficient_products(),
    rational_matrices(min_rows=1, max_rows=1),
    st.just(QMatrix([])),
)


def _square(m):
    n = min(m.rows, m.cols)
    return m.submatrix(range(n), range(n))


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
        m = b * d * b.T
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
    def test_kernel_basis(self, m):
        assert kernel_basis(m) == oracle.kernel_basis(m)

    @settings(max_examples=150, deadline=None)
    @given(MATRICES)
    def test_det(self, m):
        square = _square(m)
        assert det(square) == oracle.det(square)

    @settings(max_examples=150, deadline=None)
    @given(MATRICES, st.lists(RATIONALS, min_size=7, max_size=7))
    def test_solve(self, m, b):
        square = _square(m)
        b = b[: square.rows]
        try:
            expected = oracle.solve(square, b)
        except DimensionMismatch:
            with pytest.raises(SingularSystem):
                solve(square, b)
        else:
            assert solve(square, b) == expected

    @settings(max_examples=200, deadline=None)
    @given(symmetric_matrices())
    def test_inertia(self, m):
        assert inertia(m) == oracle.inertia(m)


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
    @given(INTEGER_GRIDS, st.booleans(), st.data())
    def test_eliminate(self, grid, jordan, data):
        width = len(grid[0]) if grid else 0
        ncols = data.draw(st.integers(min_value=0, max_value=width))
        lazy = [list(row) for row in grid]
        eager = [list(row) for row in grid]
        expected = oracle.eager_eliminate(eager, ncols, jordan)
        assert _eliminate(lazy, ncols, jordan) == expected
        if jordan:
            assert lazy == eager

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
def symmetric_ints(draw):
    """Symmetric int matrices of size 0 to 7 whose diagonal is often sparse
    or zero, so that congruences run inside a leading block and across it;
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


class TestIntegerInertia:
    @settings(max_examples=400, deadline=None)
    @given(symmetric_ints())
    @example([])
    @example([[0]])
    @example([[-2]])
    # a zero leading block whose congruence comes after a non-unit pivot
    @example([[0, 1, 0, 2], [1, 0, 3, 0], [0, 3, 2, 1], [2, 0, 1, 0]])
    def test_block_and_whole_match_eager(self, a):
        rows = [list(row) for row in a]
        whole = oracle.eager_inertia(QMatrix(a))
        for lead in range(len(a) + 1):
            block = oracle.eager_inertia(QMatrix([row[:lead] for row in a[:lead]]))
            assert integer_inertia(rows, lead) == (block, whole), lead
        assert rows == a  # copied, not changed
