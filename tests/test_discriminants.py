import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logcavity.errors import LogcavityError
from logcavity.discriminants import (
    AlexandrovReport,
    SubsetSumTable,
    alexandrov_check,
    mixed_discriminant,
    mixed_discriminant_gram,
    mixed_discriminant_perm,
)
from logcavity.linalg import QMatrix, det, inertia
from logcavity.matroids import Matroid
from logcavity.polynomials import basis_generating_poly
from logcavity.zoo import random_psd_with_factor
from discriminant_oracle import (
    alexandrov_values,
    psd_decompose,
    psd_matrix,
    random_positive_definite,
    symbolic_det_coefficient,
    weighted_gram_discriminant,
)
import linalg_oracle
from linalg_oracle import add, apply, diagonal, identity, product, scale, transpose

PD3 = QMatrix([[2, 1, 0], [1, 3, 1], [0, 1, 2]])


def sequence(a, b):
    """D_k = D(a taken k times, b taken n - k times), k = 0..n."""
    n = a.rows
    return [mixed_discriminant([a] * k + [b] * (n - k)) for k in range(n + 1)]


def hyperbolic(m):
    """At most one positive eigenvalue, by the inertia of m."""
    return inertia(m).n_pos <= 1


class TestPermRoute:
    def test_diagonal_identity(self):
        assert mixed_discriminant_perm([PD3] * 3) == det(PD3)

    def test_rank_one_pair(self):
        e1 = QMatrix([[1, 0], [0, 0]])
        e2 = QMatrix([[0, 0], [0, 1]])
        assert mixed_discriminant_perm([e1, e2]) == Fraction(1, 2)

    def test_symmetry_and_multilinearity(self, rng):
        a = random_positive_definite(rng, 3)
        b = random_positive_definite(rng, 3)
        c = random_positive_definite(rng, 3)
        base = mixed_discriminant_perm([a, b, c])
        assert mixed_discriminant_perm([b, a, c]) == base
        assert mixed_discriminant_perm([c, b, a]) == base
        scaled = mixed_discriminant_perm([scale(a, 5), b, c])
        assert scaled == 5 * base
        summed = mixed_discriminant_perm([add(a, c), b, c])
        assert summed == base + mixed_discriminant_perm([c, b, c])

    def test_wrong_count(self):
        with pytest.raises(LogcavityError, match="3 x 3 matrices needs 3 of them, got 2"):
            mixed_discriminant_perm([PD3, PD3])

    def test_coefficient_match_symbolic(self, rng):
        for n in (2, 3):
            mats = [random_positive_definite(rng, n) for _ in range(n)]
            import math

            coeff = symbolic_det_coefficient(mats)
            assert coeff == math.factorial(n) * mixed_discriminant_perm(mats)


ENTRY = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def square_matrices(draw, n):
    """A rational n x n matrix, not symmetric in general; one time in three
    the rank-one outer product u v^T, singular for n >= 2."""
    if draw(st.integers(min_value=0, max_value=2)):
        return QMatrix([[draw(ENTRY) for _ in range(n)] for _ in range(n)])
    u = [draw(ENTRY) for _ in range(n)]
    v = [draw(ENTRY) for _ in range(n)]
    return QMatrix([[a * b for b in v] for a in u])


@st.composite
def matrix_tuples(draw, max_n=5):
    """n <= max_n matrices of size n x n drawn from a pool of at most three,
    so matrices repeat."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pool = draw(st.lists(square_matrices(n), min_size=1, max_size=3))
    return [draw(st.sampled_from(pool)) for _ in range(n)]


class TestPolarizationRoute:
    @settings(max_examples=80, deadline=None)
    @given(matrix_tuples())
    def test_matches_permutation_route(self, mats):
        assert mixed_discriminant(mats) == mixed_discriminant_perm(mats)

    @settings(max_examples=30, deadline=None)
    @given(matrix_tuples(max_n=4), st.data())
    def test_sequence_matches_permutation_route(self, mats, data):
        n = len(mats)
        a = mats[0]
        b = data.draw(square_matrices(n))
        assert sequence(a, b) == [
            mixed_discriminant_perm([a] * k + [b] * (n - k)) for k in range(n + 1)
        ]

    def test_repeated_matrix_is_its_determinant(self):
        # D(A, ..., A) = det A needs the binomial weights and the signs
        assert mixed_discriminant([PD3] * 3) == det(PD3) == 8
        a = QMatrix([[1, 2], [3, 4]])
        assert mixed_discriminant([a, a]) == -2

    def test_shape_errors_match_permutation_route(self):
        for mats, message in (
            ([], "needs at least one matrix"),
            ([PD3, PD3], "needs 3 of them, got 2"),
            ([PD3, identity(2), PD3], "matrices must all be 3 x 3"),
        ):
            for route in (mixed_discriminant, mixed_discriminant_perm):
                with pytest.raises(LogcavityError, match=message):
                    route(mats)


@st.composite
def alexandrov_triples(draw, max_n=4):
    """(X, Y, fixed) with n <= max_n, all drawn from a pool of at most three
    n x n matrices, so X == Y and a fixed block holding X or Y are common."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    pool = draw(st.lists(square_matrices(n), min_size=1, max_size=3))
    x, y = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
    return x, y, [draw(st.sampled_from(pool)) for _ in range(n - 2)]


X3 = QMatrix([[1, 2, 0], [0, 3, 1], [1, 0, 2]])
Y3 = QMatrix([[2, 0, 1], [1, 1, 0], [0, 1, Fraction(1, 2)]])


@st.composite
def psd_candidates(draw, max_n=4):
    """Matrices of one size n <= max_n: a few drawn ones, their symmetric
    parts a + a^T, often indefinite, and their Gram matrices a a^T, PSD."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    drawn = draw(st.lists(square_matrices(n), min_size=1, max_size=3))
    symmetric = [add(a, transpose(a)) for a in drawn]
    return drawn + symmetric + [product(a, transpose(a)) for a in drawn]


class TestSubsetSumTable:
    @settings(max_examples=100, deadline=None)
    @given(psd_candidates())
    def test_psd_matches_fraction_inertia(self, mats):
        # the table's test reads its integer rows, scaled by the common
        # denominator of all its matrices
        table = SubsetSumTable(mats)
        for p, a in enumerate(mats):
            expected = a.is_symmetric and linalg_oracle.inertia(a).n_neg == 0
            assert table.psd(p) == expected

    @settings(max_examples=80, deadline=None)
    @given(alexandrov_triples())
    @example((X3, X3, [Y3]))  # X == Y
    @example((X3, Y3, [X3]))  # a fixed block holding X
    def test_alexandrov_values_match_permutation_route(self, triple):
        # one table serves all three values, as in the discriminant command:
        # X is at position 0, Y at 1 and the fixed matrices after them
        x, y, fixed = triple
        table = SubsetSumTable([x, y] + fixed)
        rest = list(range(2, 2 + len(fixed)))
        pairs = ([0, 1], [0, 0], [1, 1])
        values = tuple(table.discriminant(pair + rest) for pair in pairs)
        assert values == alexandrov_values(x, y, fixed)


@st.composite
def gram_factors(draw):
    """n <= 3 rational factors of n rows and 0-3 columns each, entries with
    mixed denominators."""
    n = draw(st.integers(min_value=1, max_value=3))
    widths = [draw(st.integers(min_value=0, max_value=3)) for _ in range(n)]
    return [
        QMatrix([[draw(ENTRY) for _ in range(w)] for _ in range(n)]) for w in widths
    ]


class TestGramRoute:
    def test_single_columns(self):
        x1 = QMatrix([[1], [0]])
        x2 = QMatrix([[0], [1]])
        assert mixed_discriminant_gram([x1, x2]) == Fraction(1, 2)

    def test_matches_perm_on_psd(self, rng):
        for _ in range(15):
            pairs = [random_psd_with_factor(rng, 3) for _ in range(3)]
            mats = [a for a, _ in pairs]
            factors = [x for _, x in pairs]
            assert mixed_discriminant_gram(factors) == (
                mixed_discriminant_perm(mats)
            )

    def test_degenerate_spans(self):
        col = QMatrix([[1, 2], [0, 0]])
        assert mixed_discriminant_gram([col, col]) == 0

    @settings(max_examples=80, deadline=None)
    @given(gram_factors())
    def test_rational_factors_match_perm(self, factors):
        # each X_k X_k^T, summed column by column
        n = len(factors)
        mats = [
            QMatrix(
                [
                    [sum(x[i][k] * x[j][k] for k in range(x.cols)) for j in range(n)]
                    for i in range(n)
                ]
            )
            for x in factors
        ]
        assert mixed_discriminant_gram(factors) == mixed_discriminant_perm(mats)

    def test_ldl_weighted_route(self, rng):
        for _ in range(10):
            a, _ = random_psd_with_factor(rng, 3)
            b, _ = random_psd_with_factor(rng, 3)
            c, _ = random_psd_with_factor(rng, 3)
            factors = [psd_decompose(m).gram_factor() for m in (a, b, c)]
            assert weighted_gram_discriminant(factors) == (
                mixed_discriminant_perm([a, b, c])
            )


class TestPSDDecompose:
    def test_perfect_square_diagonal(self):
        out = psd_decompose(diagonal([4, 9]))
        assert out.sqrt_factor == diagonal([2, 3])

    def test_ldl_fallback(self):
        out = psd_decompose(QMatrix([[2, 1], [1, 2]]))
        assert out.sqrt_factor is None
        assert out.diag == (Fraction(2), Fraction(3, 2))
        assert psd_matrix(out.gram_factor()) == QMatrix([[2, 1], [1, 2]])

    def test_not_psd(self):
        with pytest.raises(LogcavityError, match="negative pivot at position 1"):
            psd_decompose(QMatrix([[1, 2], [2, 1]]))

    def test_zero_pivot_semidefinite(self):
        out = psd_decompose(QMatrix([[1, 1], [1, 1]]))
        assert out.diag == (Fraction(1), Fraction(0))


class TestRandomPSDWithFactor:
    @pytest.mark.parametrize("spread", [2, 3])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matrix_is_the_fraction_product_of_its_drawn_factor(self, n, spread):
        # acceptance criterion 04 and perfbench/freeze.py read these draws:
        # X takes n * n randint draws in row order, and the matrix is X X^T
        for seed in range(4):
            a, x = random_psd_with_factor(random.Random(seed), n, spread)
            rng = random.Random(seed)
            drawn = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
            assert x.m == QMatrix(drawn).m
            expected = product(x, transpose(x))
            assert (a.rows, a.cols) == (n, n) and a.m == expected.m


class TestPositivity:
    def test_psd_nonneg(self, rng):
        for _ in range(10):
            mats = [random_psd_with_factor(rng, 3)[0] for _ in range(3)]
            assert mixed_discriminant_perm(mats) >= 0

    def test_pd_positive(self, rng):
        for _ in range(10):
            mats = [random_positive_definite(rng, 3) for _ in range(3)]
            assert mixed_discriminant_perm(mats) > 0

    def test_congruence_property(self, rng):
        # D(U M U^T, ...) = det(U U^T) D(M, ...)
        for _ in range(8):
            mats = [random_positive_definite(rng, 3) for _ in range(3)]
            u = QMatrix(
                [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
            )
            lhs = mixed_discriminant_perm([product(u, m, transpose(u)) for m in mats])
            assert lhs == det(product(u, transpose(u))) * mixed_discriminant_perm(mats)

    def test_rank_one_reduction_property(self, rng):
        # D(e_i e_i^T, M_1, ..., M_{n-1}) = D(minors)/n
        n = 3
        for i in range(n):
            e = QMatrix(
                [
                    [1 if (r == i and c == i) else 0 for c in range(n)]
                    for r in range(n)
                ]
            )
            mats = [random_positive_definite(rng, n) for _ in range(n - 1)]
            keep = [j for j in range(n) if j != i]
            minors = [linalg_oracle.submatrix(m, keep, keep) for m in mats]
            assert mixed_discriminant_perm([e] + mats) == (
                mixed_discriminant_perm(minors) / n
            )


def alexandrov(x, y, fixed):
    """alexandrov_check of the table of X, Y and the fixed matrices."""
    return alexandrov_check(SubsetSumTable([x, y, *fixed]))


class TestAlexandrov:
    def test_proportional_equality(self):
        rep = alexandrov(PD3, scale(PD3, 2), [identity(3)])
        assert rep.equal and rep.lam == 2 and rep.proportional

    def test_strict_generic(self, rng):
        for _ in range(10):
            x = random_positive_definite(rng, 3)
            y = random_positive_definite(rng, 3)
            rep = alexandrov(x, y, [identity(3)])
            assert rep.lhs >= rep.rhs
            if rep.equal:
                assert rep.proportional

    def test_sequence_log_concave(self, rng):
        for _ in range(8):
            a = random_positive_definite(rng, 4)
            b = random_positive_definite(rng, 4)
            seq = sequence(a, b)
            for k in range(1, len(seq) - 1):
                assert seq[k] * seq[k] >= seq[k - 1] * seq[k + 1]

    def test_one_equality_implies_all(self, rng):
        for lam in (1, 2, Fraction(1, 3)):
            a = random_positive_definite(rng, 4)
            b = scale(a, lam)
            seq = sequence(a, b)
            eqs = [
                seq[k] * seq[k] == seq[k - 1] * seq[k + 1]
                for k in range(1, len(seq) - 1)
            ]
            assert all(eqs)

    def test_psd_hypothesis_enforced(self):
        with pytest.raises(LogcavityError, match="fixed matrices must be PSD"):
            alexandrov(PD3, PD3, [diagonal([1, -1, 1])])

    def test_x_and_y_are_read_by_position(self):
        # X at 0, Y at 1 and the fixed matrices after them: lambda is Y / X
        x, y, fixed = PD3, scale(PD3, 2), [identity(3)]
        for mats, lam in (([x, y, *fixed], 2), ([y, x, *fixed], Fraction(1, 2))):
            rep = alexandrov_check(SubsetSumTable(mats))
            assert rep.proportional and rep.lam == lam
        mixed, xx, yy = alexandrov_values(*fixed, x, [y])  # X = I, Y = PD3
        rep = alexandrov_check(SubsetSumTable([*fixed, x, y]))
        assert (rep.lhs, rep.rhs) == (mixed * mixed, xx * yy)

    def test_one_matrix_is_not_an_alexandrov_tuple(self):
        with pytest.raises(LogcavityError, match="needs X and Y, so n >= 2"):
            alexandrov_check(SubsetSumTable([QMatrix([[1]])]))


class TestHyperbolic:
    def test_lorentz_signature(self):
        assert hyperbolic(diagonal([1, -1, -1]))

    def test_identity_fails(self):
        assert not hyperbolic(identity(2))

    def test_matroid_hessians(self):
        for mat in (Matroid.uniform(2, 4), Matroid.uniform(3, 5)):
            f = basis_generating_poly(mat)
            h = f.hessian_at([1] * mat.n)
            assert hyperbolic(h)

    def test_bilinear_definition_cross_validation(self, rng):
        # for hyperbolic M: <w, Mw> >= 0 implies <v, Mw>^2 >= <v,Mv><w,Mw>
        m = diagonal([2, -1, -3])
        assert hyperbolic(m)
        for _ in range(60):
            v = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
            w = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
            mw = apply(m, w)
            mv = apply(m, v)
            wmw = sum(a * b for a, b in zip(w, mw))
            if wmw < 0:
                continue
            vmw = sum(a * b for a, b in zip(v, mw))
            vmv = sum(a * b for a, b in zip(v, mv))
            assert vmw * vmw >= vmv * wmw

    def test_not_symmetric(self):
        # inertia, and so hyperbolicity, is posed for symmetric matrices
        with pytest.raises(LogcavityError, match="inertia requires a symmetric"):
            hyperbolic(QMatrix([[0, 1], [2, 0]]))
