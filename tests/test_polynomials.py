import math
import time
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lorentzian_oracle as oracle
from logcavity.errors import LogcavityError
from logcavity import matroids
from linalg_oracle import apply, identity, scale
from logcavity.linalg import QMatrix, inertia
from logcavity.matroids import Matroid
from logcavity.polynomials import (
    MPoly,
    basis_generating_poly,
    _hessian_rows,
    coefficient_logconcavity,
    lorentzian_check,
    m_convex,
    polarization,
    polarization_af_analog_check,
    polarization_sum,
)
from logcavity.zoo import k4_graph, linear_3x5_matroid, matroid_zoo, tripled_u23

U23 = Matroid.uniform(2, 3)
F_U23 = basis_generating_poly(U23)


class TestBasisPolynomial:
    def test_u23(self):
        assert F_U23.terms == {
            (1, 1, 0): 1,
            (1, 0, 1): 1,
            (0, 1, 1): 1,
        }

    def test_boolean(self):
        f = basis_generating_poly(Matroid.uniform(2, 2))
        assert f.terms == {(1, 1): 1}

    def test_homogeneous_of_rank_degree(self):
        for m in matroid_zoo().values():
            f = basis_generating_poly(m)
            assert f.is_homogeneous()
            assert f.degree() == m.rank
            assert sum(f.terms.values()) == len(m.bases)

    def test_loop_partial_vanishes(self):
        zoo = matroid_zoo()
        m = zoo["with_loop"]
        f = basis_generating_poly(m)
        loop = next(iter(m.loops()))
        assert f.partial(m._index[loop]).is_zero()


class TestConstruction:
    def test_repeated_exponents_merge(self):
        # (1, 0) and ("1", 0) normalize to one exponent vector
        f = MPoly(2, {(1, 0): 1, ("1", 0): 2, (0, 1): Fraction(1, 2)})
        assert f.terms == {(1, 0): 3, (0, 1): Fraction(1, 2)}
        assert all(type(c) is Fraction for c in f.terms.values())

    def test_terms_that_cancel_or_are_zero_are_dropped(self):
        assert MPoly(2, {(1, 0): 1, ("1", 0): -1, (0, 1): 0}).terms == {}
        with pytest.raises(LogcavityError, match="must have 2 nonnegative entries"):
            MPoly(2, {(1, 0, 0): 1})


class TestCalculus:
    def test_partial_matches_contraction(self):
        f = basis_generating_poly(U23)
        assert f.partial(0).terms == {(0, 1, 0): 1, (0, 0, 1): 1}

    def test_hessian_constant_for_quadratics(self):
        h1 = F_U23.hessian_at([1, 1, 1])
        h2 = F_U23.hessian_at([Fraction(5, 2), 1, 7])
        assert h1 == h2 == QMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])

    def test_evaluate(self):
        assert F_U23.evaluate([1, 1, 1]) == 3

    def test_substitution_identity(self):
        assert F_U23.substitute_linear(identity(3)) == F_U23

    def test_substitution_example(self):
        # blocks {0} and {1, 2}: count basis sequences per block pattern
        a = QMatrix([[1, 0], [0, 1], [0, 1]])
        g = F_U23.substitute_linear(a)
        assert g.terms == {(1, 1): 2, (0, 2): 1}

    def test_substitution_permutes_terms(self):
        perm = QMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        g = F_U23.substitute_linear(perm)
        assert g == F_U23  # symmetric polynomial

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-4, 4), min_size=3, max_size=3))
    def test_substitute_commutes_with_evaluation(self, point):
        a = QMatrix([[1, 2, 0], [0, 1, 1], [3, 0, 1]])
        g = F_U23.substitute_linear(a)
        assert g.evaluate(point) == F_U23.evaluate(apply(a, point))


class TestPolarization:
    def test_diagonal_identity(self, rng):
        for _ in range(10):
            v = tuple(Fraction(rng.randint(-5, 5)) for _ in range(3))
            assert polarization(F_U23, [v, v]) == F_U23.evaluate(v)

    def test_symmetry_and_multilinearity(self, rng):
        vs = [
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
            for _ in range(2)
        ]
        base = polarization(F_U23, vs)
        assert polarization(F_U23, vs[::-1]) == base
        w = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        scaled = [tuple(3 * x for x in vs[0]), vs[1]]
        assert polarization(F_U23, scaled) == 3 * base
        shifted = [tuple(a + b for a, b in zip(vs[0], w)), vs[1]]
        assert (
            polarization(F_U23, shifted)
            == base + polarization(F_U23, [w, vs[1]])
        )

    def test_degree_mismatch(self):
        with pytest.raises(LogcavityError, match="degree 2 needs exactly 2 vectors, got 1"):
            polarization(F_U23, [(1, 1, 1)])

    def test_polarization_identity_coefficients(self):
        # expand f(x1 v1 + x2 v2) and compare with multinomial * F values
        v1 = (1, 2, 0)
        v2 = (0, 1, 3)
        a = QMatrix(zip(*[v1, v2]))
        expanded = F_U23.substitute_linear(a)
        f11 = polarization(F_U23, [v1, v2])
        f20 = polarization(F_U23, [v1, v1])
        f02 = polarization(F_U23, [v2, v2])
        assert expanded.coefficient((1, 1)) == 2 * f11
        assert expanded.coefficient((2, 0)) == f20
        assert expanded.coefficient((0, 2)) == f02

    def test_determinant_polarization_is_mixed_discriminant(self):
        # the determinant as a polynomial in the 4 entries of a 2x2 matrix
        from logcavity.discriminants import mixed_discriminant_perm

        detpoly = MPoly(4, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})
        a = QMatrix([[2, 1], [1, 3]])
        b = QMatrix([[1, 0], [0, 4]])
        flat = lambda m: (*m.m[0], *m.m[1])
        assert polarization(detpoly, [flat(a), flat(b)]) == (
            mixed_discriminant_perm([a, b])
        )


def polarization_by_subsets(f, vectors):
    """Oracle: (1/d!) sum over all 2^d subsets S of the d vectors of
    (-1)^(d - |S|) f(sum of S), one evaluation per subset."""
    d = len(vectors)
    total = Fraction(0)
    for size in range(d + 1):
        for subset in combinations(range(d), size):
            point = [Fraction(0)] * f.nvars
            for i in subset:
                point = [x + y for x, y in zip(point, vectors[i])]
            total += (-1) ** (d - size) * f.evaluate(point)
    return total / math.factorial(d)


@st.composite
def polys_with_repeated_vectors(draw):
    """A homogeneous polynomial of degree d <= 4 and d vectors drawn from a
    pool of at most three, so that vectors repeat."""
    f = draw(random_polys(SIGNED))
    vector = st.tuples(*[SIGNED] * f.nvars)
    pool = draw(st.lists(vector, min_size=1, max_size=3))
    return f, [draw(st.sampled_from(pool)) for _ in range(f.degree())]


class TestPolarizationSum:
    @settings(max_examples=80, deadline=None)
    @given(polys_with_repeated_vectors())
    def test_matches_one_evaluation_per_subset(self, case):
        f, vectors = case
        assert polarization(f, vectors) == polarization_by_subsets(f, vectors)

    def test_repeated_vector_is_the_value(self):
        # F(v, v, v) = f(v) needs the binomial weights C(3, j)
        f = MPoly(2, {(3, 0): 1, (1, 2): 2})
        assert polarization(f, [(1, 2)] * 3) == f.evaluate((1, 2)) == 9

    def test_weights_and_signs(self):
        # t^3 at the items (1, 1, 2), the 1 taken twice: 3! * 1 * 1 * 2
        assert polarization_sum([2, 1], lambda js: (js[0] + 2 * js[1]) ** 3) == 12
        assert polarization_sum([], lambda js: 7) == 7


class TestMConvex:
    def test_matroid_bases(self):
        for m in matroid_zoo().values():
            f = basis_generating_poly(m)
            assert m_convex(f.support())

    def test_missing_middle(self):
        assert not m_convex([(2, 0), (0, 2)])

    def test_singleton(self):
        assert m_convex([(3, 1)])

    def test_mixed_degrees(self):
        with pytest.raises(LogcavityError, match=r"one total degree: \[1, 2\]"):
            m_convex([(1, 0), (1, 1)])


class TestLorentzian:
    def test_zoo_matroids_pass(self):
        for name, m in matroid_zoo().items():
            f = basis_generating_poly(m)
            assert lorentzian_check(f).passed, name

    def test_sum_of_squares_fails(self):
        report = lorentzian_check(MPoly(2, {(2, 0): 1, (0, 2): 1}))
        assert not report.passed
        assert not report.m_convex_support

    def test_product_passes(self):
        assert lorentzian_check(MPoly(2, {(1, 1): 1})).passed

    def test_negative_coefficient_rejected(self):
        with pytest.raises(LogcavityError, match="need nonnegative coefficients"):
            lorentzian_check(MPoly(2, {(1, 1): -1}))

    def test_zero_passes(self):
        assert lorentzian_check(MPoly(2, {})).passed

    def test_nonneg_substitution_preserves(self, rng):
        f = basis_generating_poly(Matroid.graphic(k4_graph()))
        for _ in range(4):
            cols = rng.randint(2, 4)
            a = QMatrix(
                [
                    [Fraction(rng.randint(0, 2)) for _ in range(cols)]
                    for _ in range(f.nvars)
                ]
            )
            g = f.substitute_linear(a)
            assert lorentzian_check(g).passed

    def test_inertia_of_hessian_at_samples(self):
        f = basis_generating_poly(linear_3x5_matroid())
        for point in oracle.default_sample_points(f.nvars):
            assert inertia(f.partial(0).hessian_at(point)).n_pos == 1


class TestCoefficientLogConcavity:
    def test_matroid_polys(self):
        for m in matroid_zoo().values():
            assert coefficient_logconcavity(basis_generating_poly(m))

    def test_substituted_instances(self):
        m = Matroid.graphic(k4_graph())
        f = basis_generating_poly(m)
        a = QMatrix(
            [[1, 0], [1, 0], [0, 1], [0, 1], [1, 1], [0, 1]]
        )
        assert coefficient_logconcavity(f.substitute_linear(a))

    def test_handcrafted_violation(self):
        f = MPoly(2, {(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)})
        assert not coefficient_logconcavity(f)


# Properties pairing the exact Lorentzian certificate and the Hessian-minor
# coefficient log-concavity with the slow routes in tests/lorentzian_oracle.py,
# on homogeneous polynomials with n <= 4 and d <= 4 (zoo substitutions reach
# the zoo's ranks, which are at most 4).

NONNEG = st.one_of(
    st.integers(min_value=1, max_value=4),
    st.fractions(min_value=0, max_value=5, max_denominator=6),
)
SIGNED = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


def _monomials(n, d):
    return [e for e in oracle.exponents_up_to(n, d) if sum(e) == d]


def _unit(n, i):
    return tuple(int(j == i) for j in range(n))


@st.composite
def random_polys(draw, coeffs=NONNEG):
    n = draw(st.integers(min_value=1, max_value=4))
    monos = _monomials(n, draw(st.integers(min_value=0, max_value=4)))
    if draw(st.booleans()):
        support = monos
    else:
        support = draw(st.lists(st.sampled_from(monos), unique=True))
    return MPoly(n, {e: draw(coeffs) for e in support})


@st.composite
def linear_products(draw, coeffs=NONNEG):
    n = draw(st.integers(min_value=1, max_value=4))
    f = MPoly(n, {(0,) * n: 1})
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        f = oracle.product(f, MPoly(n, {_unit(n, i): draw(coeffs) for i in range(n)}))
    if f.terms and draw(st.booleans()):
        # rescale one coefficient: the support stays, the Hessians move
        e = draw(st.sampled_from(sorted(f.terms)))
        f = oracle.add(f, MPoly(n, {e: f.terms[e] * (draw(coeffs) - 1)}))
    return f


@st.composite
def zoo_substitutions(draw, coeffs=NONNEG):
    m = draw(st.sampled_from(list(matroid_zoo().values())))
    k = draw(st.integers(min_value=1, max_value=4))
    a = QMatrix([[draw(coeffs) for _ in range(k)] for _ in range(m.n)])
    return basis_generating_poly(m).substitute_linear(a)


@st.composite
def linear_substitutions(draw):
    """(f, A): f signed, of mixed degrees, often with a constant term, in
    0-3 variables; A with one row per variable and 0-3 columns, entries of
    either sign with mixed denominators, often a zero row and a zero column."""
    n = draw(st.integers(min_value=0, max_value=3))
    m = draw(st.integers(min_value=0, max_value=3))
    rows = [[draw(st.one_of(st.just(0), SIGNED)) for _ in range(m)] for _ in range(n)]
    if n and draw(st.booleans()):
        rows[draw(st.integers(min_value=0, max_value=n - 1))] = [0] * m
    if m and draw(st.booleans()):
        j = draw(st.integers(min_value=0, max_value=m - 1))
        for row in rows:
            row[j] = 0
    exps = list(oracle.exponents_up_to(n, 3))
    support = set(draw(st.lists(st.sampled_from(exps), max_size=6)))
    if draw(st.booleans()):
        support.add((0,) * n)
    f = MPoly(n, {e: draw(SIGNED) for e in sorted(support)})
    return f, QMatrix(rows, m)


NONNEG_POLYS = st.one_of(random_polys(), linear_products(), zoo_substitutions())
SIGNED_POLYS = st.one_of(
    random_polys(SIGNED), linear_products(SIGNED), zoo_substitutions(SIGNED)
)


class TestOracleProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(NONNEG_POLYS, SIGNED_POLYS))
    def test_constant_hessians_are_hessians_of_partials(self, f):
        n, d = f.nvars, f.degree()
        expected = {}
        for alpha in _monomials(n, d - 2):
            g = oracle.partial_multi(f, alpha)
            if not g.is_zero():
                expected[alpha] = (g, g.hessian_at((1,) * n))
        # the Hessians lorentzian_check tests, as int rows times d / alpha!,
        # each on the variables that occur in its partial
        d, rows = _hessian_rows(f)
        assert rows.keys() == expected.keys()
        for alpha, (g, full) in expected.items():
            support = sorted({i for e in g.terms for i, k in enumerate(e) if k})
            h = rows[alpha]
            assert len(h) == len(support)
            embedded = [[0] * n for _ in range(n)]
            for a, i in enumerate(support):
                for b, j in enumerate(support):
                    embedded[i][j] = h[a][b]
            alpha_factorial = math.prod(map(math.factorial, alpha))
            assert scale(QMatrix(embedded), Fraction(alpha_factorial, d)) == full
            outside = [full.m[i] for i in range(n) if i not in support]
            assert all(x == 0 for row in outside for x in row)

    @settings(max_examples=150, deadline=None)
    @given(NONNEG_POLYS)
    def test_failures_are_the_full_hessians_without_one_positive(self, f):
        ones = (1,) * f.nvars
        partials = [
            (alpha, oracle.partial_multi(f, alpha))
            for alpha in _monomials(f.nvars, f.degree() - 2)
        ]
        failures = [
            alpha
            for alpha, g in partials
            if not g.is_zero() and inertia(g.hessian_at(ones)).n_pos != 1
        ]
        assert list(lorentzian_check(f).failures) == sorted(failures)

    @settings(max_examples=200, deadline=None)
    @given(linear_substitutions())
    @example(
        (
            # 3/2 - x0 x1 + 2/3 x1^2 x2; A has a zero row and a zero column
            MPoly(
                3,
                {(0, 0, 0): Fraction(3, 2), (1, 1, 0): -1, (0, 2, 1): Fraction(2, 3)},
            ),
            QMatrix(
                [
                    [Fraction(1, 2), 0, -3],
                    [0, 0, 0],
                    [Fraction(2, 3), 0, Fraction(5, 7)],
                ]
            ),
        )
    )
    # no columns: only the constant term is left
    @example((MPoly(2, {(0, 0): 4, (1, 1): Fraction(1, 3)}), QMatrix([[], []])))
    def test_substitution_matches_fraction_route(self, case):
        f, a = case
        assert f.substitute_linear(a) == oracle.substitute_linear(f, a)

    @settings(max_examples=150, deadline=None)
    @given(NONNEG_POLYS)
    def test_exact_certificate_matches_recursive_definition(self, f):
        report = lorentzian_check(f)
        assert report.passed == oracle.recursive_lorentzian(f)
        assert report.m_convex_support == m_convex(f.support())

    @settings(max_examples=150, deadline=None)
    @given(NONNEG_POLYS)
    def test_exact_pass_implies_sampled_pass(self, f):
        report = lorentzian_check(f)
        passed, failures = oracle.sampled_lorentzian(f)
        if report.passed:
            assert passed and not failures
        # the sampled route tests the constant order-(d-2) Hessians too
        order = f.degree() - 2
        assert set(report.failures) == {
            alpha for alpha, _ in failures if sum(alpha) == order
        }

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(NONNEG_POLYS, SIGNED_POLYS))
    def test_support_pairs_match_whole_simplex(self, f):
        assert coefficient_logconcavity(f) == oracle.simplex_logconcavity(f)

    @settings(max_examples=200, deadline=None)
    @given(NONNEG_POLYS)
    @example(MPoly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1}))  # (x + y)^2: minor 0
    @example(MPoly(2, {(2, 0): 1, (0, 1): 1}))  # not homogeneous
    def test_certificate_minors_match_whole_simplex(self, f):
        report = lorentzian_check(f)
        if f.is_homogeneous():
            assert report.coefficient_log_concave == oracle.simplex_logconcavity(f)
        else:
            assert report.coefficient_log_concave is None
        # a Lorentzian polynomial has ultra-log-concave coefficients
        assert not report.passed or report.coefficient_log_concave is True


class TestAFAnalog:
    def test_equal_vectors(self):
        v = (1, 2, 3)
        assert polarization_af_analog_check(F_U23, [v, v])

    def test_random_nonneg(self, rng):
        for _ in range(40):
            vs = [
                tuple(Fraction(rng.randint(0, 5)) for _ in range(3))
                for _ in range(2)
            ]
            assert polarization_af_analog_check(F_U23, vs)

    def test_degree_three(self, rng):
        f = basis_generating_poly(Matroid.graphic(k4_graph()))
        for _ in range(10):
            vs = [
                tuple(Fraction(rng.randint(0, 3)) for _ in range(6))
                for _ in range(3)
            ]
            assert polarization_af_analog_check(f, vs)


class TestSerialization:
    def test_round_trip(self):
        f = basis_generating_poly(tripled_u23())
        assert MPoly.from_json(f.to_json()) == f


@st.composite
def zero_one_supports(draw):
    """Equal-degree 0/1 exponent sets on 1-8 variables, matroid bases or
    not, often with a variable in every point or in none."""
    n = draw(st.integers(min_value=1, max_value=8))
    r = draw(st.integers(min_value=0, max_value=n))
    sets = list(combinations(range(n), r))
    picked = draw(st.lists(st.sampled_from(sets), min_size=1, max_size=16))
    return [tuple(int(i in s) for i in range(n)) for s in picked]


class TestMConvexZeroOne:
    """A 0/1 support is decided as a matroid basis family; the exchange scan
    over all pairs of points is the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(zero_one_supports())
    def test_matches_pair_scan(self, exps):
        assert m_convex(exps) == oracle.m_convex_pairs(exps)

    def test_zoo_and_complements(self):
        for m in matroid_zoo().values():
            exps = list(basis_generating_poly(m).terms)
            dual = [tuple(1 - x for x in e) for e in exps]
            assert m_convex(exps) and m_convex(dual)
            if len(exps) > 1:
                assert m_convex(exps[1:]) == oracle.m_convex_pairs(exps[1:])

    def test_common_variables_are_dropped(self):
        # every variable is in the one point, so the complex is {empty set}
        assert m_convex([(1,) * 40])
        assert not m_convex([(1, 1, 0, 0) + (1,) * 30, (0, 0, 1, 1) + (1,) * 30])

    def test_two_disjoint_halves_answer_at_once(self, monkeypatch):
        # 2^20 faces against 2 * 20^2 exchange steps: the scan is chosen
        def refused(*args):
            raise AssertionError("the complex was built")

        monkeypatch.setattr(matroids, "_down_closure", refused)
        start = time.perf_counter()
        assert not m_convex([(1,) * 20 + (0,) * 20, (0,) * 20 + (1,) * 20])
        assert time.perf_counter() - start < 1

    def test_other_integer_points_take_the_pair_scan(self):
        points = [(-1, 1), (1, -1)]
        assert m_convex(points) == oracle.m_convex_pairs(points) is False
