import math
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hodge_oracle as oracle
from matroid_oracle import SMALL, small_matroids
from logcavity.errors import (
    ColoopElement,
    DegreeTooHigh,
    DimensionMismatch,
    NonpositiveValue,
    RankBoundViolated,
    RankTooLow,
    UnknownElement,
)
from logcavity.linalg import Graph, Inertia, QMatrix, inertia, integer_inertia
from logcavity.matroids import FlatLattice, Matroid
from logcavity.hodge import (
    GorensteinRing,
    MobiusAlgebra,
    _hrr_verdict,
    annihilator_containment_probe,
    annihilator_kernel,
    facet_point,
    facet_theorem_scan,
    graded_dims,
    graded_evaluation,
    hl_check,
    hr_form,
    hrr_check,
    in_annihilator,
    mobius_pairing,
    mobius_pairing_zero_count_identity,
    signature_formula_check,
    simplification_isomorphism_check,
    socle_check,
    theta_consistency_check,
)
from logcavity.polynomials import basis_generating_poly
from logcavity.zoo import (
    bridge_graph,
    k23_graph,
    k4_graph,
    linear_3x5_matroid,
    loopless_zoo,
    matroid_zoo,
    tripled_u23,
)

U23 = Matroid.uniform(2, 3)
MK4 = Matroid.graphic(k4_graph())
MK23 = Matroid.graphic(k23_graph())

# Matroids whose probes tell apart kernel columns taken in row order from
# any other order: the first failing vector depends on it.
PROBE_MATROIDS = {
    "K5": Matroid.graphic(
        Graph(5, tuple((i, j) for i in range(5) for j in range(i + 1, 5)))
    ),
    "K33": Matroid.graphic(
        Graph(6, tuple((i, j) for i in range(3) for j in range(3, 6)))
    ),
    "multigraph": Matroid.graphic(
        Graph(
            5,
            (
                (2, 4), (4, 0), (4, 3), (0, 1), (1, 4),
                (2, 1), (1, 3), (1, 0), (3, 1), (1, 2),
            ),
        )
    ),
}


def in_row_order(contained, counterexample):
    """A probe's answer with its coefficients as a list of items, so that
    comparing two answers compares their row order too."""
    if counterexample is None:
        return contained, None
    k, coeffs = counterexample
    return contained, (k, list(coeffs.items()))


PROBE_CASES = [
    (name, e)
    for name, m in PROBE_MATROIDS.items()
    for e in m.ground
    if e not in m.coloops()
]


class TestGorensteinRing:
    def test_one_ring_per_instance(self):
        m = Matroid.uniform(2, 3)
        assert GorensteinRing.of(m) is GorensteinRing.of(m)
        # equal matroids with another ground order get their own masks
        other = Matroid.from_bases([2, 1, 0], [[0, 1], [0, 2], [1, 2]])
        assert other == m and GorensteinRing.of(other) is not GorensteinRing.of(m)

    def test_ring_goes_with_its_matroid(self):
        m = Matroid.uniform(2, 3)
        ring = weakref.ref(GorensteinRing.of(m))
        assert hrr_check(m, 1, [1, 1, 1])
        del m
        assert ring() is None  # freed by reference counting, not a cycle


class TestGradedDims:
    def test_u23(self):
        assert graded_dims(U23) == [1, 3, 1]

    def test_boolean_binomials(self):
        for n in (2, 3, 4):
            dims = graded_dims(Matroid.uniform(n, n))
            assert dims == [math.comb(n, k) for k in range(n + 1)]

    def test_palindromic_zoo(self):
        for name, m in matroid_zoo().items():
            dims = graded_dims(m)
            assert dims == dims[::-1], name
            assert dims[0] == dims[-1] == 1

    def test_simple_degree_one_dimension(self):
        # for a simple matroid the partials are independent
        for m in (U23, MK4, MK23, linear_3x5_matroid()):
            assert graded_dims(m)[1] == m.n


class TestAnnihilator:
    def test_explicit_element(self):
        m = linear_3x5_matroid()
        assert in_annihilator(
            m,
            {
                frozenset({1, 3}): 1,
                frozenset({4, 5}): 1,
                frozenset({1, 5}): -1,
                frozenset({3, 4}): -1,
            },
        )

    def test_empty_combination_is_zero(self):
        # the zero class kills f; only a combination of two sizes is refused
        assert in_annihilator(U23, {})
        with pytest.raises(DimensionMismatch, match="mixed degrees"):
            in_annihilator(U23, {frozenset({0}): 1, frozenset({0, 1}): 1})

    def test_explicit_element_in_kernel_span(self):
        m = linear_3x5_matroid()
        report = annihilator_kernel(m, 2)
        target = {
            frozenset({1, 3}): Fraction(1),
            frozenset({4, 5}): Fraction(1),
            frozenset({1, 5}): Fraction(-1),
            frozenset({3, 4}): Fraction(-1),
        }
        vec = [target.get(s, Fraction(0)) for s in report.row_subsets]
        # solve for membership in the kernel span by rank comparison
        from logcavity.linalg import rank_of_matrix

        rows = [list(v) for v in report.vectors]
        base_rank = rank_of_matrix(QMatrix(rows)) if rows else 0
        joined_rank = rank_of_matrix(QMatrix(rows + [vec]))
        assert base_rank == joined_rank

    def test_parallel_difference_degree_one(self):
        m = tripled_u23()
        labels = sorted(m.ground, key=str)
        a, b = labels[0], labels[1]  # two copies of the same element
        assert m.rank_of([a, b]) == 1
        assert in_annihilator(m, {frozenset({a}): 1, frozenset({b}): -1})

    def test_dependent_monomial_in_kernel(self):
        m = tripled_u23()
        report = annihilator_kernel(m, 2)
        dependent = next(
            s for s in report.row_subsets if not m.is_independent(s)
        )
        idx = report.row_subsets.index(dependent)
        unit = [Fraction(0)] * len(report.row_subsets)
        unit[idx] = Fraction(1)
        from logcavity.linalg import rank_of_matrix

        rows = [list(v) for v in report.vectors]
        assert rank_of_matrix(QMatrix(rows)) == rank_of_matrix(
            QMatrix(rows + [unit])
        )

    def test_kernel_dimension(self):
        # the kernel runs over all squarefree k-sets, C(n, k) coordinates
        for m in (U23, MK4):
            for k in range(m.rank + 1):
                ev = graded_evaluation(m, k)
                report = annihilator_kernel(m, k)
                assert len(report.row_subsets) == math.comb(m.n, k)
                assert len(report.vectors) == math.comb(m.n, k) - ev.dimension

    @pytest.mark.parametrize("k", [-1, 4])
    def test_degree_outside_zero_to_rank_raises(self, k):
        for build in (graded_evaluation, annihilator_kernel):
            with pytest.raises(DegreeTooHigh, match=f"degree {k} outside 0..rank"):
                build(MK4, k)


class TestHRForm:
    def test_u23_degree_one_is_hessian(self):
        q = hr_form(U23, 1, [1, 1, 1])
        neg = q.matrix.scale(-1)
        # -Q^1 = (d-2)! Hess f = adjacency of the triangle
        assert neg == QMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert inertia(neg) == Inertia(1, 2, 0)

    def test_degree_zero(self):
        q = hr_form(U23, 0, [1, 1, 1])
        assert q.matrix == QMatrix([[6]])  # d! f(a) = 2 * 3

    def test_graphic_hessian_scaling(self):
        point = [Fraction(1)] * MK4.n
        q = hr_form(MK4, 1, point)
        hess = basis_generating_poly(MK4).hessian_at(point)
        assert q.matrix.scale(-1) == hess.scale(math.factorial(MK4.rank - 2))

    def test_degree_too_high(self):
        with pytest.raises(DegreeTooHigh):
            hr_form(U23, 2, [1, 1, 1])

    @pytest.mark.parametrize("check", [hr_form, hl_check, hrr_check])
    def test_negative_degree(self, check):
        with pytest.raises(DegreeTooHigh):
            check(U23, -1, [1, 1, 1])


class TestHLHRR:
    def test_positive_point_hrr1(self):
        for name, m in loopless_zoo().items():
            if m.rank < 2:
                continue
            point = [1] * m.n
            assert hrr_check(m, 1, point), name
            assert hl_check(m, 1, point), name

    def test_signature_route_agrees(self, rng):
        for m in (U23, MK4, tripled_u23(), linear_3x5_matroid()):
            for _ in range(3):
                point = [Fraction(rng.randint(1, 4)) for _ in range(m.n)]
                assert oracle.hrr_signature_route(m, point) == hrr_check(m, 1, point)

    def test_hl_iff_hrr_on_nonneg_points(self, rng):
        # Lorentzian polynomials: HL_1 and HRR_1 agree wherever f(a) > 0
        f = basis_generating_poly(MK4)
        for _ in range(12):
            point = [Fraction(rng.randint(0, 2)) for _ in range(MK4.n)]
            if f.evaluate(point) <= 0:
                continue
            assert hl_check(MK4, 1, point) == hrr_check(MK4, 1, point)

    def test_nonpositive_value_raises(self):
        with pytest.raises(NonpositiveValue):
            hrr_check(U23, 1, [0, 0, 1])
        with pytest.raises(NonpositiveValue):
            hl_check(U23, 1, [0, 0, 1])

    def test_coloop_facet_fails(self):
        m = Matroid.graphic(bridge_graph())
        point = facet_point(m, [0])  # edge 0 is the bridge
        scan = facet_theorem_scan(m)
        bridge_report = next(r for r in scan.elements if r.element == 0)
        assert bridge_report.coloop and not bridge_report.hrr_at_ones

    def test_k23_degree_two(self):
        point = [1] * MK23.n
        assert hl_check(MK23, 2, point)
        assert not hrr_check(MK23, 2, point)


class TestFacetScan:
    def test_k4_all_pass(self):
        scan = facet_theorem_scan(MK4)
        assert scan.all_consistent
        assert all(not r.coloop for r in scan.elements)
        assert all(ok for _, ok in scan.inverse_hessian_nonzero)

    def test_bridge_fails_exactly_at_bridge(self):
        scan = facet_theorem_scan(Matroid.graphic(bridge_graph()))
        assert scan.all_consistent
        for r in scan.elements:
            assert r.hrr_at_ones == (not r.coloop)

    def test_boolean_fails_everywhere(self):
        scan = facet_theorem_scan(Matroid.uniform(3, 3))
        assert scan.all_consistent
        assert all(r.coloop and not r.hrr_at_ones for r in scan.elements)

    def test_rank_too_low(self):
        with pytest.raises(RankTooLow):
            facet_theorem_scan(Matroid.uniform(1, 3))

    def test_subset_facets(self):
        scan = facet_theorem_scan(MK23)
        assert scan.subset_checks  # rank 4 leaves room for pairs
        assert all(ok for _, ok in scan.subset_checks)
        # pairs of edges meeting every spanning tree kill f on the face;
        # HRR_1 fails there even though the pair is coloop-free and low rank
        assert scan.degenerate_subsets
        assert all(not ok for _, ok in scan.degenerate_subsets)
        assert scan.all_consistent


class TestSocle:
    def test_trivial_socle_small(self):
        m = Matroid.uniform(3, 5)
        assert socle_check(m, 1, [])

    def test_bound_violation(self):
        with pytest.raises(RankBoundViolated):
            socle_check(U23, 1, [0, 1])

    def test_zoo_sweep(self):
        for name, m in matroid_zoo().items():
            for k in (1, 2):
                if m.rank - k - 1 < 0:
                    continue
                assert socle_check(m, k, []), (name, k)

    def test_with_small_subset(self):
        assert socle_check(MK23, 1, [0])
        assert socle_check(MK23, 2, [0])


class TestSimplification:
    def test_simple_is_fixed_point(self):
        assert simplification_isomorphism_check(U23)

    def test_tripled_dims_match(self):
        assert simplification_isomorphism_check(tripled_u23())

    def test_random_parallel_extensions(self, rng):
        from logcavity.stanley import parallel_replicate

        for base in (U23, Matroid.graphic(k4_graph())):
            m, _ = parallel_replicate(base, 1, rng.randint(1, 2))
            assert simplification_isomorphism_check(m)


class TestMobius:
    def test_k23_pairing(self):
        count, iner = mobius_pairing(MK23, 2)
        assert count == 15
        assert iner == Inertia(6, 6, 3)

    def test_u23_atom_pairing(self):
        count, iner = mobius_pairing(U23, 1)
        assert count == 3
        assert iner == Inertia(1, 2, 0)

    def test_boolean2_pairing(self):
        count, iner = mobius_pairing(Matroid.uniform(2, 2), 1)
        assert count == 2
        assert iner == Inertia(1, 1, 0)

    def test_degree_too_high(self):
        with pytest.raises(DegreeTooHigh):
            mobius_pairing(U23, 2)

    def test_negative_degree(self):
        # flats_of_rank(-1) has no flats; the pairing must not be empty
        with pytest.raises(DegreeTooHigh):
            mobius_pairing(MK23, -1)

    def test_zero_count_identity(self):
        # the pairing is scalar-valued only in complementary degree 2k = rank
        for m in (U23, MK23, Matroid.uniform(2, 2), tripled_u23()):
            if m.rank % 2:
                continue
            assert mobius_pairing_zero_count_identity(m, m.rank // 2)

    def test_theta_embedding_ring_hom(self):
        # y_F y_G = y_{F v G} or 0 transfers along deletion closure
        m = MK4
        e = 5
        deleted = m.delete([e])
        alg_small = MobiusAlgebra(deleted)
        alg_big = MobiusAlgebra(m)

        def theta(F):
            return m.closure_of(F)

        for level in alg_small.lattice.flats_by_rank:
            for F in level:
                for level2 in alg_small.lattice.flats_by_rank:
                    for G in level2:
                        prod_small = alg_small.product(F, G)
                        lhs = (
                            theta(prod_small)
                            if prod_small is not None
                            else None
                        )
                        rhs = alg_big.product(theta(F), theta(G))
                        assert lhs == rhs


class TestProbes:
    def test_coloop_rejected(self):
        m = Matroid.graphic(bridge_graph())
        with pytest.raises(ColoopElement):
            annihilator_containment_probe(m, 0)

    def test_probe_reports_structure(self):
        probe = annihilator_containment_probe(MK4, 0)
        assert probe.element == 0
        if not probe.contained:
            k, coeffs = probe.counterexample
            assert coeffs and all(c != 0 for c in coeffs.values())
            assert in_annihilator(MK4.delete([0]), coeffs)

    def test_k4_counterexample_is_genuine(self):
        # the probe's witness kills the deletion polynomial but not the
        # contraction polynomial; verified through the polynomial ring
        probe = annihilator_containment_probe(MK4, 0)
        assert not probe.contained
        k, coeffs = probe.counterexample
        deleted = MK4.delete([0])
        contracted = MK4.contract([0])
        fdel = basis_generating_poly(deleted)
        fcon = basis_generating_poly(contracted)

        def apply_op(matroid, poly, pairs):
            out = poly.scale(0)
            for labels, c in pairs:
                g = poly
                for lab in labels:
                    g = g.partial(matroid._index[lab])
                out = out + g.scale(c)
            return out

        pairs = list(coeffs.items())
        assert apply_op(deleted, fdel, pairs).is_zero()
        assert not apply_op(contracted, fcon, pairs).is_zero()

    def test_theta_consistency(self):
        for m in (U23, MK4, tripled_u23(), linear_3x5_matroid()):
            assert theta_consistency_check(m)

    @staticmethod
    def theta_pair_route(m):
        """Oracle: each basis of each flat against the first, as a label
        difference tested by `in_annihilator`."""
        for level in FlatLattice.of(m).flats_by_rank:
            for F in level:
                f = m._mask(F)
                bases = [
                    m._labels(b)
                    for b in m.independent_subsets(m._rank_mask(f))
                    if b & ~f == 0
                ]
                for other in bases[1:]:
                    if not in_annihilator(m, {bases[0]: 1, other: -1}):
                        return False
        return True

    def test_theta_consistency_matches_pair_route(self):
        for m in matroid_zoo().values():
            assert theta_consistency_check(m) == self.theta_pair_route(m)

    @settings(max_examples=60, deadline=None)
    @given(small_matroids())
    def test_theta_consistency_matches_pair_route_small(self, m):
        assert theta_consistency_check(m) == self.theta_pair_route(m)


class TestSignatureFormula:
    def test_u23_degree_one(self):
        held, ok = signature_formula_check(U23, 1, [1, 1, 1])
        assert held and ok

    def test_zoo_where_hypotheses_hold(self):
        for name, m in loopless_zoo().items():
            if m.rank < 2:
                continue
            point = [1] * m.n
            for k in range(1, m.rank // 2 + 1):
                held, ok = signature_formula_check(m, k, point)
                if held:
                    assert ok, (name, k)

    def test_k23_hypotheses_fail_quietly(self):
        held, _ = signature_formula_check(MK23, 2, [1] * 6)
        assert not held  # HRR_2 fails, so the formula is not asserted


POSITIVE = st.fractions(min_value=Fraction(1, 7), max_value=5, max_denominator=7)
@st.composite
def instances(draw):
    """(matroid, k with 2k <= rank, point): positive, or on a facet."""
    m = draw(small_matroids())
    # counted down from the top, so that shrinking keeps k >= 1 where it can
    k = m.rank // 2 - draw(st.integers(min_value=0, max_value=m.rank // 2))
    point = [draw(POSITIVE) for _ in range(m.n)]
    if draw(st.booleans()):
        zeros = draw(st.sets(st.integers(min_value=0, max_value=m.n - 1)))
        for i in zeros:
            point[i] = Fraction(0)
    return m, k, tuple(point)


@st.composite
def rank_bound_sets(draw):
    """(matroid, k, S) with S grown in a random order up to rank r-k-1."""
    m = draw(small_matroids().filter(lambda m: m.rank >= 1))
    k = draw(st.integers(min_value=0, max_value=min(m.rank // 2, m.rank - 1)))
    S = []
    for e in draw(st.permutations(m.ground)):
        if m.rank_of(S + [e]) <= m.rank - k - 1:
            S.append(e)
    return m, k, S


@st.composite
def rank_deficient(draw, rows, cols):
    """A rows x cols product through an inner dimension of 0 to 3."""
    inner = draw(st.integers(min_value=0, max_value=3))
    a = [[draw(SMALL) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(SMALL) for _ in range(cols)] for _ in range(inner)]
    return QMatrix(
        [sum(x * y for x, y in zip(ar, bc)) for bc in zip(*b)] if b else [0] * cols
        for ar in a
    )


@st.composite
def bordered_instances(draw):
    """(q symmetric, u) with d <= 5 rows and a border of 0 to 4 columns,
    mostly rank-deficient; q is sometimes a Gram matrix."""
    d = draw(st.integers(min_value=0, max_value=5))
    e = draw(st.integers(min_value=0, max_value=4))
    if draw(st.booleans()):
        x = [[draw(SMALL) for _ in range(d)] for _ in range(d)]
        q = [[sum(r[i] * r[j] for r in x) for j in range(d)] for i in range(d)]
    else:
        q = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                q[i][j] = q[j][i] = draw(POSITIVE) - 2
    return QMatrix(q), draw(rank_deficient(d, e))


class TestOracleProperties:
    @settings(max_examples=60, deadline=None)
    @given(instances())
    def test_derivative_tables_match_partials(self, inst):
        m, _, point = inst
        ring = GorensteinRing.of(m)
        for size in range(m.rank + 1):
            table = ring.derivatives(size, point)
            for mask in range(1 << m.n):
                if bin(mask).count("1") != size:
                    continue
                expected = oracle.derivative(m, mask, point)
                assert table.get(mask, 0) == expected, (size, mask)

    @settings(max_examples=60, deadline=None)
    @given(instances())
    def test_forms_and_hrr_match(self, inst):
        m, k, point = inst
        form = oracle.hr_form(m, k, point)
        assert hr_form(m, k, point).matrix == form
        ring = GorensteinRing.of(m)
        assert ring.hr_inertia(k, point)[0] == inertia(form)
        assert _hrr_verdict(ring, k, point) == oracle.hrr_verdict(m, k, point)

    @settings(max_examples=60, deadline=None)
    @given(rank_bound_sets())
    def test_socle_matches(self, inst):
        m, k, S = inst
        assert socle_check(m, k, S) == oracle.socle_check(m, k, S)

    @settings(max_examples=40, deadline=None)
    @given(small_matroids().filter(lambda m: m.rank >= 2))
    def test_facet_inverse_hessian_matches(self, m):
        simple = not m.loops() and all(
            len(c) == 1 for c in m.parallel_data().classes
        )
        expected = oracle.inverse_hessian_nonzero(m) if simple else ()
        scan = facet_theorem_scan(m, subset_size_cap=1)
        assert scan.inverse_hessian_nonzero == expected

    @settings(max_examples=300, deadline=None)
    @given(bordered_instances())
    def test_bordered_inertia_rule(self, inst):
        # q is positive definite on ker u^T iff [[q, u], [u^T, 0]] has
        # rows(q) positive eigenvalues; one positive multiplier d clears
        # the denominators without changing either inertia
        q, u = inst
        bordered = [a + b for a, b in zip(q.m, u.m)]
        bordered += [col + (0,) * u.cols for col in zip(*u.m)]
        d = math.lcm(*(x.denominator for row in bordered for x in row))
        rows = [[int(x * d) for x in row] for row in bordered]
        block, whole = integer_inertia(rows, q.rows)
        assert block == inertia(q)
        assert (whole.n_pos == q.rows) == oracle.positive_on_kernel(q, u)

    @settings(max_examples=60, deadline=None)
    @given(small_matroids(), st.data())
    def test_mobius_route_matches_full_lattice(self, m, data):
        levels = FlatLattice.of(m).flats_by_rank
        alg = MobiusAlgebra(m)
        for k in range(m.rank + 1):
            assert alg.flats_of_rank(k) == levels[k]
        k = data.draw(st.integers(min_value=0, max_value=m.rank // 2))
        assert mobius_pairing(m, k) == oracle.mobius_pairing(m, k)

    @settings(max_examples=60, deadline=None)
    @given(small_matroids())
    def test_evaluation_transpose_and_dims(self, m):
        # E_(r-k) is E_k transposed, as int rows, which graded_dims uses
        for k in range(m.rank + 1):
            top = graded_evaluation(m, m.rank - k).entries
            assert top == tuple(zip(*graded_evaluation(m, k).entries))
        assert graded_dims(m) == oracle.graded_dims(m)

    @settings(max_examples=60, deadline=None)
    @given(small_matroids(), st.data())
    def test_probe_matches_fraction_route(self, m, data):
        candidates = [e for e in m.ground if e not in m.coloops()]
        if not candidates:
            return
        e = data.draw(st.sampled_from(candidates))
        probe = annihilator_containment_probe(m, e)
        answer = in_row_order(probe.contained, probe.counterexample)
        assert answer == in_row_order(*oracle.containment_probe(m, e))

    @pytest.mark.parametrize(
        "name, e", PROBE_CASES, ids=[f"{name}-{e}" for name, e in PROBE_CASES]
    )
    def test_probe_matches_fraction_route_on_graphs(self, name, e):
        m = PROBE_MATROIDS[name]
        probe = annihilator_containment_probe(m, e)
        answer = in_row_order(probe.contained, probe.counterexample)
        assert answer == in_row_order(*oracle.containment_probe(m, e))

    def test_probe_of_a_loop_is_contained(self):
        m = matroid_zoo()["with_loop"]
        assert m.loops() == {3}
        probe = annihilator_containment_probe(m, 3)
        assert (probe.contained, probe.counterexample) == (True, None)
        assert oracle.containment_probe(m, 3) == (True, None)

    def test_probe_of_an_unknown_element_raises(self):
        with pytest.raises(UnknownElement, match="unknown element 'z'"):
            annihilator_containment_probe(MK4, "z")

    def test_probe_matches_fraction_route_on_zoo(self):
        for name, m in matroid_zoo().items():
            for e in m.ground:
                if e in m.coloops():
                    continue
                probe = annihilator_containment_probe(m, e)
                answer = in_row_order(probe.contained, probe.counterexample)
                expected = in_row_order(*oracle.containment_probe(m, e))
                assert answer == expected, (name, e)
