import gc
import math
import random
import weakref
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hodge_oracle as oracle
import linalg_oracle
from lorentzian_oracle import add, scale_poly
from matroid_oracle import SMALL, small_matroids
from logcavity.errors import LogcavityError
from logcavity.linalg import Graph, Inertia, QMatrix, inertia, integer_inertia
from logcavity.linalg import integer_row_basis, kernel_witness, rank_of_matrix
from logcavity.matroids import FlatLattice, Matroid
from logcavity import hodge
from logcavity.hodge import (
    _point,
    _positive_point,
    _sums,
    _verdicts,
    annihilator_containment_probe,
    evaluation,
    facet_point,
    facet_theorem_scan,
    graded_dims,
    graded_evaluation,
    hl_check,
    hr_form,
    hr_inertia,
    hrr_check,
    in_annihilator,
    mobius_pairing,
    socle_check,
)
from matroid_oracle import closure, contract, delete, simplify
from logcavity.polynomials import basis_generating_poly
from logcavity.zoo import (
    bridge_graph,
    k23_graph,
    k4_graph,
    linear_3x5_matroid,
    loopless_zoo,
    matroid_zoo,
    random_connected_multigraph,
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


class TestMatroidTables:
    def test_a_repeated_call_reads_the_table(self):
        m = Matroid.uniform(2, 3)
        assert evaluation(m, 1) is evaluation(m, 1)
        assert m._evals == {1: evaluation(m, 1)}

    def test_equal_matroids_keep_their_own_tables(self):
        # another ground order gives other masks, so other tables
        m = Matroid.uniform(2, 3)
        other = Matroid.from_bases([2, 1, 0], [[0, 1], [0, 2], [1, 2]])
        assert other == m and other.ground != m.ground
        assert evaluation(other, 1) is not evaluation(m, 1)
        at = _point(m, [1, 2, 3])
        assert _sums(other, 1, at)[0] is not _sums(m, 1, at)[0]
        assert set(m._tables) == set(other._tables) == {at}

    def test_tables_go_with_their_matroid(self):
        m = Matroid.uniform(2, 3)
        assert hrr_check(m, 1, [1, 1, 1])
        record = weakref.ref(m._evals[1])
        enabled = gc.isenabled()
        gc.disable()
        try:
            del m
            assert record() is None  # freed by reference counting, not a cycle
        finally:
            if enabled:
                gc.enable()


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
        with pytest.raises(LogcavityError, match="mixed degrees in annihilator"):
            in_annihilator(U23, {frozenset({0}): 1, frozenset({0, 1}): 1})

    def test_explicit_element_in_kernel_span(self):
        # the element above lies in the span of the annihilator's basis
        m = linear_3x5_matroid()
        subsets, vectors = oracle.annihilator_basis(m, 2)
        target = {
            frozenset({1, 3}): 1,
            frozenset({4, 5}): 1,
            frozenset({1, 5}): -1,
            frozenset({3, 4}): -1,
        }
        vec = [target.get(s, 0) for s in subsets]
        assert rank_of_matrix(QMatrix(vectors)) == rank_of_matrix(
            QMatrix(vectors + [vec])
        )

    def test_parallel_difference_degree_one(self):
        m = tripled_u23()
        labels = sorted(m.ground, key=str)
        a, b = labels[0], labels[1]  # two copies of the same element
        assert m.rank_of([a, b]) == 1
        assert in_annihilator(m, {frozenset({a}): 1, frozenset({b}): -1})

    def test_dependent_monomial_in_kernel(self):
        m = tripled_u23()
        subsets, vectors = oracle.annihilator_basis(m, 2)
        dependent = next(s for s in subsets if m.rank_of(s) < len(s))
        assert in_annihilator(m, {dependent: 1})
        unit = [int(s == dependent) for s in subsets]
        assert rank_of_matrix(QMatrix(vectors)) == rank_of_matrix(
            QMatrix(vectors + [unit])
        )

    def test_kernel_dimension(self):
        # the annihilator runs over all squarefree k-sets, C(n, k)
        # coordinates, and has the codimension dim A^k; each vector of its
        # basis is in the annihilator, and no basis monomial is
        for m in (U23, MK4, tripled_u23()):
            for k in range(m.rank + 1):
                ev = graded_evaluation(m, k)
                subsets, vectors = oracle.annihilator_basis(m, k)
                assert len(subsets) == math.comb(m.n, k)
                assert len(vectors) == math.comb(m.n, k) - ev.dimension
                for v in vectors:
                    assert in_annihilator(m, dict(zip(subsets, v)))
            for b in m.basis_label_sets():  # d^B f = 1
                assert not in_annihilator(m, {b: 1})

    @pytest.mark.parametrize("k", [-1, 4])
    def test_degree_outside_zero_to_rank_raises(self, k):
        with pytest.raises(LogcavityError, match=f"degree {k} outside 0..rank = 3"):
            graded_evaluation(MK4, k)


class TestHRForm:
    def test_u23_degree_one_is_hessian(self):
        q = hr_form(U23, 1, [1, 1, 1])
        neg = linalg_oracle.scale(q, -1)
        # -Q^1 = (d-2)! Hess f = adjacency of the triangle
        assert neg == QMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert inertia(neg) == Inertia(1, 2, 0)

    def test_degree_zero(self):
        q = hr_form(U23, 0, [1, 1, 1])
        assert q == QMatrix([[6]])  # d! f(a) = 2 * 3

    def test_graphic_hessian_scaling(self):
        point = [Fraction(1)] * MK4.n
        q = hr_form(MK4, 1, point)
        hess = basis_generating_poly(MK4).hessian_at(point)
        scale = linalg_oracle.scale
        assert scale(q, -1) == scale(hess, math.factorial(MK4.rank - 2))

    def test_degree_too_high(self):
        with pytest.raises(LogcavityError, match="need 0 <= 2k <= rank, got k=2"):
            hr_form(U23, 2, [1, 1, 1])

    @pytest.mark.parametrize("check", [hr_form, hl_check, hrr_check])
    def test_negative_degree(self, check):
        with pytest.raises(LogcavityError, match="need 0 <= 2k <= rank, got k=-1"):
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
        for check in (hrr_check, hl_check):
            with pytest.raises(LogcavityError, match=r"f\(point\) > 0"):
                check(U23, 1, [0, 0, 1])

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
        with pytest.raises(LogcavityError, match="facet scan needs rank >= 2"):
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
        with pytest.raises(LogcavityError, match="socle statement needs rank"):
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
    """The graded dimensions agree with the simplification's, and degree-1
    HRR verdicts, at all-ones and at the 1 + i/10 pencil, transfer along the
    class-summing map on linear forms."""

    @staticmethod
    def assert_simplification_isomorphism(m):
        simple, fiber = simplify(m)
        assert graded_dims(m) == graded_dims(simple)
        ones = tuple(Fraction(1) for _ in range(m.n))
        pencil = tuple(Fraction(10 + i, 10) for i in range(m.n))
        for point in (ones, pencil):
            mapped = [Fraction(0)] * simple.n
            for i, e in enumerate(m.ground):
                if e in fiber:
                    mapped[simple._index[fiber[e]]] += point[i]
            assert hrr_check(m, 1, point) == hrr_check(simple, 1, mapped)

    def test_simple_is_fixed_point(self):
        assert simplify(U23) == (U23, {0: 0, 1: 1, 2: 2})
        self.assert_simplification_isomorphism(U23)

    def test_tripled_dims_match(self):
        self.assert_simplification_isomorphism(tripled_u23())

    def test_random_parallel_extensions(self, rng):
        from logcavity.stanley import parallel_replicate

        for base in (U23, Matroid.graphic(k4_graph())):
            m, _ = parallel_replicate(base, 1, rng.randint(1, 2))
            self.assert_simplification_isomorphism(m)


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
        with pytest.raises(LogcavityError, match="need 0 <= 2k <= rank, got k=2"):
            mobius_pairing(U23, 2)

    def test_negative_degree(self):
        # flats_of_rank(-1) has no flats; the pairing must not be empty
        with pytest.raises(LogcavityError, match="need 0 <= 2k <= rank, got k=-1"):
            mobius_pairing(MK23, -1)

    def test_zero_count_identity(self):
        # zero eigenvalues of the pairing = (number of rank-k flats) - (rank
        # of the flat-basis monomials in the Gorenstein quotient); the
        # pairing is scalar-valued only in complementary degree 2k = rank
        for m in (U23, MK23, Matroid.uniform(2, 2), tripled_u23()):
            if m.rank % 2:
                continue
            k = m.rank // 2
            count, iner = mobius_pairing(m, k)
            row_masks, _, entries = oracle.full_evaluation(m, k)
            pos = {mask: idx for idx, mask in enumerate(row_masks)}
            flats = FlatLattice.of(m).flats_by_rank[k]
            thetas = [m._greedy(m._mask(F))[0] for F in flats]
            rows = [entries[pos[theta]] for theta in thetas]
            assert iner.n_zero == count - len(integer_row_basis(rows))

    def test_theta_embedding_ring_hom(self):
        # in the graded Moebius algebra y_F y_G = y_(F join G) when ranks
        # add, else 0; the product transfers along F -> cl_M(F) from M \ e
        m = MK4
        deleted = delete(m, [5])

        def cl(mat, labels):
            return mat._labels(closure(mat, mat._mask(labels)))

        def product(mat, F, G):
            if mat.rank_of(F | G) == mat.rank_of(F) + mat.rank_of(G):
                return cl(mat, F | G)
            return None

        flats = [F for level in FlatLattice.of(deleted).flats_by_rank for F in level]
        for F in flats:
            for G in flats:
                small = product(deleted, F, G)
                lhs = None if small is None else cl(m, small)
                rhs = product(m, cl(m, F), cl(m, G))
                assert lhs == rhs


class TestProbes:
    def test_coloop_rejected(self):
        m = Matroid.graphic(bridge_graph())
        with pytest.raises(LogcavityError, match="needs a non-coloop; 0 is a coloop"):
            annihilator_containment_probe(m, 0)

    def test_probe_reports_structure(self):
        probe = annihilator_containment_probe(MK4, 0)
        assert probe.element == 0
        if not probe.contained:
            k, coeffs = probe.counterexample
            assert coeffs and all(c != 0 for c in coeffs.values())
            assert in_annihilator(delete(MK4, [0]), coeffs)

    def test_k4_counterexample_is_genuine(self):
        # the probe's witness kills the deletion polynomial but not the
        # contraction polynomial; verified through the polynomial ring
        probe = annihilator_containment_probe(MK4, 0)
        assert not probe.contained
        k, coeffs = probe.counterexample
        deleted = delete(MK4, [0])
        contracted = contract(MK4, [0])
        fdel = basis_generating_poly(deleted)
        fcon = basis_generating_poly(contracted)

        def apply_op(matroid, poly, pairs):
            out = scale_poly(poly, 0)
            for labels, c in pairs:
                g = poly
                for lab in labels:
                    g = g.partial(matroid._index[lab])
                out = add(out, scale_poly(g, c))
            return out

        pairs = list(coeffs.items())
        assert apply_op(deleted, fdel, pairs).is_zero()
        assert not apply_op(contracted, fcon, pairs).is_zero()

    @staticmethod
    def theta_consistent(m):
        """The flat-to-monomial map is basis-independent: any two bases of a
        flat give the same Gorenstein class, that is, the same evaluation
        row."""
        for k in range(m.rank + 1):
            cols = m.independent_subsets(m.rank - k)
            for F in FlatLattice.of(m).flats_by_rank[k]:
                f = m._mask(F)
                bases_of_f = [b for b in m.independent_subsets(k) if b & ~f == 0]
                rows = [[int(a | c in m.bases) for c in cols] for a in bases_of_f]
                if any(row != rows[0] for row in rows):
                    return False
        return True

    def test_theta_consistency(self):
        for m in (U23, MK4, tripled_u23(), linear_3x5_matroid()):
            assert self.theta_consistent(m)

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
            assert self.theta_consistent(m) == self.theta_pair_route(m)

    @settings(max_examples=60, deadline=None)
    @given(small_matroids())
    def test_theta_consistency_matches_pair_route_small(self, m):
        assert self.theta_consistent(m) == self.theta_pair_route(m)


class TestSignatureFormula:
    @staticmethod
    def signature_formula(m, k, point):
        """(hypotheses_hold, formula_holds): when HL_i and HRR_i hold for
        i <= k, the net signature of (-1)^k Q^k equals the alternating sum
        of graded dimension increments."""
        at = _positive_point(m, point)
        for i in range(1, k + 1):
            if not (hl_check(m, i, point) and hrr_check(m, i, point)):
                return False, False
        block = hr_inertia(m, k, at)[0]
        sigma = (-1) ** k * (block.n_pos - block.n_neg)
        dims = [0] + graded_dims(m)
        expect = sum((-1) ** i * (dims[i + 1] - dims[i]) for i in range(k + 1))
        return True, sigma == expect

    def test_u23_degree_one(self):
        held, ok = self.signature_formula(U23, 1, [1, 1, 1])
        assert held and ok

    def test_zoo_where_hypotheses_hold(self):
        for name, m in loopless_zoo().items():
            if m.rank < 2:
                continue
            point = [1] * m.n
            for k in range(1, m.rank // 2 + 1):
                held, ok = self.signature_formula(m, k, point)
                if held:
                    assert ok, (name, k)

    def test_k23_hypotheses_fail_quietly(self):
        held, _ = self.signature_formula(MK23, 2, [1] * 6)
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


@st.composite
def parallel_multigraphs(draw, loops=False):
    """Graphic matroids of multigraphs on 3 to 5 vertices with 4 to 9
    non-loop edges, one of them repeated, so that flats hold parallel
    classes; with loops, also one loop edge at a drawn position, which
    every flat then holds."""
    v = draw(st.integers(min_value=3, max_value=5))
    end = st.integers(min_value=0, max_value=v - 1)
    edge = st.tuples(end, end).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(edge, min_size=3, max_size=8))
    edges.append(draw(st.sampled_from(edges)))
    if loops:
        at = draw(st.integers(min_value=0, max_value=len(edges)))
        edges.insert(at, (draw(end),) * 2)
    return Matroid.graphic(Graph(v, tuple(edges)))


def seeded_multigraph(seed):
    """The cycle matroid of the seeded `random_connected_multigraph` on 3 to
    5 vertices, with one of its edges doubled and a loop at a drawn vertex."""
    rng = random.Random(seed)
    g = random_connected_multigraph(rng, max_vertices=5, max_edges=8)
    loop = (rng.randrange(g.vertices),) * 2
    return Matroid.graphic(Graph(g.vertices, (*g.edges, rng.choice(g.edges), loop)))


ZOO = st.sampled_from(sorted(matroid_zoo().items())).map(lambda item: item[1])


class TestOracleProperties:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(small_matroids(), parallel_multigraphs()))
    def test_basis_positions_match_full_matrix(self, m):
        # one row and one column per flat give the greedy row basis of the
        # whole E_k, taken by Fraction elimination
        for k in range(m.rank + 1):
            full = QMatrix(oracle.full_evaluation(m, k)[2])
            expected = tuple(linalg_oracle.row_space_basis_indices(full))
            assert graded_evaluation(m, k).basis_positions == expected, k

    @settings(max_examples=60, deadline=None)
    @given(instances(), st.data())
    def test_derivative_tables_match_partials(self, inst, data):
        # each size is summed from the nearest size kept above it, so the
        # sizes are asked for in a drawn order; the table holds every
        # independent set of its size, a zero value too
        m, _, point = inst
        for size in data.draw(st.permutations(range(m.rank + 1))):
            table, scale = _sums(m, size, _point(m, point))
            assert sorted(table) == m.independent_subsets(size), size
            for mask in range(1 << m.n):
                if bin(mask).count("1") != size:
                    continue
                expected = oracle.derivative(m, mask, point)
                assert Fraction(table.get(mask, 0), scale) == expected, (size, mask)

    @settings(max_examples=60, deadline=None)
    @given(small_matroids(), st.data())
    def test_integer_points_match_rational_oracle(self, m, data):
        # coordinates of either sign and mixed denominators; the ring keys
        # its tables by the integer point, which a point written as strings
        # gives too
        coord = st.fractions(min_value=-3, max_value=3, max_denominator=12)
        point = [data.draw(coord) for _ in range(m.n)]
        at = _point(m, point)
        assert all(type(x) is int for x in at) and at[0] > 0
        assert [Fraction(x, at[0]) for x in at[1:]] == point
        assert _point(m, map(str, point)) == at
        for size in range(m.rank + 1):
            table, scale = _sums(m, size, at)
            for mask in m.independent_subsets(size):
                expected = oracle.derivative(m, mask, point)
                assert Fraction(table[mask], scale) == expected, (size, mask)
        for k in range(m.rank // 2 + 1):
            assert hr_inertia(m, k, at)[0] == inertia(oracle.hr_form(m, k, point))
        assert list(m._tables) == [at]

    @settings(max_examples=60, deadline=None)
    @given(instances())
    def test_forms_and_hrr_match(self, inst):
        m, k, point = inst
        form = oracle.hr_form(m, k, point)
        assert hr_form(m, k, point) == form
        at = _point(m, point)
        assert hr_inertia(m, k, at)[0] == inertia(form)
        hrr = _verdicts(*hr_inertia(m, k, at))[1]
        assert hrr == oracle.hrr_verdict(m, k, point)

    @settings(max_examples=60, deadline=None)
    @given(rank_bound_sets())
    def test_socle_matches(self, inst):
        m, k, S = inst
        assert socle_check(m, k, S) == oracle.socle_check(m, k, S)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(small_matroids(), parallel_multigraphs(loops=True)), st.data())
    def test_annihilator_matches_basis_scan(self, m, data):
        # any k-sets, dependent ones included, with small coefficients;
        # half the time each independent one is cancelled by a set of the
        # same flat, which gives a class in the annihilator
        k = data.draw(st.integers(0, m.n))
        sets = [frozenset(c) for c in combinations(m.ground, k)]
        chosen = data.draw(st.lists(st.sampled_from(sets), unique=True, max_size=6))
        coeffs = {s: data.draw(st.integers(-2, 2)) for s in chosen}
        if data.draw(st.booleans()):
            for s, c in list(coeffs.items()):
                if m.rank_of(s) == k:
                    flat = m._labels(closure(m, m._mask(s)))
                    same = [t for t in sets if m.rank_of(t) == k and t <= flat]
                    t = data.draw(st.sampled_from(same))
                    coeffs[t] = coeffs.get(t, 0) - c
        assert in_annihilator(m, coeffs) == oracle.annihilator_scan(m, coeffs)

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

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(small_matroids(), parallel_multigraphs(loops=True)))
    def test_mobius_route_matches_full_lattice(self, m):
        # the ring's E_k on flats has a row per rank-k flat and a column per
        # rank-(r-k) flat of the full lattice, and E_(r-k) on flats is its
        # transpose; the pairing reads it in every degree 2k <= r
        levels = FlatLattice.of(m).flats_by_rank
        for k in range(m.rank + 1):
            ev, co = evaluation(m, k), evaluation(m, m.rank - k)
            rows = [m._flats(k)[ev.row_masks[i]] for i in ev.firsts]
            assert sorted(rows) == list(map(m._mask, levels[k]))
            assert sorted(ev.col_flats) == list(map(m._mask, levels[m.rank - k]))
            assert list(co.col_flats) == rows
            assert co.entries == [list(col) for col in zip(*ev.entries)]
        for k in range(m.rank // 2 + 1):
            assert mobius_pairing(m, k) == oracle.mobius_pairing(m, k), k

    @settings(max_examples=60, deadline=None)
    @given(small_matroids())
    def test_evaluation_transpose_and_dims(self, m):
        # E_(r-k) is E_k transposed, as int rows, which graded_dims uses
        for k in range(m.rank + 1):
            top = oracle.full_evaluation(m, m.rank - k)[2]
            assert top == [list(col) for col in zip(*oracle.full_evaluation(m, k)[2])]
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

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            ZOO,
            st.integers(min_value=0, max_value=2**32).map(seeded_multigraph),
            parallel_multigraphs(),
            parallel_multigraphs(loops=True),
        )
    )
    def test_probe_echelon_matches_kernel_route(self, m):
        # one echelon of the deletion rows decides each degree and names the
        # first failing kernel vector by back substitution; the oracle takes
        # a Fraction kernel of the deletion in every degree and tests each
        # of its vectors
        for e in m.ground:
            if e in m.coloops():
                continue
            probe = annihilator_containment_probe(m, e)
            answer = in_row_order(probe.contained, probe.counterexample)
            assert answer == in_row_order(*oracle.containment_probe(m, e)), e

    @pytest.mark.parametrize(
        "name, e", PROBE_CASES, ids=[f"{name}-{e}" for name, e in PROBE_CASES]
    )
    def test_probe_matches_fraction_route_on_graphs(self, name, e):
        m = PROBE_MATROIDS[name]
        probe = annihilator_containment_probe(m, e)
        answer = in_row_order(probe.contained, probe.counterexample)
        assert answer == in_row_order(*oracle.containment_probe(m, e))

    def test_a_row_of_both_minors(self, monkeypatch):
        # a column flat that holds e and keeps its rank without it gives one
        # row list to both the deletion and the contraction; the witness
        # search copies it, so the witness is still the kernel route's
        shared = []

        def spy(rows, others, ncols):
            shared.append(any(r is c for r in rows for c in others))
            return kernel_witness(rows, others, ncols)

        monkeypatch.setattr(hodge, "kernel_witness", spy)
        probe = annihilator_containment_probe(MK4, 0)
        assert shared[0] and not probe.contained
        answer = in_row_order(probe.contained, probe.counterexample)
        assert answer == in_row_order(*oracle.containment_probe(MK4, 0))

    def test_probe_of_a_loop_is_contained(self):
        m = matroid_zoo()["with_loop"]
        assert m.loops() == {3}
        probe = annihilator_containment_probe(m, 3)
        assert (probe.contained, probe.counterexample) == (True, None)
        assert oracle.containment_probe(m, 3) == (True, None)

    def test_probe_of_an_unknown_element_raises(self):
        with pytest.raises(LogcavityError, match="unknown element 'z'"):
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
