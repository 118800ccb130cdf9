import time
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import matroid_oracle as oracle
from matroid_oracle import small_matroids

from logcavity.errors import (
    EmptyBases,
    ExchangeViolation,
    TooLarge,
    UnequalSizes,
    UnknownElement,
)
from logcavity.linalg import (
    Graph,
    QMatrix,
    _bits,
    reduced_incidence_matrix,
    spanning_tree_count,
)
from logcavity import matroids
from logcavity.linalg import det
from logcavity.matroids import (
    FlatLattice,
    Matroid,
    _down_closure,
    _links_multipartite,
)
from logcavity.polynomials import basis_generating_poly, MPoly
from logcavity.zoo import (
    k3_graph,
    k4_graph,
    k23_graph,
    linear_3x5_matroid,
    matroid_zoo,
    three_by_five_matrix,
    tripled_u23,
)

U23 = Matroid.uniform(2, 3)


def subsets_of(ground):
    for k in range(len(ground) + 1):
        yield from combinations(ground, k)


class TestConstruction:
    def test_uniform_bases(self):
        assert Matroid.from_bases([0, 1, 2], [[0, 1], [0, 2], [1, 2]]) == U23

    def test_exchange_violation(self):
        with pytest.raises(ExchangeViolation):
            Matroid.from_bases([1, 2, 3, 4], [[1, 2], [3, 4]])

    def test_unequal_sizes(self):
        with pytest.raises(UnequalSizes):
            Matroid.from_bases([1, 2, 3], [[1], [2, 3]])

    def test_empty(self):
        with pytest.raises(EmptyBases):
            Matroid.from_bases([1, 2], [])

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            Matroid.from_bases([1, 2], [[1, 7]])

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: Matroid.from_bases([1, 2], [[1, 7]]),
                "basis element 7 not in ground set",
            ),
            (
                lambda: Matroid.from_bases(["a", "b"], [("a", "a")]),
                "basis ('a', 'a') repeats an element",
            ),
            (lambda: U23.rank_of([0, "x"]), "unknown element 'x'"),
        ],
        ids=["unknown-basis-element", "repeated-element", "unknown-element"],
    )
    def test_label_error_messages(self, build, message):
        with pytest.raises(UnknownElement) as excinfo:
            build()
        assert str(excinfo.value) == message

    def test_literal_five_basis_list_is_valid(self):
        m = Matroid.from_bases(
            [1, 2, 3, 4, 5],
            [[1, 2, 3], [1, 2, 5], [1, 3, 4], [1, 3, 5], [1, 4, 5]],
        )
        assert m.rank == 3 and len(m.bases) == 5

    def test_linear_three_by_five(self):
        # frozen from hand-expanded 3x3 determinants of the column triples
        expected = {
            frozenset(b)
            for b in (
                [1, 2, 3],
                [1, 2, 5],
                [1, 3, 4],
                [1, 3, 5],
                [1, 4, 5],
                [2, 3, 4],
                [2, 4, 5],
                [3, 4, 5],
            )
        }
        assert linear_3x5_matroid().basis_label_sets() == expected

    def test_linear_rank_zero(self):
        # the one basis is the empty set, whether or not there are columns
        zero = Matroid.linear(QMatrix.zero(2, 3), "abc")
        assert zero.bases == (0,) and zero.loops() == {"a", "b", "c"}
        empty = Matroid.linear(QMatrix([]))
        assert empty.ground == () and empty.bases == (0,)

    def test_graphic_matches_matrix_tree(self):
        for graph in (k3_graph(), k4_graph(), k23_graph()):
            m = Matroid.graphic(graph)
            assert len(m.bases) == spanning_tree_count(graph)

    def test_boolean_single_basis(self):
        assert len(Matroid.uniform(4, 4).bases) == 1

    def test_graphic_loop_edge_is_matroid_loop(self):
        g = Graph(3, ((0, 1), (0, 2), (1, 2), (2, 2)))
        m = Matroid.graphic(g)
        assert m.loops() == {3}


class TestRankClosure:
    def test_rank_empty(self):
        assert U23.rank_of([]) == 0

    def test_simple_closure_is_identity(self):
        assert U23.closure_of([0]) == {0}

    def test_rank_axioms_exhaustive(self):
        for m in (U23, Matroid.uniform(3, 5), Matroid.graphic(k4_graph())):
            ground = m.ground
            ranks = {s: m.rank_of(s) for s in subsets_of(ground)}
            for s in subsets_of(ground):
                assert 0 <= ranks[s] <= len(s)  # R1
            for s in subsets_of(ground):
                for e in ground:
                    if e in s:
                        continue
                    bigger = tuple(sorted((*s, e), key=str))
                    assert ranks[s] <= ranks[bigger]  # R2 one-step
            items = list(subsets_of(ground))
            for s in items:
                for t in items:
                    union = tuple(sorted(set(s) | set(t), key=str))
                    inter = tuple(sorted(set(s) & set(t), key=str))
                    assert ranks[union] + ranks[inter] <= ranks[s] + ranks[t]

    def test_closure_axioms_exhaustive(self):
        for m in (U23, Matroid.graphic(k3_graph()), tripled_u23()):
            ground = m.ground
            for s in subsets_of(ground):
                cl = m.closure_of(s)
                assert set(s) <= cl  # C1
                assert m.closure_of(cl) == cl  # C3
                for t in subsets_of(ground):
                    if set(s) <= set(t):
                        assert cl <= m.closure_of(t)  # C2
                for x in ground:
                    with_x = m.closure_of(set(s) | {x})
                    for y in with_x - cl:
                        assert x in m.closure_of(set(s) | {y})  # C4


class TestFlats:
    def test_u23_flats(self):
        assert U23.flats().rank_counts() == [1, 3, 1]

    def test_k23_rank_two_flats(self):
        lattice = Matroid.graphic(k23_graph()).flats()
        assert lattice.rank_counts()[2] == 15

    def test_boolean_all_subsets(self):
        assert sum(Matroid.uniform(3, 3).flats().rank_counts()) == 8

    def test_lattice_ops(self):
        # the join is the closure of the union, the meet the intersection,
        # which is a flat, and the atoms are the rank-1 flats
        lattice = U23.flats()
        assert lattice.join({0}, {1}) == {0, 1, 2}
        assert U23.closure_of({0, 1, 2} & {0}) == {0}
        assert set(lattice.flats_by_rank[1]) == {
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
        }


class TestParallel:
    def test_simple_identity(self):
        simple, fiber = oracle.simplify(U23)
        assert simple == U23
        assert fiber == {0: 0, 1: 1, 2: 2}

    def test_tripled_simplifies_back(self):
        m = tripled_u23()
        simple, fiber = oracle.simplify(m)
        assert simple.rank == 2 and len(simple.bases) == 3
        data = m.parallel_data()
        assert len(data.classes) == 3
        assert all(len(c) == 3 for c in data.classes)

    def test_atoms_closure(self):
        g = Graph(3, ((0, 1), (0, 1), (1, 2), (2, 2)))
        m = Matroid.graphic(g)
        data = m.parallel_data()
        assert data.loops == {3}
        # closure of one parallel edge is its class plus the loops
        assert m.closure_of([0]) == {0, 1, 3}

    def test_simplify_idempotent(self):
        simple, _ = oracle.simplify(tripled_u23())
        again, _ = oracle.simplify(simple)
        assert again == simple

    @staticmethod
    def assert_matches_pairwise_rank(m):
        loops, classes = oracle.parallel_classes(m)
        data = m.parallel_data()
        assert data.loops == m._labels(loops)
        assert data.classes == tuple(m._labels(c) for c in classes)

    @settings(max_examples=80, deadline=None)
    @given(small_matroids())
    @example(Matroid.graphic(Graph(3, ((0, 1), (0, 1), (1, 2), (2, 2)))))
    def test_matches_pairwise_rank(self, m):
        self.assert_matches_pairwise_rank(m)

    def test_zoo_matches_pairwise_rank(self):
        for m in matroid_zoo().values():
            self.assert_matches_pairwise_rank(m)


class TestMinors:
    def test_contract_uniform(self):
        contracted = oracle.contract(U23, [0])
        assert contracted == Matroid.from_bases([1, 2], [[1], [2]])

    @staticmethod
    def assert_contraction_matches_definition(m):
        # the bases of M/T are B - T over the bases B that meet T in a basis
        # of T (Oxley, Matroid Theory), for every T, by the oracle rank
        for t in range(1 << m.n):
            rank_t = oracle.rank(m, t)
            expected = {
                m._labels(b & ~t) for b in m.bases if (b & t).bit_count() == rank_t
            }
            contracted = oracle.contract(m, m._labels(t))
            rest = tuple(e for i, e in enumerate(m.ground) if not t >> i & 1)
            assert contracted.ground == rest
            assert contracted.basis_label_sets() == expected

    @settings(max_examples=60, deadline=None)
    @given(small_matroids())
    def test_contraction_matches_definition(self, m):
        self.assert_contraction_matches_definition(m)

    def test_zoo_contraction_matches_definition(self):
        for m in matroid_zoo().values():
            self.assert_contraction_matches_definition(m)

    def test_deletion_contraction_polynomial(self):
        # f_M = x_e f_{M/e} + f_{M \ e} for a non-coloop e, checked symbolically
        for m in (U23, Matroid.graphic(k4_graph()), linear_3x5_matroid()):
            for e in m.ground:
                if e in m.coloops() or e in m.loops():
                    continue
                f = basis_generating_poly(m)
                idx = m._index[e]
                contracted = oracle.contract(m, [e])
                deleted = oracle.delete(m, [e])
                fcontr = basis_generating_poly(contracted)
                fdel = basis_generating_poly(deleted)

                def lift(poly, sub):
                    out = {}
                    for exp, c in poly.terms.items():
                        new = [0] * m.n
                        for j, v in enumerate(exp):
                            new[m._index[sub.ground[j]]] = v
                        out[tuple(new)] = c
                    return MPoly(m.n, out)

                x_e = MPoly(m.n, {tuple(int(i == idx) for i in range(m.n)): 1})
                rebuilt = x_e * lift(fcontr, contracted) + lift(fdel, deleted)
                assert rebuilt == f

    def test_partial_is_contraction(self):
        f = basis_generating_poly(U23)
        contr = basis_generating_poly(oracle.contract(U23, [0]))
        partial = f.partial(0)
        assert sorted(partial.terms) == [(0, 0, 1), (0, 1, 0)]
        assert sorted(contr.terms) == [(0, 1), (1, 0)]

    def test_truncate_drops_rank(self):
        summed = Matroid.uniform(3, 3).direct_sum(
            Matroid.from_bases(["a", "b"], [["a", "b"]])
        )
        assert summed.truncate().rank == summed.rank - 1

    def test_truncate_uniform(self):
        assert Matroid.uniform(3, 4).truncate() == Matroid.uniform(2, 4)

    def test_direct_sum_counts(self):
        s = U23.direct_sum(Matroid.from_bases(["a"], [["a"]]))
        assert s.rank == 3 and len(s.bases) == 3

    def test_direct_sum_collision(self):
        with pytest.raises(UnknownElement):
            U23.direct_sum(U23)


class TestLoopsColoops:
    def test_boolean_all_coloops(self):
        m = Matroid.uniform(3, 3)
        assert m.coloops() == {0, 1, 2}

    def test_u23_none(self):
        assert not U23.coloops() and not U23.loops()

    def test_bridges_are_coloops(self):
        g = Graph(4, ((0, 1), (1, 2), (1, 3), (2, 3)))
        m = Matroid.graphic(g)
        # edge 0 is the only bridge
        assert m.coloops() == {0}
        forests = {b for b in m.basis_label_sets()}
        assert all(0 in b for b in forests)


class TestUnimodular:
    @staticmethod
    def unimodular_coordinatization(m, matrix):
        """Every square submatrix has determinant in {0, +-1} and the column
        matroid of the matrix, with rank(m) rows, has exactly the bases of m."""
        assert matrix.cols == m.n and matrix.rows == m.rank
        for k in range(1, min(matrix.rows, matrix.cols) + 1):
            for rows in combinations(range(matrix.rows), k):
                for cols in combinations(range(matrix.cols), k):
                    if det(matrix.submatrix(rows, cols)) not in (-1, 0, 1):
                        return False
        return Matroid.linear(matrix, m.ground) == m

    def test_reduced_incidence(self):
        for graph in (k3_graph(), k4_graph(), k23_graph()):
            m = Matroid.graphic(graph)
            assert self.unimodular_coordinatization(
                m, reduced_incidence_matrix(graph)
            )

    def test_identity_for_boolean(self):
        m = Matroid.uniform(3, 3)
        assert self.unimodular_coordinatization(m, QMatrix.identity(3))

    def test_bad_minor(self):
        mat = QMatrix([[1, 1], [-1, 1]])  # determinant 2
        m = Matroid.linear(mat)
        assert not self.unimodular_coordinatization(m, mat)

    def test_paper_matrix_is_unimodular(self):
        assert self.unimodular_coordinatization(
            linear_3x5_matroid(), three_by_five_matrix()
        )


class TestSerialization:
    def test_round_trip(self):
        for m in (U23, Matroid.graphic(k4_graph()), tripled_u23()):
            assert Matroid.from_json(m.to_json()) == m

    def test_typed_json(self):
        m = Matroid.from_json({"type": "uniform", "k": 2, "n": 3})
        assert m == U23
        g = Matroid.from_json(
            {"type": "graphic", "graph": k3_graph().to_json()}
        )
        assert len(g.bases) == 3


class TestEquality:
    def test_ground_order_ignored_by_eq_and_hash(self):
        a = Matroid.from_bases([1, 2], [[1]])
        b = Matroid.from_bases([2, 1], [[1]])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def assert_matches_oracle(m):
    """Greedy rank, closure and independence equal the max-over-bases routes
    on every mask, and the independent k-sets equal the subsets of bases."""
    levels = m._independent()
    for mask in range(1 << m.n):
        labels = m._labels(mask)
        assert m.rank_of(labels) == oracle.rank(m, mask), mask
        assert m._closure_mask(mask) == oracle.closure(m, mask), mask
        independent = mask in levels[min(mask.bit_count(), m.rank + 1)]
        assert independent == oracle.is_independent(m, mask), mask
    for k in range(m.n + 2):
        assert m.independent_subsets(k) == oracle.independent_subsets(m, k), k


class TestOracleProperties:
    @settings(max_examples=80, deadline=None)
    @given(small_matroids())
    def test_complex_matches_bases(self, m):
        assert_matches_oracle(m)

    def test_zoo_matches_bases(self):
        for m in matroid_zoo().values():
            assert_matches_oracle(m)

    @settings(max_examples=80, deadline=None)
    @given(small_matroids(), st.data())
    def test_restrict_matches_bases(self, m, data):
        # the bases of M | T are the independent sets of the complex of M
        # inside T of size rank(T), the greedy rank
        t_mask = data.draw(st.integers(min_value=0, max_value=(1 << m.n) - 1))
        expected = oracle.restrict(m, t_mask)
        inside = [
            i for i in m._independent()[m._rank_mask(t_mask)] if i & ~t_mask == 0
        ]
        pos = {old: new for new, old in enumerate(_bits(t_mask))}
        assert sorted(oracle._moved(i, pos) for i in inside) == list(expected.bases)

    @staticmethod
    def assert_closure_table_matches(m):
        """_flats(k) maps each independent k-set to its oracle closure, and
        is empty one past the rank."""
        for k in range(m.rank + 1):
            expected = {
                i: oracle.closure(m, i) for i in oracle.independent_subsets(m, k)
            }
            assert m._flats(k) == expected, k
        assert m._flats(m.rank + 1) == {}

    @settings(max_examples=80, deadline=None)
    @given(small_matroids())
    def test_closure_table_matches_oracle(self, m):
        self.assert_closure_table_matches(m)

    def test_zoo_closure_table_matches_oracle(self):
        for m in matroid_zoo().values():
            self.assert_closure_table_matches(m)

    @staticmethod
    def assert_lattice_matches_breadth_first(m):
        levels = oracle.flats_by_rank(m)
        expected = tuple(tuple(m._labels(f) for f in level) for level in levels)
        assert FlatLattice.of(m).flats_by_rank == expected

    @settings(max_examples=80, deadline=None)
    @given(small_matroids())
    def test_flat_lattice_matches_breadth_first(self, m):
        self.assert_lattice_matches_breadth_first(m)

    def test_zoo_flat_lattice_matches_breadth_first(self):
        for m in matroid_zoo().values():
            self.assert_lattice_matches_breadth_first(m)

    def test_independence_complex_is_capped(self):
        wide = Matroid.from_bases(range(17), [range(17)])
        with pytest.raises(TooLarge, match="independence complex"):
            wide.rank_of([0])


def families(n):
    """Every nonempty family of equal-size subsets of range(n), as masks."""
    for r in range(n + 1):
        sets = [sum(1 << i for i in c) for c in combinations(range(n), r)]
        for pick in range(1, 1 << len(sets)):
            yield [s for i, s in enumerate(sets) if pick >> i & 1]


def validates(n, masks):
    """True iff from_bases accepts the family, False iff it raises
    ExchangeViolation."""
    bases = [list(_bits(b)) for b in masks]
    try:
        Matroid.from_bases(range(n), bases)
    except ExchangeViolation:
        return False
    return True


@st.composite
def basis_families(draw):
    """Families of equal-size subsets of 5-8 elements: an arbitrary family,
    or the bases of a small matroid with one set added or removed, or none."""
    if draw(st.booleans()):
        m = draw(small_matroids().filter(lambda m: m.n >= 5))
        masks = set(m.bases)
        n, r = m.n, m.rank
    else:
        n = draw(st.integers(min_value=5, max_value=8))
        r = draw(st.integers(min_value=0, max_value=n))
        masks = set()
    sets = [sum(1 << i for i in c) for c in combinations(range(n), r)]
    change = draw(st.sampled_from(["none", "add", "remove", "random"]))
    if change == "add":
        masks.add(draw(st.sampled_from(sets)))
    elif change == "remove" and len(masks) > 1:
        masks.discard(draw(st.sampled_from(sorted(masks))))
    elif change == "random" or not masks:
        masks = set(draw(st.lists(st.sampled_from(sets), min_size=1, max_size=12)))
    return n, sorted(masks)


def refused(*args, **kwargs):
    raise AssertionError("the other route was taken")


class TestLinkTest:
    """from_bases validates by one local-augmentation test per face of the
    independence complex, or by the exchange scan when the family has few
    bases for its rank; the exchange scan of the oracle checks both."""

    def test_every_family_on_five_elements(self):
        total = matroids_seen = 0
        for n in range(1, 6):
            for masks in families(n):
                expected = oracle.exchange_holds(masks)
                assert validates(n, masks) == expected, (n, masks)
                complex_ = _down_closure(masks, bin(masks[0]).count("1"))
                assert _links_multipartite(complex_) == expected, (n, masks)
                total += 1
                matroids_seen += expected
        assert (total, matroids_seen) == (2228, 497)

    @settings(max_examples=300, deadline=None)
    @given(basis_families())
    def test_random_families(self, family):
        n, masks = family
        expected = oracle.exchange_holds(masks)
        assert validates(n, masks) == expected
        complex_ = _down_closure(masks, bin(masks[0]).count("1"))
        assert _links_multipartite(complex_) == expected

    def test_violation_names_two_bases(self):
        message = r"exchange fails for bases \[1, 2\] and \[3, 4\]"
        with pytest.raises(ExchangeViolation, match=message):
            Matroid.from_bases([1, 2, 3, 4], [[1, 2], [3, 4]])

    def test_validation_leaves_the_complex_lazy(self):
        m = Matroid.from_bases([0, 1, 2], [[0, 1], [0, 2], [1, 2]])
        assert m._indep is None
        assert m.independent_subsets(1) == [1, 2, 4]

    def test_seventeen_elements_validate(self, monkeypatch):
        monkeypatch.setattr(matroids, "_exchange_failure", refused)
        bases = [list(c) for c in combinations(range(17), 3)]
        m = Matroid.from_bases(range(17), bases)
        assert m.rank == 3 and len(m.bases) == 680
        # two disjoint 8-sets: 2^8 masks against 2 * 8^2 exchange steps
        monkeypatch.undo()
        monkeypatch.setattr(matroids, "_down_closure", refused)
        with pytest.raises(ExchangeViolation):
            Matroid.from_bases(range(17), [range(8), range(8, 16)])

    def test_few_large_bases_take_the_exchange_scan(self, monkeypatch):
        monkeypatch.setattr(matroids, "_down_closure", refused)
        start = time.perf_counter()
        free = Matroid.from_bases(range(30), [range(30)])
        with pytest.raises(ExchangeViolation):
            Matroid.from_bases(range(40), [range(20), range(20, 40)])
        assert time.perf_counter() - start < 1
        assert free.rank == 30

    def test_coloops_and_corank_one_reduce_to_rank_one(self, monkeypatch):
        # U(1, 40) plus 20 coloops, and U(39, 40): after dropping the
        # coloops, or taking complements, the family has rank 1
        monkeypatch.setattr(matroids, "_exchange_failure", refused)
        coloops = list(range(40, 60))
        with_coloops = Matroid.from_bases(range(60), [[e] + coloops for e in range(40)])
        corank_one = Matroid.from_bases(range(40), combinations(range(40), 39))
        assert (with_coloops.rank, corank_one.rank) == (21, 39)

    def test_uniform_7_14_given_as_bases(self):
        start = time.perf_counter()
        m = Matroid.from_bases(range(14), combinations(range(14), 7))
        assert time.perf_counter() - start < 1
        assert len(m.bases) == 3432
