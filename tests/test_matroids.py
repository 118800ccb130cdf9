import time
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import matroid_oracle as oracle
from linalg_oracle import identity, submatrix
from lorentzian_oracle import add, product
from matroid_oracle import multigraphs, small_matroids

from logcavity.errors import LogcavityError, TooLarge
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
    _exchange_failure,
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


@st.composite
def rational_matrices(draw):
    """Matrices of 0 to 4 rows and 1 to 7 columns, with entries of mixed
    denominators; a column is drawn, zero, or a multiple of an earlier one."""
    rows = draw(st.integers(min_value=0, max_value=4))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    columns = []
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        kind = draw(st.sampled_from(["drawn", "zero", "parallel"]))
        if kind == "parallel" and columns:
            c, s = draw(st.sampled_from(columns)), draw(entry.filter(bool))
            columns.append([s * x for x in c])
        else:
            columns.append([draw(entry) if kind == "drawn" else 0 for _ in range(rows)])
    return QMatrix(zip(*columns), len(columns))


def subsets_of(ground):
    for k in range(len(ground) + 1):
        yield from combinations(ground, k)


class TestConstruction:
    def test_uniform_bases(self):
        assert Matroid.from_bases([0, 1, 2], [[0, 1], [0, 2], [1, 2]]) == U23

    def test_exchange_violation(self):
        with pytest.raises(LogcavityError, match="exchange fails for bases"):
            Matroid.from_bases([1, 2, 3, 4], [[1, 2], [3, 4]])

    def test_unequal_sizes(self):
        with pytest.raises(LogcavityError, match=r"bases of different sizes: \[1, 2\]"):
            Matroid.from_bases([1, 2, 3], [[1], [2, 3]])

    def test_empty(self):
        with pytest.raises(LogcavityError, match="must have at least one basis"):
            Matroid.from_bases([1, 2], [])

    def test_unknown_element(self):
        with pytest.raises(LogcavityError, match="basis element 7 not in ground set"):
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
        with pytest.raises(LogcavityError) as excinfo:
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
        zero = Matroid.linear(QMatrix([[0] * 3] * 2), "abc")
        assert zero.bases == (0,) and zero.loops() == {"a", "b", "c"}
        empty = Matroid.linear(QMatrix([]))
        assert empty.ground == () and empty.bases == (0,)

    @settings(max_examples=150, deadline=None)
    @given(rational_matrices())
    def test_linear_matches_fraction_route(self, matrix):
        assert Matroid.linear(matrix).bases == oracle.linear(matrix).bases

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
        assert U23._flats(1) == {1: 1, 2: 2, 4: 4}

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
        # the closure tables on every independent k-set I: cl(I) is the
        # oracle's closure and holds I (C1); it has rank k, and every
        # independent k-set inside it spans it (C2, C3); and y in
        # cl(I + x) - cl(I) puts x in cl(I + y) (C4)
        for m in (U23, Matroid.graphic(k3_graph()), tripled_u23()):
            full = (1 << m.n) - 1
            for k in range(m.rank + 1):
                table, up = m._flats(k), m._flats(k + 1)
                for i, cl in table.items():
                    assert cl == oracle.closure(m, i)
                    assert i & ~cl == 0 and m._rank_mask(cl) == k
                    assert all(table[j] == cl for j in table if j & ~cl == 0)
                    for x in _bits(full & ~cl):  # I + x is independent
                        for y in _bits(up[i | 1 << x] & ~cl):
                            assert up[i | 1 << y] >> x & 1


class TestFlats:
    def test_u23_flats(self):
        assert U23.flats().rank_counts() == [1, 3, 1]

    def test_k23_rank_two_flats(self):
        lattice = Matroid.graphic(k23_graph()).flats()
        assert lattice.rank_counts()[2] == 15

    def test_boolean_all_subsets(self):
        assert sum(Matroid.uniform(3, 3).flats().rank_counts()) == 8

    def test_lattice_ops(self):
        # the meet of two flats is their intersection, which is a flat, and
        # the atoms are the rank-1 flats
        lattice = U23.flats()
        assert frozenset({0, 1, 2}) & frozenset({0}) in lattice.flats_by_rank[1]
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
        assert m._labels(m._flats(1)[m._mask([0])]) == {0, 1, 3}

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
                rebuilt = product(x_e, lift(fcontr, contracted))
                rebuilt = add(rebuilt, lift(fdel, deleted))
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
        with pytest.raises(LogcavityError, match="requires disjoint ground sets"):
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
                    if det(submatrix(matrix, rows, cols)) not in (-1, 0, 1):
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
        assert self.unimodular_coordinatization(m, identity(3))

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
    """Greedy rank and independence equal the max-over-bases routes on every
    mask, the closure tables equal them on every independent set, and the
    independent k-sets equal the subsets of bases."""
    levels = m._independent()
    for mask in range(1 << m.n):
        labels = m._labels(mask)
        assert m.rank_of(labels) == oracle.rank(m, mask), mask
        independent = mask in levels[min(mask.bit_count(), m.rank + 1)]
        assert independent == oracle.is_independent(m, mask), mask
    for k in range(m.rank + 1):
        for mask, flat in m._flats(k).items():
            assert flat == oracle.closure(m, mask), mask
    for k in range(m.n + 2):
        assert m.independent_subsets(k) == oracle.independent_subsets(m, k), k


class TestGraphicForests:
    """The graphic constructor grows each forest once and keeps the levels
    as the independence complex; the oracle scans every subset of the edges
    of the forest rank and takes the subsets of the bases. The graphs are
    those `small_matroids()` draws, with up to 10 edges."""

    @staticmethod
    def assert_forests_match_scan(graph):
        m = Matroid.graphic(graph)
        assert list(m.bases) == oracle.forest_bases(graph)
        levels = m._indep
        assert len(levels) == m.rank + 2 and not levels[-1]
        for k in range(m.rank + 1):
            assert sorted(levels[k]) == oracle.independent_subsets(m, k), k

    @settings(max_examples=150, deadline=None)
    @given(multigraphs(max_edges=10))
    def test_forests_match_subset_scan(self, graph):
        self.assert_forests_match_scan(graph)

    def test_named_graphs_and_edge_cases(self):
        for graph in (
            k4_graph(),
            k23_graph(),
            Graph(3, ((0, 1), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2))),
            Graph(1, ((0, 0), (0, 0))),  # only loops: rank 0
            Graph(0, ()),
            Graph(9, ((7, 3), (3, 8), (8, 7), (7, 3))),  # vertices 0-2, 4-6 unused
        ):
            self.assert_forests_match_scan(graph)


class TestCloneClasses:
    @settings(max_examples=120, deadline=None)
    @given(small_matroids())
    def test_classes_match_every_transposition(self, m):
        assert m.clone_classes() == oracle.clone_classes(m)

    def test_named_classes(self):
        # every element of U(r, n) is a clone of every other; parallel edges
        # are clones, and so are the loops, and the coloops
        assert Matroid.uniform(3, 6).clone_classes() == (0,) * 6
        graph = Graph(4, ((0, 1), (1, 2), (0, 1), (2, 0), (3, 3), (2, 3), (1, 1)))
        assert Matroid.graphic(graph).clone_classes() == (0, 1, 0, 1, 4, 5, 4)


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
    """True iff from_bases accepts the family, False iff it rejects it for
    failing the exchange axiom; any other error propagates."""
    bases = [list(_bits(b)) for b in masks]
    try:
        Matroid.from_bases(range(n), bases)
    except LogcavityError as e:
        if not str(e).startswith("exchange fails for bases "):
            raise
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

    def test_exchange_scan_names_the_oracle_pair(self):
        for n in range(1, 6):
            for masks in families(n):
                assert _exchange_failure(masks) == oracle.exchange_failure(masks)

    @settings(max_examples=300, deadline=None)
    @given(basis_families())
    def test_exchange_scan_on_random_families(self, family):
        _, masks = family
        assert _exchange_failure(masks) == oracle.exchange_failure(masks)

    def test_violation_names_two_bases(self):
        message = r"exchange fails for bases \[1, 2\] and \[3, 4\]"
        with pytest.raises(LogcavityError, match=message):
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
        with pytest.raises(LogcavityError, match="exchange fails for bases"):
            Matroid.from_bases(range(17), [range(8), range(8, 16)])

    def test_few_large_bases_take_the_exchange_scan(self, monkeypatch):
        monkeypatch.setattr(matroids, "_down_closure", refused)
        start = time.perf_counter()
        free = Matroid.from_bases(range(30), [range(30)])
        with pytest.raises(LogcavityError, match="exchange fails for bases"):
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
