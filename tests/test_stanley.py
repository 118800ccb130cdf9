import math
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcavity.errors import LogcavityError
from logcavity.linalg import (
    Graph,
    reduced_incidence_matrix,
    spanning_tree_count,
)
from logcavity.matroids import Matroid
from logcavity.polynomials import MPoly
from logcavity.stanley import (
    B_count,
    _constant_ratio,
    _fresh_boolean,
    _transversal_sums,
    g_polynomial,
    mason_sequence,
    mixed_volume_zonotopes,
    parallel_replicate,
    ratio_condition_check,
    stanley_matroid_sequence,
    zonotope_volume,
)
from logcavity.zoo import (
    doubled_k3_graph,
    k3_graph,
    k4_graph,
    matroid_zoo,
    random_connected_multigraph,
)
from matroid_oracle import small_matroids
from stanley_oracle import (
    mixed_volume_by_inversion,
    transversal_sum_by_combinations,
    zonotope_volume_by_subsets,
)

U23 = Matroid.uniform(2, 3)


def brute_force_tuples(m, tuple_spec):
    """Oracle: literally enumerate ordered tuples whose set is a basis."""
    pools = []
    for subset, mult in tuple_spec:
        pools.extend([list(subset)] * mult)
    count = 0
    basis_sets = m.basis_label_sets()
    for tup in product(*pools):
        if frozenset(tup) in basis_sets and len(set(tup)) == len(tup):
            count += 1
    return count


class TestBCount:
    def test_u23_full_ground(self):
        full = list(U23.ground)
        assert B_count(U23, [(full, 1), (full, 1)]) == 6

    def test_rank_factorial_identity(self):
        for m in (U23, Matroid.graphic(k3_graph())):
            full = list(m.ground)
            assert B_count(m, [(full, m.rank)]) == (
                math.factorial(m.rank) * len(m.bases)
            )

    def test_bad_multiplicities(self):
        with pytest.raises(LogcavityError, match="multiplicities sum to 1, rank is 2"):
            B_count(U23, [([0, 1], 1)])

    def test_matches_brute_force(self, rng):
        for _ in range(12):
            g = random_connected_multigraph(rng, max_vertices=4, max_edges=6)
            m = Matroid.graphic(g)
            edges = list(m.ground)
            rng.shuffle(edges)
            cut = rng.randint(0, len(edges))
            r_side, q_side = edges[:cut], edges[cut:]
            k = rng.randint(0, m.rank)
            spec = []
            if k:
                spec.append((r_side, k))
            if m.rank - k:
                spec.append((q_side, m.rank - k))
            assert B_count(m, spec) == brute_force_tuples(m, spec)

    def test_matches_g_polynomial(self, rng):
        m = Matroid.graphic(k4_graph())
        r_side = [0, 1, 2]
        q_side = [3, 4, 5]
        g = g_polynomial(m, [r_side, q_side])
        r = m.rank
        for k in range(r + 1):
            spec = []
            if k:
                spec.append((r_side, k))
            if r - k:
                spec.append((q_side, r - k))
            lhs = B_count(m, spec)
            rhs = g.coefficient((k, r - k)) * math.factorial(k) * math.factorial(r - k)
            assert lhs == rhs


class TestSequences:
    def test_u23_single_element(self):
        seq = stanley_matroid_sequence(U23, [0])
        assert seq.counts == (1, 2, 0)

    def test_k4_triangle_split(self):
        g = k4_graph()
        m = Matroid.graphic(g)
        triangle = [
            i for i, (u, v) in enumerate(g.edges) if u != 3 and v != 3
        ]
        seq = stanley_matroid_sequence(m, triangle)
        # frozen from direct enumeration of the 16 spanning trees
        assert seq.counts == (1, 6, 9, 0)
        assert seq.log_concave()

    def test_sum_is_basis_count(self, rng):
        for _ in range(10):
            g = random_connected_multigraph(rng, 5, 8)
            m = Matroid.graphic(g)
            r_side = [e for e in m.ground if rng.random() < 0.5]
            seq = stanley_matroid_sequence(m, r_side)
            assert sum(seq.counts) == len(m.bases)

    def test_ultra_log_concave_random(self, rng):
        for _ in range(25):
            g = random_connected_multigraph(rng, 5, 8)
            m = Matroid.graphic(g)
            r_side = [e for e in m.ground if rng.random() < 0.5]
            assert stanley_matroid_sequence(m, r_side).log_concave()

    @settings(max_examples=80, deadline=None)
    @given(small_matroids(), st.data())
    def test_g_polynomial_counts_bases_by_split(self, m, data):
        # the coefficient of y_R^k y_Q^(r-k) counts the bases meeting R in k
        r_side = [e for e in m.ground if data.draw(st.booleans())]
        q_side = [e for e in m.ground if e not in r_side]
        counts = stanley_matroid_sequence(m, r_side).counts
        terms = {(k, m.rank - k): n for k, n in enumerate(counts) if n}
        assert g_polynomial(m, [r_side, q_side]) == MPoly(2, terms)

    @pytest.mark.parametrize("s", [0, 1, 3])
    def test_g_polynomial_of_no_elements_is_one(self, s):
        # f = 1 in no variables, and its substitution by a 0 x s matrix is 1
        m = Matroid.uniform(0, 0)
        assert g_polynomial(m, [[]] * s) == MPoly(s, {(0,) * s: 1})


class TestRatioCondition:
    def test_one_one_split(self):
        m, r_labels = parallel_replicate(U23, 1, 1)
        verdict = ratio_condition_check(m, r_labels)
        assert verdict.holds and verdict.ratio == 1

    def test_singleton_classes_fail(self):
        assert not ratio_condition_check(U23, [0]).holds

    def test_tripled_one_two(self):
        m, r_labels = parallel_replicate(U23, 1, 2)
        verdict = ratio_condition_check(m, r_labels)
        assert verdict.holds and verdict.ratio == Fraction(1, 2)
        seq = stanley_matroid_sequence(m, r_labels)
        nt = seq.normalized
        assert all(nt[k] == Fraction(1, 2) * nt[k - 1] for k in range(1, len(nt)))

    def test_loop_rejected(self):
        m = matroid_zoo()["with_loop"]
        with pytest.raises(LogcavityError, match="stated for loopless matroids"):
            ratio_condition_check(m, [0])

    def test_step_theorem_many_splits(self, rng):
        bases = [U23, Matroid.uniform(1, 2), Matroid.graphic(k3_graph())]
        for base in bases:
            for r_copies, q_copies in ((1, 1), (2, 1), (1, 3), (2, 3)):
                m, r_labels = parallel_replicate(base, r_copies, q_copies)
                verdict = ratio_condition_check(m, r_labels)
                assert verdict.holds
                nt = stanley_matroid_sequence(m, r_labels).normalized
                assert all(
                    nt[k] == verdict.ratio * nt[k - 1]
                    for k in range(1, len(nt))
                )


class TestGraphicEquality:
    """The equality trichotomy for the spanning-tree counting sequence of a
    connected loopless multigraph under an edge bipartition R, Q with both
    classes spanning: (a) equality at some k, (b) equality at every k and
    (c) one R:Q edge-multiplicity ratio across adjacent vertex pairs."""

    @staticmethod
    def trichotomy(graph, r_indices):
        """(a, b, c, ratio), or None when a class spans no tree."""
        m = Matroid.graphic(graph)
        r_set = frozenset(r_indices)
        q_set = frozenset(range(len(graph.edges))) - r_set
        if m.rank_of(r_set) != m.rank or m.rank_of(q_set) != m.rank:
            return None
        seq = stanley_matroid_sequence(m, r_set)
        eq = seq.equality_indices()
        pair_counts = {}  # vertex pair -> [edges in R, edges in Q]
        for idx, (u, v) in enumerate(graph.edges):
            counts = pair_counts.setdefault((min(u, v), max(u, v)), [0, 0])
            counts[idx not in r_set] += 1
        c_holds, ratio = _constant_ratio(pair_counts.values())
        return bool(eq), len(eq) == max(len(seq.normalized) - 2, 0), c_holds, ratio

    def test_doubled_k3_ratio_one(self):
        g = doubled_k3_graph()
        assert self.trichotomy(g, [0, 2, 4]) == (True, True, True, 1)

    def test_k4_path_split_fails(self):
        g = k4_graph()
        # R = a Hamiltonian path; the complement is also spanning
        assert self.trichotomy(g, [0, 3, 5]) == (False, False, False, None)

    def test_three_vertex_family(self, rng):
        # multigraph family on 3 vertices: equivalence of the three conditions
        checked = 0
        for m01, m02, m12 in product(range(1, 4), repeat=3):
            edges = (
                [(0, 1)] * m01 + [(0, 2)] * m02 + [(1, 2)] * m12
            )
            g = Graph(3, tuple(edges))
            for r_mask in range(1, 2 ** len(edges) - 1):
                r_idx = [i for i in range(len(edges)) if r_mask >> i & 1]
                verdict = self.trichotomy(g, r_idx)
                if verdict is None:
                    continue
                assert verdict[0] == verdict[1] == verdict[2]
                checked += 1
            if checked > 400:
                break
        assert checked > 50

    def test_equivalence_random(self, rng):
        checked = 0
        while checked < 40:
            g = random_connected_multigraph(rng, 4, 7)
            if g.has_loop:
                continue
            m = Matroid.graphic(g)
            edges = list(range(len(g.edges)))
            rng.shuffle(edges)
            r_idx = edges[: rng.randint(1, len(edges) - 1)]
            verdict = self.trichotomy(g, r_idx)
            if verdict is None:
                continue
            assert verdict[0] == verdict[1] == verdict[2]
            checked += 1


class TestZonotopes:
    def test_unit_cube(self):
        assert zonotope_volume([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1

    def test_k3_zonotope(self):
        assert zonotope_volume([(1, 0), (0, 1), (1, 1)]) == 3

    def test_incidence_columns_count_trees(self, rng):
        for _ in range(10):
            g = random_connected_multigraph(rng, 5, 8)
            if g.has_loop:
                continue
            ri = reduced_incidence_matrix(g)
            cols = [tuple(ri.column(j)) for j in range(ri.cols)]
            assert zonotope_volume(cols) == spanning_tree_count(g)

    def test_segment_mixed_volume(self):
        assert mixed_volume_zonotopes([[(1, 0)], [(0, 1)]]) == Fraction(1, 2)

    def test_bipartition_routes(self):
        g = k3_graph()
        m = Matroid.graphic(g)
        ri = reduced_incidence_matrix(g)
        cols = [tuple(ri.column(j)) for j in range(ri.cols)]
        t1, t2 = [cols[0]], [cols[1], cols[2]]
        v = mixed_volume_zonotopes([t1, t2])
        assert 2 * v == B_count(m, [([0], 1), ([1, 2], 1)])

    def test_all_equal_consistency(self):
        g = k3_graph()
        m = Matroid.graphic(g)
        ri = reduced_incidence_matrix(g)
        cols = [tuple(ri.column(j)) for j in range(ri.cols)]
        v = mixed_volume_zonotopes([cols, cols])
        assert math.factorial(2) * v == math.factorial(2) * len(m.bases)


ENTRY = st.one_of(
    st.integers(min_value=-2, max_value=2),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)


@st.composite
def zonotope_lists(draw, dims=st.integers(min_value=0, max_value=4)):
    """r lists of vectors in dimension r, r <= 4. The vectors come from a
    small pool with the zero vector in it, and the lists from a pool of at
    most three, so vectors repeat within a list and lists repeat; a list
    may be empty."""
    r = draw(dims)
    vectors = draw(st.lists(st.tuples(*[ENTRY] * r), min_size=1, max_size=3))
    vectors.append((0,) * r)
    vector_lists = draw(
        st.lists(st.lists(st.sampled_from(vectors), max_size=3), min_size=1, max_size=3)
    )
    return [draw(st.sampled_from(vector_lists)) for _ in range(r)]


class TestTransversalFormula:
    @settings(max_examples=120, deadline=None)
    @given(zonotope_lists())
    def test_matches_inversion_formula(self, lists):
        assert mixed_volume_zonotopes(lists) == mixed_volume_by_inversion(lists)

    @settings(max_examples=40, deadline=None)
    @given(zonotope_lists(dims=st.integers(min_value=1, max_value=4)))
    def test_zonotope_volume_matches_subsets(self, lists):
        vectors = [v for t in lists for v in t]
        assert zonotope_volume(vectors) == zonotope_volume_by_subsets(vectors)

    @settings(max_examples=20, deadline=None)
    @given(zonotope_lists(dims=st.integers(min_value=1, max_value=3)), st.data())
    def test_wrong_dimension_is_rejected(self, lists, data):
        i = data.draw(st.integers(min_value=0, max_value=len(lists) - 1))
        lists[i] = list(lists[i]) + [(1,) * (len(lists) + 1)]
        for route in (mixed_volume_zonotopes, mixed_volume_by_inversion):
            with pytest.raises(LogcavityError, match="ambient dimension must equal"):
                route(lists)

    def test_no_zonotopes(self):
        # the bare transversal sum would give the 0 x 0 determinant, 1
        assert mixed_volume_zonotopes([]) == 0 == mixed_volume_by_inversion([])

    def test_repeated_lists_weight(self):
        # V(Z, Z) = vol(Z) for the unit square Z: needs the weight 2! of the
        # repeated list
        square = [(1, 0), (0, 1)]
        assert mixed_volume_zonotopes([square, square]) == 1
        cube = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert mixed_volume_zonotopes([cube] * 3) == 1
        assert mixed_volume_zonotopes([cube, cube, [(0, 0, 2)]]) == Fraction(2, 3)


@st.composite
def transversal_groups(draw):
    """(groups, n): up to three groups (vectors, cap) in dimension n <= 4,
    the caps summing to n and possibly 0. The vectors come from a small
    pool holding the zero vector and the sum of two pool vectors, so they
    repeat and depend on each other; a group may be empty."""
    n = draw(st.integers(min_value=0, max_value=4))
    pool = draw(st.lists(st.tuples(*[ENTRY] * n), min_size=1, max_size=3))
    pool += [(0,) * n, tuple(a + b for a, b in zip(pool[0], pool[-1]))]
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=2)))
    caps = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    vectors = st.lists(st.sampled_from(pool), max_size=5)
    return [(draw(vectors), cap) for cap in caps], n


class TestDepthFirstEngine:
    """`_transversal_sums` against one determinant per combination of rows
    (`stanley_oracle.transversal_sum_by_combinations`) and per index subset
    (`zonotope_volume_by_subsets`)."""

    @settings(max_examples=150, deadline=None)
    @given(transversal_groups())
    def test_matches_one_determinant_per_combination(self, case):
        groups, n = case
        tally, scale = _transversal_sums(groups, n)
        caps = tuple(cap for _, cap in groups)
        assert Fraction(tally[caps], scale) == transversal_sum_by_combinations(groups)
        # the caps sum to n, so no other count vector fits within them
        assert set(tally) <= {caps}

    @settings(max_examples=60, deadline=None)
    @given(transversal_groups())
    def test_one_group_is_the_zonotope_volume(self, case):
        groups, n = case
        vectors = [v for vs, _ in groups for v in vs]
        tally, scale = _transversal_sums([(vectors, n)], n)
        # with no vectors only the empty matrix, n = 0, has a determinant
        expected = zonotope_volume_by_subsets(vectors) if vectors else int(n == 0)
        assert Fraction(tally[n,], scale) == expected

    def test_no_zonotopes(self):
        # the empty product has one term, the 0 x 0 determinant 1
        assert _transversal_sums([], 0) == ({(): 1}, 1)
        assert transversal_sum_by_combinations([]) == 1

    @settings(max_examples=60, deadline=None)
    @given(zonotope_lists(dims=st.integers(min_value=1, max_value=4)), st.data())
    def test_split_tally_matches_each_mixed_volume(self, lists, data):
        # one pass over T_R then T_Q, tallied by the rows taken from T_R,
        # gives every mixed volume V(Z(T_R) k times, Z(T_Q) r - k times)
        r = len(lists)
        t_r, t_q = lists[0], data.draw(st.sampled_from(lists))
        tally, scale = _transversal_sums([(t_r, r), (t_q, r)], r)
        for k in range(r + 1):
            w = math.factorial(k) * math.factorial(r - k)
            assert Fraction(w * tally[k, r - k], scale * math.factorial(r)) == (
                mixed_volume_zonotopes([t_r] * k + [t_q] * (r - k))
            )


class TestMason:
    def test_u23(self):
        rep = mason_sequence(U23)
        assert rep.independent_counts == (1, 3, 3)
        assert rep.log_concave and rep.construction_identity

    def test_boolean3(self):
        rep = mason_sequence(Matroid.uniform(3, 3))
        assert rep.independent_counts == (1, 3, 3, 1)

    def test_random_graphic(self, rng):
        for _ in range(6):
            g = random_connected_multigraph(rng, 4, 6)
            m = Matroid.graphic(g)
            rep = mason_sequence(m)
            assert rep.log_concave and rep.construction_identity

    def test_fresh_labels_avoid_the_ground(self):
        # the boolean summand skips "aux" and "aux0", which the ground holds
        m = Matroid(("aux", "aux0", "c"), [0b011, 0b101, 0b110])
        assert _fresh_boolean(m, 2).ground == ("aux1", "aux2")
        rep = mason_sequence(m)
        assert rep.independent_counts == (1, 3, 3)
        assert rep.construction_identity


class TestMinkowskiRoute:
    """For the normalized sequence with positive ends, Minkowski-style end
    equality, equality at some k and equality at every k agree."""

    @staticmethod
    def assert_routes_agree(m, R):
        seq = stanley_matroid_sequence(m, R)
        nt = seq.normalized
        r = len(nt) - 1
        assert nt[0] and nt[r]
        minkowski = nt[1] ** r == nt[0] ** (r - 1) * nt[r]
        eq = seq.equality_indices()
        assert minkowski == bool(eq) == (len(eq) == r - 1)

    def test_ratio_family_true(self):
        m, r_labels = parallel_replicate(U23, 1, 2)
        self.assert_routes_agree(m, r_labels)

    def test_k4_split_consistent(self):
        g = k4_graph()
        m = Matroid.graphic(g)
        # R a Hamiltonian path, Q = the complementary path
        self.assert_routes_agree(m, [0, 3, 5])

    def test_doubled_graphic_true(self):
        m = Matroid.graphic(doubled_k3_graph())
        self.assert_routes_agree(m, [0, 2, 4])
