from contextlib import nullcontext
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import poset_oracle as oracle
from logcavity import posets
from logcavity.errors import InvalidMarks, InvalidPoset, TooLarge, ZeroAtIndex
from logcavity.posets import (
    DEFAULT_EXTENSION_CAP,
    MarkedPoset,
    Poset,
    extension_extremes,
    kahn_saks_extremal_classify,
    kahn_saks_positivity,
    kahn_saks_sequence,
    midway_check,
    region_partition,
    stanley_all_positions,
    stanley_equality_classify,
    stanley_sequence,
)
from logcavity.zoo import random_marks, random_poset, ratio_two_witness_poset
from poset_oracle import antichain, has_bounds, normalize

CHAIN3 = Poset.chain(["a", "b", "c"])
ANTI3 = antichain(["x", "y", "z"])


def fixed_rank_count(p, labels, positions, cap=DEFAULT_EXTENSION_CAP):
    """Extensions placing each labelled element at its position, by the
    lattice's forward pass, which `stanley_equality_classify` and
    `extension_extremes` run."""
    fixed = dict(zip((p.index(e) for e in labels), positions))
    return p._ideals(cap).fixed_rank_count(fixed)


def gap_counts_raw(p, x, y, upper):
    """Oracle: gap histogram over raw extensions with f(x) < f(y)."""
    xi, yi = p.index(x), p.index(y)
    counts = [0] * (upper + 1)
    for order in p.extensions():
        gap = order.index(yi) - order.index(xi)
        if gap > 0:
            counts[gap] += 1
    return counts[1:]


def reachable(n, relations):
    """reach[i]: the mask of the elements reachable from i along the raw
    relations, i included, by depth-first search."""
    reach = []
    for i in range(n):
        seen, todo = {i}, [i]
        while todo:
            a = todo.pop()
            for x, y in relations:
                if x == a and y not in seen:
                    seen.add(y)
                    todo.append(y)
        reach.append(sum(1 << j for j in seen))
    return reach


@st.composite
def relation_lists(draw):
    """(n, relations on range(n)) for n <= 8: arbitrary pairs, cycles likely,
    or pairs that follow a random order of the elements, so none."""
    n = draw(st.integers(min_value=0, max_value=8))
    if n == 0:
        return 0, []
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        pairs = pairs.map(lambda ab: (order[min(ab)], order[max(ab)]))
    return n, draw(st.lists(pairs, max_size=14))


class TestPosetBasics:
    @settings(max_examples=300, deadline=None)
    @given(relation_lists())
    @example((4, [(0, 2), (2, 1), (1, 3)]))  # a row pass in order misses 0 < 3
    @example((3, [(0, 1), (1, 2), (2, 0)]))
    def test_closure_matches_reachability(self, case):
        n, relations = case
        reach = reachable(n, relations)
        pairs = [(i, j) for i in range(n) for j in range(i)]
        if any(reach[i] >> j & 1 and reach[j] >> i & 1 for i, j in pairs):
            with pytest.raises(InvalidPoset, match="antisymmetry"):
                Poset.from_relations(range(n), relations)
            return
        p = Poset.from_relations(range(n), relations)
        assert list(p.up) == reach
        assert all(
            p.down[j] >> i & 1 == reach[i] >> j & 1 for i in range(n) for j in range(n)
        )

    def test_cycle_rejected(self):
        with pytest.raises(InvalidPoset):
            Poset.from_relations([1, 2, 3], [(1, 2), (2, 3), (3, 1)])

    def test_duplicate_labels(self):
        with pytest.raises(InvalidPoset):
            Poset.from_relations([1, 1], [])

    def test_transitive_closure(self):
        p = Poset.from_relations([1, 2, 3], [(1, 2), (2, 3)])
        assert p.leq(1, 3)

    def test_chain_single_extension(self):
        assert CHAIN3.count_extensions() == 1

    def test_antichain_all_permutations(self):
        assert ANTI3.count_extensions() == 6

    def test_order_polytope_volume_identity(self):
        # volume of the order polytope of the 2-antichain is the unit square
        p = antichain(["a", "b"])
        e = p.count_extensions()
        assert e == 2
        assert Fraction(e, 2) == 1  # e(P)/n! = Vol([0,1]^2)

    def test_extension_cap(self):
        with pytest.raises(TooLarge, match=r"cap 100 \(raise it with --cap-extensions\)"):
            antichain(range(6)).count_extensions(cap=100)

    def test_covers_regenerate(self):
        p = Poset.from_relations([1, 2, 3, 4], [(1, 2), (2, 4), (1, 3)])
        covers = {(p.labels[i], p.labels[j]) for i, j in p.covers()}
        assert covers == {(1, 2), (2, 4), (1, 3)}
        again = Poset.from_relations(p.labels, covers)
        assert all(again.up[i] == p.up[i] for i in range(p.n))


class TestStanleySequence:
    def test_antichain(self):
        assert stanley_sequence(ANTI3, "x") == [2, 2, 2]

    def test_chain_middle(self):
        assert stanley_sequence(CHAIN3, "b") == [0, 1, 0]

    def test_sum_is_extension_count(self, rng):
        for _ in range(20):
            p = random_poset(rng, rng.randint(2, 6))
            seq = stanley_sequence(p, p.labels[0])
            assert sum(seq) == p.count_extensions()

    def test_log_concavity_random(self, rng):
        for _ in range(60):
            p = random_poset(rng, rng.randint(3, 8))
            for x in p.labels:
                seq = stanley_sequence(p, x)
                for k in range(1, len(seq) - 1):
                    assert seq[k] ** 2 >= seq[k - 1] * seq[k + 1]


class TestStanleyChain:
    def test_reduces_to_sequence(self):
        seq = stanley_sequence(ANTI3, "x")
        for i in range(1, 4):
            assert fixed_rank_count(ANTI3, ["x"], [i]) == seq[i - 1]

    def test_incompatible_positions_zero(self):
        p = Poset.from_relations([1, 2, 3], [(1, 2)])
        assert fixed_rank_count(p, [1, 2], [2, 2]) == 0
        assert fixed_rank_count(p, [1, 2], [3, 1]) == 0

    def test_not_a_chain(self):
        # the pass fixes any set of elements, comparable or not
        assert fixed_rank_count(ANTI3, ["x", "y"], [1, 2]) == 1
        assert fixed_rank_count(ANTI3, ["y", "x"], [3, 1]) == 1
        assert fixed_rank_count(ANTI3, ["x", "y", "z"], [1, 1, 3]) == 0

    def test_general_log_concavity(self, rng):
        for _ in range(25):
            p = random_poset(rng, rng.randint(4, 7))
            n = p.n
            chains = [
                (a, b)
                for a in p.labels
                for b in p.labels
                if a != b and p.lt(a, b)
            ]
            if not chains:
                continue
            a, b = rng.choice(chains)
            table = {}
            for order in p.extensions():
                pa = order.index(p.index(a)) + 1
                pb = order.index(p.index(b)) + 1
                table[(pa, pb)] = table.get((pa, pb), 0) + 1
            for (i1, i2), count in table.items():
                # interior wiggle of the first coordinate
                if 0 + 1 < i1 < i2 - 1:
                    lo = table.get((i1 - 1, i2), 0)
                    hi = table.get((i1 + 1, i2), 0)
                    assert count * count >= lo * hi


class TestStanleyEquality:
    def test_antichain_all_hold(self):
        v = stanley_equality_classify(ANTI3, "x", 2)
        assert v.holds_a and v.holds_b and v.holds_c and v.holds_d

    def test_boundary_all_false(self):
        v = stanley_equality_classify(CHAIN3, "a", 1)
        assert not (v.holds_a or v.holds_b or v.holds_c or v.holds_d)

    def test_zero_at_index(self):
        with pytest.raises(ZeroAtIndex):
            stanley_equality_classify(CHAIN3, "b", 1)

    def test_positivity_criterion(self, rng):
        # N_i = 0 iff |P<x| > i-1 or |P>x| > n-i
        for _ in range(40):
            p = random_poset(rng, rng.randint(2, 7))
            n = p.n
            for x in p.labels:
                seq = stanley_sequence(p, x)
                xi = p.index(x)
                below = bin(p.strict_down_mask(xi)).count("1")
                above = bin(p.strict_up_mask(xi)).count("1")
                for i in range(1, n + 1):
                    predicted_zero = below > i - 1 or above > n - i
                    assert predicted_zero == (seq[i - 1] == 0)

    def test_equivalence_random(self, rng):
        checked = 0
        while checked < 120:
            p = random_poset(rng, rng.randint(3, 8))
            n = p.n
            for x in p.labels:
                seq = stanley_sequence(p, x)
                for i in range(2, n):
                    if seq[i - 1] == 0:
                        continue
                    v = stanley_equality_classify(p, x, i)
                    assert v.holds_a == v.holds_b == v.holds_c == v.holds_d
                    checked += 1


class TestNormalize:
    def test_antichain_two(self):
        p = antichain(["x", "y"])
        nm = normalize(MarkedPoset(p, "x", "y"))
        assert nm.poset.n == 4
        assert nm.poset.lt("x", "y")
        assert has_bounds(nm.poset)

    def test_idempotent(self):
        nm = normalize(MarkedPoset(ANTI3, "x", "y"))
        again = normalize(nm)
        assert again.poset.labels == nm.poset.labels
        assert again.poset.up == nm.poset.up

    def test_invalid_marks(self):
        with pytest.raises(InvalidMarks):
            MarkedPoset(CHAIN3, "b", "a")
        with pytest.raises(InvalidMarks):
            MarkedPoset(CHAIN3, "a", "a")

    def test_sequence_invariance(self, rng):
        for _ in range(40):
            p = random_poset(rng, rng.randint(2, 7))
            x, y = random_marks(rng, p)
            mp = MarkedPoset(p, x, y)
            raw = gap_counts_raw(p, x, y, p.n)
            normalized = kahn_saks_sequence(mp)
            assert normalized == raw[: len(normalized)]
            assert all(v == 0 for v in raw[len(normalized):])


class TestKahnSaks:
    def test_antichain(self):
        assert kahn_saks_sequence(MarkedPoset(ANTI3, "x", "y")) == [2, 1]

    def test_covering_chain(self):
        mp = MarkedPoset(Poset.chain(["x", "y"]), "x", "y")
        assert kahn_saks_sequence(mp) == [1]

    def test_witness_sequence(self):
        assert kahn_saks_sequence(ratio_two_witness_poset())[:3] == [1, 2, 4]

    def test_positivity_examples(self):
        mp = MarkedPoset(ANTI3, "x", "y")
        assert kahn_saks_positivity(mp, 1) == (False, "positive")
        zero, reason = kahn_saks_positivity(mp, 3)
        assert zero

    def test_positivity_matches_enumeration(self, rng):
        for _ in range(40):
            p = random_poset(rng, rng.randint(2, 7))
            x, y = random_marks(rng, p)
            mp = MarkedPoset(p, x, y)
            seq = kahn_saks_sequence(mp)
            for k in range(1, len(seq) + 1):
                zero, _ = kahn_saks_positivity(mp, k)
                assert zero == (seq[k - 1] == 0)

    def test_log_concave_random(self, rng):
        for _ in range(40):
            p = random_poset(rng, rng.randint(2, 7))
            x, y = random_marks(rng, p)
            seq = kahn_saks_sequence(MarkedPoset(p, x, y))
            for k in range(1, len(seq) - 1):
                assert seq[k] ** 2 >= seq[k - 1] * seq[k + 1]

    def test_sum_counts_below_extensions(self, rng):
        for _ in range(20):
            p = random_poset(rng, rng.randint(2, 6))
            x, y = random_marks(rng, p)
            seq = kahn_saks_sequence(MarkedPoset(p, x, y))
            xi, yi = p.index(x), p.index(y)
            below = sum(
                1
                for order in p.extensions()
                if order.index(xi) < order.index(yi)
            )
            assert sum(seq) == below


class TestMidway:
    def test_vacuous_first_bullet(self):
        # the only element above x is y itself, so the first midway bullet
        # quantifies over an empty range and only the z < x bullet matters
        p = Poset.from_relations(["x", "y", "w"], [("x", "y"), ("w", "y")])
        mp = MarkedPoset(p, "x", "y")
        assert midway_check(mp, 1)["midway"]
        seq = kahn_saks_sequence(mp)
        assert seq[0] == seq[1] > 0  # consistent with the equality theorem

    def test_chain_dual_fails_at_k1(self):
        mp = MarkedPoset(Poset.chain(["b", "x", "y", "t"]), "x", "y")
        verdict = midway_check(mp, 1)
        assert not verdict["dual_midway"]

    def test_flat_run_biconditional_random(self, rng):
        checked = 0
        while checked < 80:
            p = random_poset(rng, rng.randint(2, 7))
            x, y = random_marks(rng, p)
            mp = MarkedPoset(p, x, y)
            seq = kahn_saks_sequence(mp)
            for k in range(2, len(seq)):
                if seq[k - 1] == 0:
                    continue
                equal_flat = seq[k - 2] == seq[k - 1] == seq[k]
                verdict = midway_check(mp, k)
                assert equal_flat == (
                    verdict["midway"] or verdict["dual_midway"]
                )
                checked += 1


class TestExtremalClassify:
    def test_witness_ratio_two(self):
        v = kahn_saks_extremal_classify(ratio_two_witness_poset(), 2)
        assert v.equality and v.ratio == 2 and all(v.ratio_two_conditions)

    def test_flat_family_ratio_one(self):
        # 2-antichain marks: N = [2, 1]; build a poset with a flat stretch
        p = Poset.from_relations(
            ["x", "y", "a", "b"], [("x", "y")]
        )
        mp = MarkedPoset(p, "x", "y")
        seq = kahn_saks_sequence(mp)
        for k in range(2, len(seq)):
            if seq[k - 1] and seq[k - 2] == seq[k - 1] == seq[k]:
                v = kahn_saks_extremal_classify(mp, k)
                assert v.ratio == 1

    def test_zero_raises(self):
        mp = MarkedPoset(Poset.chain(["b", "x", "y", "t"]), "x", "y")
        with pytest.raises(ZeroAtIndex):
            kahn_saks_extremal_classify(mp, 2)

    def test_ratio_dichotomy_random(self, rng):
        checked = 0
        while checked < 60:
            p = random_poset(rng, rng.randint(2, 7))
            x, y = random_marks(rng, p)
            mp = MarkedPoset(p, x, y)
            seq = kahn_saks_sequence(mp)
            for k in range(2, len(seq)):
                if seq[k - 1] == 0:
                    continue
                v = kahn_saks_extremal_classify(mp, k)
                if v.equality:
                    assert v.ratio in (1, 2)
                ratio_two = (
                    seq[k] == 2 * seq[k - 1] and seq[k - 1] == 2 * seq[k - 2]
                )
                assert ratio_two == all(v.ratio_two_conditions)
                checked += 1


class TestExtremes:
    def test_chain(self):
        mp = MarkedPoset(Poset.chain(["b", "x", "m", "y", "t"]), "x", "y")
        out = extension_extremes(mp)
        assert out["min_gap"] == out["narrow_target"] == 2

    def test_antichain(self):
        out = extension_extremes(MarkedPoset(ANTI3, "x", "y"))
        assert out["min_gap"] == 1 and out["wide_exists"]

    def test_random_identities(self, rng):
        for _ in range(30):
            p = random_poset(rng, rng.randint(2, 7))
            x, y = random_marks(rng, p)
            out = extension_extremes(MarkedPoset(p, x, y))
            assert out["min_gap"] == out["narrow_target"]
            assert out["wide_exists"]


class TestRegions:
    def test_chain_mid(self):
        mp = MarkedPoset(Poset.chain(["b", "x", "m", "y", "t"]), "x", "y")
        r = region_partition(mp)
        assert r.mid == {"m"}
        assert r.end_x == {"b"} and r.end_y == {"t"}
        assert not (r.mid_x or r.mid_y or r.incomparable_both)

    def test_mid_x_membership(self):
        p = Poset.from_relations(["x", "y", "w"], [("x", "y"), ("x", "w")])
        r = region_partition(MarkedPoset(p, "x", "y"))
        assert "w" in r.mid_x

    def test_partition_covers(self, rng):
        for _ in range(30):
            p = random_poset(rng, rng.randint(2, 7))
            x, y = random_marks(rng, p)
            mp = MarkedPoset(p, x, y)
            nm = normalize(mp)
            r = region_partition(mp)
            parts = [
                r.end_x,
                r.end_y,
                r.mid,
                r.mid_x,
                r.mid_y,
                r.incomparable_both,
            ]
            union = set().union(*parts) | {x, y}
            assert union == set(nm.poset.labels)
            total = sum(len(s) for s in parts)
            assert total == nm.poset.n - 2


@st.composite
def small_posets(draw, max_n=8):
    """Posets on up to max_n elements: relations only go forward in a drawn
    order of the labels, so the relation list is acyclic."""
    n = draw(st.integers(0, max_n))
    labels = draw(st.permutations([f"e{i}" for i in range(n)]))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Poset.from_relations(labels, [(labels[i], labels[j]) for i, j in chosen])


class TestAgainstEnumerationOracle:
    """Each order-ideal route against listing every extension, n <= 8."""

    @settings(max_examples=100, deadline=None)
    @given(small_posets())
    @example(antichain([]))
    def test_count_and_cap(self, p):
        count = oracle.count_extensions(p, None)
        assert p.count_extensions(None) == count
        routes = (
            p.count_extensions,
            partial(oracle.count_extensions, p),
            partial(stanley_all_positions, p),
            # a fresh poset builds its lattice under this very cap
            lambda cap: Poset(p.labels, p.up).count_extensions(cap),
        )
        # every cap is checked against the lattice built uncapped above and
        # by a fresh build; the empty poset never raises
        for cap in (count - 1, count, 0, None):
            too_large = p.n > 0 and cap is not None and count > cap
            for route in routes:
                with pytest.raises(TooLarge) if too_large else nullcontext():
                    route(cap)
        if p.n >= 2:
            # the labels run in a linear extension, so these marks are valid
            mp = MarkedPoset(p, p.labels[0], p.labels[1])
            seq = kahn_saks_sequence(mp, None)
            assert seq == oracle.kahn_saks_sequence(mp, None)
            for cap in (sum(seq) - 1, sum(seq), 0, None):
                too_large = cap is not None and sum(seq) > cap
                fresh = MarkedPoset(Poset(p.labels, p.up), mp.x, mp.y)
                for marked in (mp, fresh):
                    with pytest.raises(TooLarge) if too_large else nullcontext():
                        kahn_saks_sequence(marked, cap)

    @settings(max_examples=100, deadline=None)
    @given(small_posets(), st.data())
    def test_positions_and_sequence(self, p, data):
        assert stanley_all_positions(p) == oracle.stanley_all_positions(p)
        if p.n:
            x = data.draw(st.sampled_from(p.labels))
            assert stanley_sequence(p, x) == oracle.stanley_sequence(p, x)

    @settings(max_examples=100, deadline=None)
    @given(small_posets(), st.data())
    def test_chain_counts(self, p, data):
        # a chain half the time, else any elements
        chain = [data.draw(st.sampled_from(p.labels))] if p.n else []
        while chain and data.draw(st.booleans()):
            above = [b for b in p.labels if p.lt(chain[-1], b)]
            if not above:
                break
            chain.append(data.draw(st.sampled_from(above)))
        if p.n and data.draw(st.booleans()):
            chain = data.draw(st.lists(st.sampled_from(p.labels), unique=True))
        ranks = st.integers(0, p.n + 1)
        positions = data.draw(st.lists(ranks, min_size=len(chain), max_size=len(chain)))
        assert fixed_rank_count(p, chain, positions) == oracle.stanley_chain_counts(
            p, chain, positions
        )

    @settings(max_examples=100, deadline=None)
    @given(small_posets(), st.data())
    def test_flank_verdict(self, p, data):
        if not p.n:
            return
        x = data.draw(st.sampled_from(p.labels))
        seq = stanley_sequence(p, x)
        i = data.draw(st.sampled_from([k for k in range(1, p.n + 1) if seq[k - 1]]))
        verdict = stanley_equality_classify(p, x, i)
        assert verdict.holds_c == oracle.flank_holds(p, x, i)

    @settings(max_examples=100, deadline=None)
    @given(small_posets(), st.data())
    def test_kahn_saks_sequence_and_extremes(self, p, data):
        if p.n < 2:
            return
        pairs = [(a, b) for a in p.labels for b in p.labels if a != b and not p.lt(b, a)]
        mp = MarkedPoset(p, *data.draw(st.sampled_from(pairs)))
        assert kahn_saks_sequence(mp) == oracle.kahn_saks_sequence(mp)
        assert extension_extremes(mp) == oracle.extension_extremes(mp)

    def test_empty_poset(self):
        empty = antichain([])
        assert empty.count_extensions(cap=0) == oracle.count_extensions(empty, 0) == 1
        assert stanley_all_positions(empty, cap=0) == {}
        assert fixed_rank_count(empty, [], [], cap=0) == 1


class TestSharing:
    """Each Poset builds one order-ideal lattice and each MarkedPoset one
    normalization, whatever statistics are asked of them."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = {"lattices": [], "normalizations": 0, "gap_passes": 0}
        lattice, normalization = posets._IdealLattice, posets._KahnSaks
        gap_counts = lattice.gap_counts

        def counted_lattice(p, cap):
            built["lattices"].append(p)
            return lattice(p, cap)

        def counted_normalization(mp):
            built["normalizations"] += 1
            return normalization(mp)

        def counted_gaps(self, x, y):
            built["gap_passes"] += 1
            return gap_counts(self, x, y)

        monkeypatch.setattr(posets, "_IdealLattice", counted_lattice)
        monkeypatch.setattr(posets, "_KahnSaks", counted_normalization)
        monkeypatch.setattr(lattice, "gap_counts", counted_gaps)
        return built

    def test_one_lattice_per_poset(self, built):
        p = Poset.from_relations("abcde", [("a", "b"), ("a", "c"), ("d", "e")])
        with pytest.raises(TooLarge):
            p.count_extensions(cap=1)  # a build that raises caches nothing
        count = p.count_extensions()
        assert sum(stanley_sequence(p, "a")) == count
        assert len(stanley_all_positions(p)) == 5
        assert fixed_rank_count(p, ["a", "b"], [1, 2]) > 0
        stanley_equality_classify(p, "c", 3)
        assert built["lattices"] == [p, p]
        # an equal poset is another object with its own lattice
        twin = Poset.from_relations("abcde", [("a", "b"), ("a", "c"), ("d", "e")])
        assert twin.count_extensions() == count
        assert built["lattices"] == [p, p, twin]

    def test_one_stanley_table_per_lattice(self, monkeypatch):
        builds = []
        rank_counts = posets._IdealLattice.rank_counts

        def counted(lattice):
            builds.append(lattice)
            return rank_counts(lattice)

        monkeypatch.setattr(posets._IdealLattice, "rank_counts", counted)
        p = Poset.from_relations("abcd", [("a", "b"), ("a", "c")])
        seq = stanley_sequence(p, "a")
        table = stanley_all_positions(p)
        verdict = stanley_equality_classify(p, "d", 2)
        assert len(builds) == 1
        expected_seq, expected_table = list(seq), {e: list(t) for e, t in table.items()}
        # what a caller does to a returned list leaks into no later answer
        seq[0] += 100
        table["a"][0] += 100
        table["d"].append(1)
        assert stanley_sequence(p, "a") == expected_seq
        assert stanley_all_positions(p) == expected_table
        assert stanley_equality_classify(p, "d", 2) == verdict
        assert len(builds) == 1

    def test_one_normalization_per_marked_poset(self, built):
        mp = MarkedPoset(antichain("xyz"), "x", "y")
        seq = kahn_saks_sequence(mp)
        for k in range(1, len(seq) + 1):
            kahn_saks_positivity(mp, k)
            midway_check(mp, k)
            if seq[k - 1]:
                kahn_saks_extremal_classify(mp, k)
        extension_extremes(mp)
        region_partition(mp)
        assert built["normalizations"] == 1
        assert built["gap_passes"] == 1
        assert len(built["lattices"]) == 1
        # the normalized poset carries the lattice, not the input poset
        assert built["lattices"][0] is not mp.poset
        assert built["lattices"][0].n == 5
