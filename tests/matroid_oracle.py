"""Slow routes for matroid rank and its relatives, used only as test oracles,
and the hypothesis strategy of small matroids the oracle tests share.

Rank is the largest intersection with a basis, closure adds every element
that keeps that rank, flats are found breadth first from the closure of the
empty set, independent sets are the subsets of the bases, and parallel
classes come from the rank of every pair. The library reads all of
these off its independence complex instead: rank by greedy insertion,
the closure of an independent set as the complement of its link, the flats
of rank k as the closures of the independent k-sets, and the parallel class
of a point as its closure minus the loops. A basis list is validated here by
exchange over every pair of bases, and in the library by one
local-augmentation test per face of the complex unless the family has few
bases for its rank.

The minors the tests build are here too, since no command builds one.
"""

from itertools import combinations

from hypothesis import strategies as st

from logcavity.linalg import Graph, QMatrix, _bits
from logcavity.matroids import Matroid

SMALL = st.integers(min_value=-3, max_value=3)


@st.composite
def small_matroids(draw):
    """Uniform, graphic multigraph (loops allowed) and linear matroids on at
    most 7 elements."""
    kind = draw(st.sampled_from(["uniform", "graphic", "linear"]))
    if kind == "uniform":
        n = draw(st.integers(min_value=1, max_value=7))
        return Matroid.uniform(draw(st.integers(min_value=0, max_value=n)), n)
    if kind == "graphic":
        v = draw(st.integers(min_value=2, max_value=5))
        end = st.integers(min_value=0, max_value=v - 1)
        edges = draw(st.lists(st.tuples(end, end), min_size=1, max_size=7))
        return Matroid.graphic(Graph(v, tuple(edges)))
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=7))
    row = st.lists(SMALL, min_size=cols, max_size=cols)
    return Matroid.linear(QMatrix(draw(st.lists(row, min_size=rows, max_size=rows))))


def exchange_holds(bases):
    """Basis exchange over every ordered pair of bases (masks): for x in
    B1 - B2 some y in B2 - B1 has B1 - x + y a basis."""
    bases = set(bases)
    for b1 in bases:
        for b2 in bases:
            for x in _bits(b1 & ~b2):
                if not any(b1 ^ (1 << x | 1 << y) in bases for y in _bits(b2 & ~b1)):
                    return False
    return True


def rank(m, mask):
    return max(bin(mask & b).count("1") for b in m.bases)


def closure(m, mask):
    r = rank(m, mask)
    out = mask
    for e in range(m.n):
        if rank(m, mask | 1 << e) == r:
            out |= 1 << e
    return out


def flats_by_rank(m):
    """The flats as sorted masks, by rank, breadth first: the closure of the
    empty set, then the closures of each flat of the last rank plus one
    element outside it, until no flat has an element outside it."""
    by_rank = []
    current = {closure(m, 0)}
    while current:
        by_rank.append(sorted(current))
        nxt = set()
        for f in current:
            for e in range(m.n):
                if not f >> e & 1:
                    nxt.add(closure(m, f | 1 << e))
        current = nxt
    return by_rank


def parallel_classes(m):
    """(loop mask, class masks in order of least element) by pairwise rank:
    non-loops e and f are parallel iff {e, f} has rank 1."""
    loops = sum(1 << e for e in range(m.n) if rank(m, 1 << e) == 0)
    classes, assigned = [], loops
    for e in range(m.n):
        if assigned >> e & 1:
            continue
        cls = 1 << e
        for f in range(e + 1, m.n):
            if not loops >> f & 1 and rank(m, 1 << e | 1 << f) == 1:
                cls |= 1 << f
        assigned |= cls
        classes.append(cls)
    return loops, classes


def is_independent(m, mask):
    return any(mask & ~b == 0 for b in m.bases)


def independent_subsets(m, k):
    """All independent k-subsets as sorted bitmasks: the k-subsets of the
    bases."""
    seen = set()
    for b in m.bases:
        for combo in combinations(list(_bits(b)), k):
            mask = 0
            for i in combo:
                mask |= 1 << i
            seen.add(mask)
    return sorted(seen)


def _moved(mask, pos):
    return sum(1 << pos[i] for i in _bits(mask))


def restrict(m, t_mask):
    """The bases of the restriction to t_mask: its independent sets of size
    rank(t_mask), in the positions of t_mask's elements."""
    keep = list(_bits(t_mask))
    r = rank(m, t_mask)
    masks = set()
    for combo in combinations(range(len(keep)), r):
        if is_independent(m, sum(1 << keep[i] for i in combo)):
            masks.add(sum(1 << i for i in combo))
    return Matroid(tuple(m.ground[i] for i in keep), sorted(masks))



def delete(m, T):
    """M \\ T: the restriction to the elements outside the labels T."""
    return restrict(m, ((1 << m.n) - 1) & ~m._mask(T))


def contract(m, T):
    """M / T: the bases are B - T over the bases B that meet T in B_T, a
    greedy basis of T (Oxley, Matroid Theory). B_T extends to a basis, which
    meets T in B_T alone, so there is at least one."""
    t_mask = m._mask(T)
    bt = m._greedy(t_mask)[0]
    keep = [i for i in range(m.n) if not t_mask >> i & 1]
    pos = {old: new for new, old in enumerate(keep)}
    masks = {_moved(b & ~t_mask, pos) for b in m.bases if b & t_mask == bt}
    return Matroid(tuple(m.ground[i] for i in keep), sorted(masks))


def simplify(m):
    """(simple matroid on parallel-class representatives, fiber map). The
    representative of each class is its smallest-index member; the fiber map
    sends every non-loop to its representative."""
    reps, fiber, pos = [], {}, {}
    for cls in m.parallel_data().classes:
        rep = min(cls, key=lambda e: m._index[e])
        for e in cls:
            fiber[e] = rep
            pos[m._index[e]] = len(reps)
        reps.append(rep)
    masks = {_moved(b, pos) for b in m.bases}
    return Matroid(tuple(reps), sorted(masks)), fiber
