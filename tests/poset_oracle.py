"""Linear-extension enumeration routines, used only as test oracles.

Each routine but the first four lists the extensions with
`Poset.extensions` and returns exactly what the public entry point of the
same name in `logcavity.posets` returns (`stanley_chain_counts` at two
consecutive ranks what the lattice's `adjacent_count` returns); the library
computes the same statistics by dynamic programming over order ideals
instead. `antichain`, `chain`, `has_bounds` and `normalize` build and
inspect the posets the tests use.
"""

from logcavity.posets import DEFAULT_EXTENSION_CAP, MarkedPoset, Poset


def antichain(labels):
    return Poset.from_relations(tuple(labels), [])


def chain(labels):
    labs = tuple(labels)
    return Poset.from_relations(labs, list(zip(labs, labs[1:])))


def has_bounds(p):
    """Whether p has a least and a greatest element."""
    full = (1 << p.n) - 1
    return full in p.up and full in p.down


def normalize(mp):
    """The marked poset the Kahn-Saks statistics read: x <= y adjoined and
    global bounds present (`MarkedPoset._ks`)."""
    return MarkedPoset(mp._ks.poset, mp.x, mp.y)


def _positions(order):
    return {idx: rank for rank, idx in enumerate(order, start=1)}


def count_extensions(p, cap=DEFAULT_EXTENSION_CAP):
    return sum(1 for _ in p.extensions(cap))


def stanley_sequence(p, x, cap=DEFAULT_EXTENSION_CAP):
    xi = p.index(x)
    counts = [0] * (p.n + 1)
    for order in p.extensions(cap):
        counts[order.index(xi) + 1] += 1
    return counts[1:]


def stanley_all_positions(p, cap=DEFAULT_EXTENSION_CAP):
    table = {lab: [0] * p.n for lab in p.labels}
    for order in p.extensions(cap):
        for rank, idx in enumerate(order):
            table[p.labels[idx]][rank] += 1
    return table


def stanley_chain_counts(p, chain, positions, cap=DEFAULT_EXTENSION_CAP):
    """Extensions placing each element of chain, a chain or not, at its
    position."""
    want = dict(zip((p.index(c) for c in chain), positions))
    count = 0
    for order in p.extensions(cap):
        pos = _positions(order)
        if all(pos[i] == k for i, k in want.items()):
            count += 1
    return count


def flank_holds(p, x, i, cap=DEFAULT_EXTENSION_CAP):
    """Condition (c) of `stanley_equality_classify`: no extension with x at
    rank i puts an element comparable to x at rank i-1 or i+1."""
    xi = p.index(x)
    for order in p.extensions(cap):
        if _positions(order)[xi] != i:
            continue
        for rank in (i - 1, i + 1):
            if 1 <= rank <= p.n:
                other = order[rank - 1]
                if p.up[xi] >> other & 1 or p.up[other] >> xi & 1:
                    return False
    return True


def kahn_saks_sequence(mp, cap=DEFAULT_EXTENSION_CAP):
    nm = normalize(mp)
    p = nm.poset
    xi, yi = p.index(nm.x), p.index(nm.y)
    counts = [0] * (p.n + 1)
    for order in p.extensions(cap):
        pos = _positions(order)
        counts[pos[yi] - pos[xi]] += 1
    # the sequence runs k = 1..n-1 for n the size before bound adjunction
    base_n = mp.poset.n
    return counts[1:base_n]


def extension_extremes(mp, cap=DEFAULT_EXTENSION_CAP):
    nm = normalize(mp)
    p = nm.poset
    xi, yi = p.index(nm.x), p.index(nm.y)
    n = p.n
    below = bin(p.strict_down_mask(xi)).count("1")
    above = bin(p.strict_up_mask(yi)).count("1")
    min_gap = None
    wide = False
    for order in p.extensions(cap):
        pos = _positions(order)
        gap = pos[yi] - pos[xi]
        if min_gap is None or gap < min_gap:
            min_gap = gap
        if pos[xi] == below + 1 and pos[yi] == n - above:
            wide = True
    return {
        "min_gap": min_gap,
        "narrow_target": bin(p.between_mask(xi, yi)).count("1") + 1,
        "wide_exists": wide,
    }
