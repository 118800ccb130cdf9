"""Linear-extension enumeration routines, used only as test oracles.

Each routine from `count_extensions` to `extension_extremes` lists the
extensions with `Poset.extensions` and returns exactly what the public
entry point of the same name in `logcavity.posets` returns
(`stanley_chain_counts` at two consecutive ranks what the lattice's
`adjacent_count` returns); the library computes the same statistics by
dynamic programming over order ideals instead. `antichain`, `chain`,
`has_bounds` and `normalize` build and inspect the posets the tests use.

The routines after them are the scans that the library replaced by
statistics taken once per instance: `cycle_pair` tests every pair of
elements for a cycle, and `midway_check` and `ratio_two_conditions` rescan
the regions of the normalized poset for each k.
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


def cycle_pair(up):
    """(i, j), i < j, for the least i on a cycle of the closed up-set masks
    and its least partner j, by a test of every pair; None if the masks are
    antisymmetric. The antisymmetry error names these two elements."""
    n = len(up)
    for i in range(n):
        for j in range(i + 1, n):
            if up[i] >> j & 1 and up[j] >> i & 1:
                return i, j
    return None


def _members(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def ends_far(ks, k):
    """Whether every z < x has more than k elements strictly between z and y,
    and every z > y more than k strictly between x and z."""
    p = ks.poset
    return (
        all(p.between_mask(z, ks.yi).bit_count() > k for z in _members(ks.end_x)),
        all(p.between_mask(ks.xi, z).bit_count() > k for z in _members(ks.end_y)),
    )


def midway_check(mp, k):
    """The k-midway and dual k-midway properties, by a scan of the regions."""
    ks = mp._ks
    p, n = ks.poset, ks.poset.n
    far_x, far_y = ends_far(ks, k)
    midway = far_x and all(
        p.strict_down_mask(z).bit_count() + ks.end_y.bit_count() > n - k
        for z in _members(ks.mid | ks.mid_x)
    )
    dual = far_y and all(
        p.strict_up_mask(z).bit_count() + ks.end_x.bit_count() > n - k
        for z in _members(ks.mid | ks.mid_y)
    )
    return {"midway": midway, "dual_midway": dual}


def ratio_two_conditions(mp, k):
    """The four conditions of `kahn_saks_extremal_classify`, condition 4 by a
    scan of every pair z <= z' with z in mid_y and z' in mid_x."""
    ks = mp._ks
    p = ks.poset
    cond4 = all(
        p.between_mask(z, ks.yi).bit_count() + p.between_mask(ks.xi, zp).bit_count()
        >= k - 1
        for z in _members(ks.mid_y)
        for zp in _members(ks.mid_x)
        if p.up[z] >> zp & 1
    )
    return (all(ends_far(ks, k)), ks.loose == 0, ks.mid == 0, cond4)
