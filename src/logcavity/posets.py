"""Finite posets, linear-extension enumeration, and the Stanley / Kahn-Saks
counting statistics with their equality-case classifications.

Elements carry user labels; internally the order is a pair of bitmask tables
(up-sets and down-sets over indices 0..n-1).
"""

from dataclasses import dataclass

from .errors import (
    InvalidMarks,
    InvalidPoset,
    NotAChain,
    TooLarge,
    UnknownElement,
    ZeroAtIndex,
)

DEFAULT_EXTENSION_CAP = 3_628_800  # 10!


class Poset:
    """Immutable finite poset.

    leq is stored reflexively and transitively closed; construction rejects
    relation lists whose closure violates antisymmetry.
    """

    __slots__ = ("labels", "_index", "up", "down", "n")

    def __init__(self, labels, up_masks):
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "n", len(self.labels))
        object.__setattr__(
            self, "_index", {lab: i for i, lab in enumerate(self.labels)}
        )
        if len(self._index) != self.n:
            raise InvalidPoset("duplicate element labels")
        object.__setattr__(self, "up", tuple(up_masks))
        down = [0] * self.n
        for i in range(self.n):
            for j in range(self.n):
                if self.up[i] >> j & 1:
                    down[j] |= 1 << i
        object.__setattr__(self, "down", tuple(down))

    def __setattr__(self, *a):
        raise AttributeError("Poset is immutable")

    @staticmethod
    def from_relations(elements, relations):
        labels = tuple(elements)
        index = {lab: i for i, lab in enumerate(labels)}
        if len(index) != len(labels):
            raise InvalidPoset("duplicate element labels")
        n = len(labels)
        up = [1 << i for i in range(n)]
        for a, b in relations:
            if a not in index or b not in index:
                raise UnknownElement(f"relation mentions unknown element {a!r} or {b!r}")
            up[index[a]] |= 1 << index[b]
        changed = True
        while changed:
            changed = False
            for i in range(n):
                acc = up[i]
                scan = acc
                while scan:
                    j = (scan & -scan).bit_length() - 1
                    scan &= scan - 1
                    acc |= up[j]
                if acc != up[i]:
                    up[i] = acc
                    changed = True
        for i in range(n):
            for j in range(i + 1, n):
                if up[i] >> j & 1 and up[j] >> i & 1:
                    raise InvalidPoset(
                        f"antisymmetry fails: {labels[i]!r} and {labels[j]!r} "
                        "are in a relation cycle"
                    )
        return Poset(labels, up)

    @staticmethod
    def chain(labels):
        labs = tuple(labels)
        return Poset.from_relations(
            labs, [(labs[i], labs[i + 1]) for i in range(len(labs) - 1)]
        )

    @staticmethod
    def antichain(labels):
        return Poset.from_relations(tuple(labels), [])

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise UnknownElement(f"unknown poset element {label!r}") from None

    def leq(self, a, b):
        return self.up[self.index(a)] >> self.index(b) & 1 == 1

    def lt(self, a, b):
        return a != b and self.leq(a, b)

    def comparable(self, a, b):
        return self.leq(a, b) or self.leq(b, a)

    def strict_up_mask(self, i):
        return self.up[i] & ~(1 << i)

    def strict_down_mask(self, i):
        return self.down[i] & ~(1 << i)

    def between_mask(self, i, j):
        """Elements strictly between i and j (indices)."""
        return self.strict_up_mask(i) & self.strict_down_mask(j)

    def covers(self):
        """Covering pairs (i, j) with j covering i, as index pairs."""
        out = []
        for i in range(self.n):
            ups = self.strict_up_mask(i)
            scan = ups
            while scan:
                j = (scan & -scan).bit_length() - 1
                scan &= scan - 1
                if not (ups & self.strict_down_mask(j)):
                    out.append((i, j))
        return out

    def minimal_indices(self):
        return [i for i in range(self.n) if self.strict_down_mask(i) == 0]

    def maximal_indices(self):
        return [i for i in range(self.n) if self.strict_up_mask(i) == 0]

    def has_bounds(self):
        full = (1 << self.n) - 1
        has_min = any(self.up[i] == full for i in range(self.n))
        has_max = any(self.down[i] == full for i in range(self.n))
        return has_min and has_max

    def extensions(self, cap=DEFAULT_EXTENSION_CAP):
        """Yield every linear extension exactly once as a tuple of indices in
        increasing rank order; lexicographic backtracking over minimal elements."""
        n = self.n
        downs = [self.strict_down_mask(i) for i in range(n)]
        order = []
        produced = 0

        def rec(placed):
            nonlocal produced
            if len(order) == n:
                produced += 1
                if cap is not None and produced > cap:
                    raise TooLarge(f"extension count exceeds cap {cap}")
                yield tuple(order)
                return
            for i in range(n):
                if not placed >> i & 1 and downs[i] & ~placed == 0:
                    order.append(i)
                    yield from rec(placed | 1 << i)
                    order.pop()

        if n == 0:
            yield ()
            return
        yield from rec(0)

    def count_extensions(self, cap=DEFAULT_EXTENSION_CAP):
        return sum(1 for _ in self.extensions(cap))

    def add_relation(self, a, b):
        """New poset with a <= b adjoined: z1 <= z2 iff z1 <= z2 already, or
        z1 <= a and b <= z2."""
        i, j = self.index(a), self.index(b)
        if self.up[j] >> i & 1:
            raise InvalidPoset(f"adding {a!r} <= {b!r} would break antisymmetry")
        up = list(self.up)
        for k in range(self.n):
            if up[k] >> i & 1:
                up[k] |= self.up[j]
        return Poset(self.labels, up)

    def to_json(self):
        rels = [
            [self.labels[i], self.labels[j]] for i, j in self.covers()
        ]
        return {"elements": list(self.labels), "relations": rels}

    @staticmethod
    def from_json(obj):
        return Poset.from_relations(
            obj["elements"], [tuple(r) for r in obj.get("relations", [])]
        )


def _fresh_label(base, existing):
    if base not in existing:
        return base
    k = 0
    while f"{base}{k}" in existing:
        k += 1
    return f"{base}{k}"


@dataclass(frozen=True)
class MarkedPoset:
    """Poset with distinguished elements x and y, x below-or-incomparable to y."""

    poset: Poset
    x: object
    y: object

    def __post_init__(self):
        if self.x == self.y:
            raise InvalidMarks("marks x and y must be distinct")
        if self.poset.lt(self.y, self.x):
            raise InvalidMarks("mark y must not lie below x")

    def to_json(self):
        obj = self.poset.to_json()
        obj["x"], obj["y"] = self.x, self.y
        return obj

    @staticmethod
    def from_json(obj):
        return MarkedPoset(Poset.from_json(obj), obj["x"], obj["y"])


@dataclass(frozen=True)
class RegionPartition:
    end_x: frozenset
    end_y: frozenset
    mid: frozenset
    mid_x: frozenset
    mid_y: frozenset
    incomparable_both: frozenset


@dataclass(frozen=True)
class _KSContext:
    """Normalized Kahn-Saks instance: bounded poset with x <= y adjoined."""

    marked: MarkedPoset
    base_n: int  # size before bound adjunction; sequence runs 1..base_n-1
    adjoined: int


def normalize(mp: MarkedPoset) -> MarkedPoset:
    """Marked poset with the relation x <= y adjoined and global bounds present.

    Idempotent; the Kahn-Saks sequence is unchanged by either modification."""
    return _normalize_meta(mp).marked


def _normalize_meta(mp: MarkedPoset) -> _KSContext:
    p = mp.poset
    if not p.leq(mp.x, mp.y):
        p = p.add_relation(mp.x, mp.y)
    base_n = p.n
    # A fresh bound is adjoined when missing, and also when the existing
    # extreme is the mark itself: the equality-case machinery needs some
    # element strictly below x and strictly above y.
    full = (1 << p.n) - 1
    xi, yi = p.index(mp.x), p.index(mp.y)
    mins = [i for i in range(p.n) if p.up[i] == full]
    maxs = [i for i in range(p.n) if p.down[i] == full]
    need_bot = not mins or mins[0] == xi
    need_top = not maxs or maxs[0] == yi
    adjoined = 0
    if need_bot or need_top:
        labels = list(p.labels)
        relations = [
            (p.labels[i], p.labels[j]) for i, j in p.covers()
        ]
        if need_bot:
            bot = _fresh_label("bot", labels)
            relations += [(bot, lab) for lab in labels]
            labels.insert(0, bot)
            adjoined += 1
        if need_top:
            top = _fresh_label("top", labels)
            relations += [(lab, top) for lab in labels if lab != top]
            labels.append(top)
            adjoined += 1
        p = Poset.from_relations(labels, relations)
    return _KSContext(MarkedPoset(p, mp.x, mp.y), base_n, adjoined)


def _positions(order):
    pos = {}
    for rank, idx in enumerate(order, start=1):
        pos[idx] = rank
    return pos


def stanley_sequence(p: Poset, x, cap=DEFAULT_EXTENSION_CAP):
    """N_k = number of linear extensions placing x at rank k, for k = 1..n."""
    xi = p.index(x)
    counts = [0] * (p.n + 1)
    for order in p.extensions(cap):
        counts[order.index(xi) + 1] += 1
    return counts[1:]


def stanley_all_positions(p: Poset, cap=DEFAULT_EXTENSION_CAP):
    """Position-count table for every element in one enumeration pass.

    Returns {label: [N_1..N_n]}."""
    table = {lab: [0] * p.n for lab in p.labels}
    for order in p.extensions(cap):
        for rank, idx in enumerate(order):
            table[p.labels[idx]][rank] += 1
    return table


def stanley_chain_counts(p: Poset, chain, positions, cap=DEFAULT_EXTENSION_CAP):
    """Number of extensions sending the chain x_1 < ... < x_k to the given
    rank positions; positions incompatible with the chain order simply admit
    no extension and count zero."""
    idxs = [p.index(c) for c in chain]
    for a, b in zip(idxs, idxs[1:]):
        if not (a != b and p.up[a] >> b & 1):
            raise NotAChain("elements do not form a strictly increasing chain")
    if len(positions) != len(idxs):
        raise NotAChain("one position per chain element is required")
    want = dict(zip(idxs, positions))
    count = 0
    for order in p.extensions(cap):
        pos = _positions(order)
        if all(pos[i] == k for i, k in want.items()):
            count += 1
    return count


@dataclass(frozen=True)
class StanleyEqualityVerdict:
    holds_a: bool  # N_i^2 = N_{i-1} N_{i+1}
    holds_b: bool  # N_{i-1} = N_i = N_{i+1}
    holds_c: bool  # extensions with sigma(x)=i flank x by incomparables
    holds_d: bool  # the order-theoretic size conditions


def stanley_equality_classify(
    p: Poset, x, i, cap=DEFAULT_EXTENSION_CAP
) -> StanleyEqualityVerdict:
    n = p.n
    xi = p.index(x)
    seq = stanley_sequence(p, x, cap)
    ni = seq[i - 1] if 1 <= i <= n else 0
    if ni == 0:
        below = bin(p.strict_down_mask(xi)).count("1")
        above = bin(p.strict_up_mask(xi)).count("1")
        raise ZeroAtIndex(
            f"N_{i} = 0 (|P<x| = {below} > {i - 1} or |P>x| = {above} > {n - i})"
        )
    prev = seq[i - 2] if i - 2 >= 0 else 0
    nxt = seq[i] if i < n else 0
    holds_a = ni * ni == prev * nxt
    holds_b = ni == prev == nxt
    holds_c = True
    for order in p.extensions(cap):
        pos = _positions(order)
        if pos[xi] != i:
            continue
        for rank in (i - 1, i + 1):
            if 1 <= rank <= n:
                other = order[rank - 1]
                if p.up[xi] >> other & 1 or p.up[other] >> xi & 1:
                    holds_c = False
        if not holds_c:
            break
    holds_d = True
    scan = p.strict_up_mask(xi)
    while scan:
        y = (scan & -scan).bit_length() - 1
        scan &= scan - 1
        if bin(p.strict_down_mask(y)).count("1") <= i:
            holds_d = False
    scan = p.strict_down_mask(xi)
    while scan:
        y = (scan & -scan).bit_length() - 1
        scan &= scan - 1
        if bin(p.strict_up_mask(y)).count("1") <= n - i + 1:
            holds_d = False
    return StanleyEqualityVerdict(holds_a, holds_b, holds_c, holds_d)


def kahn_saks_sequence(mp: MarkedPoset, cap=DEFAULT_EXTENSION_CAP):
    """N_k = number of extensions f of the normalized poset with f(y) - f(x) = k.

    The list runs k = 1..n-1 for n the marked poset size before bound
    adjunction; larger gaps are impossible."""
    ctx = _normalize_meta(mp)
    return _ks_sequence_ctx(ctx, cap)


def _ks_sequence_ctx(ctx: _KSContext, cap=DEFAULT_EXTENSION_CAP):
    p = ctx.marked.poset
    xi, yi = p.index(ctx.marked.x), p.index(ctx.marked.y)
    counts = [0] * (p.n + 1)
    for order in p.extensions(cap):
        pos = _positions(order)
        counts[pos[yi] - pos[xi]] += 1
    return counts[1 : ctx.base_n]


def kahn_saks_positivity(mp: MarkedPoset, k):
    """(is_zero, reason): the combinatorial zero criterion for N_k.

    N_k = 0 iff |P<x| + |P>y| > n-k-1 or |P between x,y| > k-1, on the
    normalized poset of size n."""
    ctx = _normalize_meta(mp)
    p = ctx.marked.poset
    n = p.n
    xi, yi = p.index(ctx.marked.x), p.index(ctx.marked.y)
    below = bin(p.strict_down_mask(xi)).count("1")
    above = bin(p.strict_up_mask(yi)).count("1")
    mid = bin(p.between_mask(xi, yi)).count("1")
    if below + above > n - k - 1:
        return True, f"|P<x| + |P>y| = {below + above} > {n - k - 1}"
    if mid > k - 1:
        return True, f"|P between| = {mid} > {k - 1}"
    return False, "positive"


def region_partition(mp: MarkedPoset) -> RegionPartition:
    ctx = _normalize_meta(mp)
    p = ctx.marked.poset
    xi, yi = p.index(ctx.marked.x), p.index(ctx.marked.y)
    end_x, end_y, mid, mid_x, mid_y, loose = [], [], [], [], [], []
    for i in range(p.n):
        if i in (xi, yi):
            continue
        below_x = p.up[i] >> xi & 1
        above_x = p.up[xi] >> i & 1
        below_y = p.up[i] >> yi & 1
        above_y = p.up[yi] >> i & 1
        lab = p.labels[i]
        if below_x:
            end_x.append(lab)
        elif above_y:
            end_y.append(lab)
        elif above_x and below_y:
            mid.append(lab)
        elif above_x:
            mid_x.append(lab)
        elif below_y:
            mid_y.append(lab)
        else:
            loose.append(lab)
    return RegionPartition(
        frozenset(end_x),
        frozenset(end_y),
        frozenset(mid),
        frozenset(mid_x),
        frozenset(mid_y),
        frozenset(loose),
    )


def midway_check(mp: MarkedPoset, k):
    """Evaluate the k-midway and dual k-midway properties on the normalized poset.

    Returns {"midway": bool, "dual_midway": bool}."""
    ctx = _normalize_meta(mp)
    p = ctx.marked.poset
    n = p.n
    xi, yi = p.index(ctx.marked.x), p.index(ctx.marked.y)
    size = lambda mask: bin(mask).count("1")

    # z ranges over elements other than the marks themselves (the regions
    # MID, MID_x, END_x for midway; MID, MID_y, END_y for the dual).
    midway = True
    for z in range(n):
        if z in (xi, yi):
            continue
        if p.up[xi] >> z & 1 and not (p.up[yi] >> z & 1):
            if size(p.strict_down_mask(z)) + size(p.strict_up_mask(yi)) <= n - k:
                midway = False
    for z in range(n):
        if p.up[z] >> xi & 1 and z != xi:
            if size(p.between_mask(z, yi)) <= k:
                midway = False

    dual = True
    for z in range(n):
        if z in (xi, yi):
            continue
        if p.up[z] >> yi & 1 and not (p.up[z] >> xi & 1):
            if size(p.strict_up_mask(z)) + size(p.strict_down_mask(xi)) <= n - k:
                dual = False
    for z in range(n):
        if p.up[yi] >> z & 1 and z != yi:
            if size(p.between_mask(xi, z)) <= k:
                dual = False

    return {"midway": midway, "dual_midway": dual}


@dataclass(frozen=True)
class KahnSaksExtremalVerdict:
    equality: bool
    ratio: object  # 1, 2, or None
    ratio_two_conditions: tuple


def kahn_saks_extremal_classify(
    mp: MarkedPoset, k, cap=DEFAULT_EXTENSION_CAP
) -> KahnSaksExtremalVerdict:
    ctx = _normalize_meta(mp)
    seq = _ks_sequence_ctx(ctx, cap)
    nk = seq[k - 1] if 1 <= k <= len(seq) else 0
    if nk == 0:
        raise ZeroAtIndex(f"N_{k} = 0")
    prev = seq[k - 2] if k - 2 >= 0 else 0
    nxt = seq[k] if k < len(seq) else 0
    equality = nk * nk == prev * nxt
    ratio = None
    if prev == nk == nxt:
        ratio = 1
    elif nxt == 2 * nk and nk == 2 * prev:
        ratio = 2

    p = ctx.marked.poset
    n = p.n
    xi, yi = p.index(ctx.marked.x), p.index(ctx.marked.y)
    size = lambda mask: bin(mask).count("1")

    cond1 = True
    for z in range(n):
        if p.up[z] >> xi & 1 and z != xi:  # z in END_x
            if size(p.between_mask(z, yi)) <= k:
                cond1 = False
        if p.up[yi] >> z & 1 and z != yi:  # z in END_y
            if size(p.between_mask(xi, z)) <= k:
                cond1 = False

    cond2 = all(
        z in (xi, yi)
        or p.up[z] >> xi & 1
        or p.up[xi] >> z & 1
        or p.up[z] >> yi & 1
        or p.up[yi] >> z & 1
        for z in range(n)
    )

    cond3 = p.between_mask(xi, yi) == 0

    cond4 = True
    mid_x = [
        z
        for z in range(n)
        if p.up[xi] >> z & 1
        and z != xi
        and not p.comparable(p.labels[z], ctx.marked.y)
    ]
    mid_y = [
        z
        for z in range(n)
        if p.up[z] >> yi & 1
        and z != yi
        and not p.comparable(p.labels[z], ctx.marked.x)
    ]
    for z in mid_y:
        for zp in mid_x:
            if p.up[z] >> zp & 1 and z != zp:
                if (
                    size(p.between_mask(z, yi)) + size(p.between_mask(xi, zp))
                    < k - 1
                ):
                    cond4 = False

    return KahnSaksExtremalVerdict(equality, ratio, (cond1, cond2, cond3, cond4))


def extension_extremes(mp: MarkedPoset, cap=DEFAULT_EXTENSION_CAP):
    """Measured extremal statistics of extensions of the normalized poset.

    min_gap should equal |P between x,y| + 1; an extension realizing
    f(x) = |P<x|+1 and f(y) = n-|P>y| simultaneously should exist."""
    ctx = _normalize_meta(mp)
    p = ctx.marked.poset
    xi, yi = p.index(ctx.marked.x), p.index(ctx.marked.y)
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
