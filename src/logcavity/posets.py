"""Finite posets and the Stanley / Kahn-Saks counting statistics with their
equality-case classifications.

Elements carry user labels; internally the order is a pair of bitmask tables
(up-sets and down-sets over indices 0..n-1). Every statistic is a sum over
linear extensions, read off path counts in the lattice of order ideals
(De Loof, De Meyer and De Baets, Exploiting the lattice of ideals
representation of a poset, Fundam. Inform. 2006); no extension is listed.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    InvalidMarks,
    InvalidPoset,
    MalformedInput,
    TooLarge,
    UnknownElement,
    ZeroAtIndex,
)
from .linalg import _bits, _expect, _json_labels

DEFAULT_EXTENSION_CAP = 3_628_800  # 10!


class Poset:
    """Immutable finite poset.

    leq is stored reflexively and transitively closed; construction rejects
    relation lists whose closure violates antisymmetry.
    """

    __slots__ = ("labels", "_index", "up", "down", "n", "_lattice")

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
        for i, above in enumerate(self.up):
            for j in _bits(above):
                down[j] |= 1 << i
        object.__setattr__(self, "down", tuple(down))
        object.__setattr__(self, "_lattice", None)

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
                raise UnknownElement(
                    f"relation mentions unknown element {a!r} or {b!r}"
                )
            up[index[a]] |= 1 << index[b]
        # Warshall, A theorem on Boolean matrices, J. ACM 1962
        for k in range(n):
            for i in range(n):
                if up[i] >> k & 1:
                    up[i] |= up[k]
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

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise UnknownElement(f"unknown poset element {label!r}") from None

    def leq(self, a, b):
        return self.up[self.index(a)] >> self.index(b) & 1 == 1

    def lt(self, a, b):
        return a != b and self.leq(a, b)

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
            for j in _bits(ups):
                if not (ups & self.strict_down_mask(j)):
                    out.append((i, j))
        return out

    def extensions(self, cap=DEFAULT_EXTENSION_CAP):
        """Yield every linear extension exactly once as a tuple of indices in
        increasing rank order; lexicographic backtracking over minimal elements.

        The statistics below never list extensions; tests use this as their
        independent route."""
        n = self.n
        downs = [self.strict_down_mask(i) for i in range(n)]
        order = []
        produced = 0

        def rec(placed):
            nonlocal produced
            if len(order) == n:
                produced += 1
                if cap is not None and produced > cap:
                    raise _cap_exceeded(cap)
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

    def _ideals(self, cap):
        """The one order-ideal lattice of this poset, built on first use under
        that call's cap (a build that raises caches nothing). Every call checks
        its own cap: each raises TooLarge iff e(P) > cap, never if P is empty."""
        if self._lattice is None:
            object.__setattr__(self, "_lattice", _IdealLattice(self, cap))
        elif self.n and cap is not None and self._lattice.count > cap:
            raise _cap_exceeded(cap)
        return self._lattice

    def count_extensions(self, cap=DEFAULT_EXTENSION_CAP):
        """e(P); raises TooLarge iff e(P) > cap (never for the empty poset)."""
        return self._ideals(cap).count

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
        relations = _expect(obj.get("relations", []), list, "poset 'relations'")
        for r in relations:
            if len(_json_labels(r, "a poset relation")) != 2:
                raise MalformedInput(
                    f"a poset relation must be a pair [a, b], got {r!r}"
                )
        return Poset.from_relations(
            _json_labels(obj["elements"], "poset 'elements'"),
            [tuple(r) for r in relations],
        )


def _cap_exceeded(cap):
    return TooLarge(
        f"extension count exceeds cap {cap} (raise it with --cap-extensions)"
    )


class _IdealLattice:
    """The order ideals of a poset, as index bitmasks grouped by size.

    levels[s] maps each ideal of size s to its down count, the number of ways
    to build it from the empty ideal one element at a time; up maps each ideal
    to the number of ways to finish it to the whole poset. A path from the
    empty ideal to the whole poset is a linear extension, so the down counts
    on level s sum to the number of extension prefixes of length s. That sum
    never decreases with s and is e(P) at s = n, so stopping as soon as it
    passes the cap raises TooLarge iff e(P) > cap.
    """

    def __init__(self, p: Poset, cap):
        n = self.n = p.n
        below = [p.strict_down_mask(i) for i in range(n)]
        self.full = (1 << n) - 1
        self.moves = {self.full: []}  # ideal -> elements that can join it
        self.levels = [{0: 1}]
        for _ in range(n):
            level, prefixes = {}, 0
            for ideal, ways in self.levels[-1].items():
                addable = self.moves[ideal] = [
                    e
                    for e in range(n)
                    if not ideal >> e & 1 and below[e] & ~ideal == 0
                ]
                prefixes += ways * len(addable)
                if cap is not None and prefixes > cap:
                    raise _cap_exceeded(cap)
                for e in addable:
                    grown = ideal | 1 << e
                    level[grown] = level.get(grown, 0) + ways
            self.levels.append(level)
        self.up = {self.full: 1}
        for level in reversed(self.levels[:-1]):
            for ideal in level:
                self.up[ideal] = sum(self.up[ideal | 1 << e] for e in self.moves[ideal])
        self.count = self.levels[n][self.full]

    @cached_property
    def _positions(self):
        """`rank_counts()` once per lattice, as tuples that no caller can change."""
        return tuple(map(tuple, self.rank_counts()))

    def rank_counts(self):
        """counts[e][k - 1]: extensions placing element e at rank k."""
        counts = [[0] * self.n for _ in range(self.n)]
        for size, level in enumerate(self.levels):
            for ideal, ways in level.items():
                for e in self.moves[ideal]:
                    counts[e][size] += ways * self.up[ideal | 1 << e]
        return counts

    def fixed_rank_count(self, fixed):
        """Extensions placing each element of `fixed` ({index: rank}) at its
        rank: a forward pass in which a fixed element joins only at its rank."""
        ways = {0: 1}
        for size in range(self.n):
            grown = {}
            for ideal, w in ways.items():
                for e in self.moves[ideal]:
                    if fixed.get(e, size + 1) == size + 1:
                        key = ideal | 1 << e
                        grown[key] = grown.get(key, 0) + w
            ways = grown
        return ways.get(self.full, 0)

    def gap_counts(self, x, y):
        """gaps[k]: extensions with rank(y) - rank(x) = k, for k = 1..n-1."""
        gaps = [0] * self.n
        holding_x = {}  # ideal with x but not y -> {rank of x: ways to build}
        for size, level in enumerate(self.levels):
            for ideal, ways in level.items():
                if ideal >> y & 1:
                    continue
                if not ideal >> x & 1:
                    if x in self.moves[ideal]:
                        ranks = holding_x.setdefault(ideal | 1 << x, {})
                        ranks[size + 1] = ranks.get(size + 1, 0) + ways
                    continue
                ranks = holding_x.pop(ideal)
                for e in self.moves[ideal]:
                    if e == y:
                        finish = self.up[ideal | 1 << y]
                        for j, w in ranks.items():
                            gaps[size + 1 - j] += w * finish
                        continue
                    grown = holding_x.setdefault(ideal | 1 << e, {})
                    for j, w in ranks.items():
                        grown[j] = grown.get(j, 0) + w
        return gaps


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

    @cached_property
    def _ks(self):
        """The one Kahn-Saks normalization, shared by every statistic below."""
        return _KahnSaks(self)

    def to_json(self):
        obj = self.poset.to_json()
        obj["x"], obj["y"] = self.x, self.y
        return obj


@dataclass(frozen=True)
class RegionPartition:
    end_x: frozenset
    end_y: frozenset
    mid: frozenset
    mid_x: frozenset
    mid_y: frozenset
    incomparable_both: frozenset


class _KahnSaks:
    """A marked poset normalized once for the Kahn-Saks statistics.

    The normalized poset has the relation x <= y adjoined and global bounds
    present. A fresh bound is adjoined when one is missing, and also when the
    existing extreme is the mark itself: the equality-case machinery needs
    some element strictly below x and strictly above y. The Kahn-Saks
    sequence is unchanged by either modification. The elements other than
    the marks fall into the regions of `RegionPartition`, kept as bitmasks.
    """

    def __init__(self, mp: MarkedPoset):
        p = mp.poset
        if not p.leq(mp.x, mp.y):
            p = p.add_relation(mp.x, mp.y)
        self.base_n = p.n  # size before bound adjunction
        full = (1 << p.n) - 1
        xi, yi = p.index(mp.x), p.index(mp.y)
        mins = [i for i in range(p.n) if p.up[i] == full]
        maxs = [i for i in range(p.n) if p.down[i] == full]
        need_bot = not mins or mins[0] == xi
        need_top = not maxs or maxs[0] == yi
        if need_bot or need_top:
            labels, up = list(p.labels), list(p.up)
            if need_bot:  # index 0, below everything
                labels.insert(0, _fresh_label("bot", labels))
                up = [(2 << len(up)) - 1] + [mask << 1 for mask in up]
            if need_top:  # last index, above everything
                labels.append(_fresh_label("top", labels))
                up = [mask | 1 << len(up) for mask in up] + [1 << len(up)]
            p = Poset(labels, up)
        self.poset = p
        xi, yi = self.xi, self.yi = p.index(mp.x), p.index(mp.y)
        self.end_x = p.strict_down_mask(xi)
        self.end_y = p.strict_up_mask(yi)
        rest = ((1 << p.n) - 1) & ~(self.end_x | self.end_y | 1 << xi | 1 << yi)
        self.mid = rest & p.up[xi] & p.down[yi]
        self.mid_x = rest & p.up[xi] & ~p.down[yi]
        self.mid_y = rest & p.down[yi] & ~p.up[xi]
        self.loose = rest & ~p.up[xi] & ~p.down[yi]
        self._sequence = None

    def sequence(self, cap):
        """(N_1, ..., N_{base_n - 1}): N_k counts the extensions of the normalized
        poset with f(y) - f(x) = k; computed once, after this call's cap check."""
        lattice = self.poset._ideals(cap)
        if self._sequence is None:
            gaps = lattice.gap_counts(self.xi, self.yi)
            self._sequence = tuple(gaps[1 : self.base_n])
        return self._sequence


def stanley_sequence(p: Poset, x, cap=DEFAULT_EXTENSION_CAP):
    """N_k = number of linear extensions placing x at rank k, for k = 1..n:
    N_k = sum of down(I) * up(I + x) over ideals I of size k - 1."""
    return list(p._ideals(cap)._positions[p.index(x)])


def stanley_all_positions(p: Poset, cap=DEFAULT_EXTENSION_CAP):
    """Position-count table for every element: {label: [N_1..N_n]}."""
    return dict(zip(p.labels, map(list, p._ideals(cap)._positions)))


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
    lattice = p._ideals(cap)
    seq = lattice._positions[xi]
    ni = seq[i - 1] if 1 <= i <= n else 0
    if ni == 0:
        below = p.strict_down_mask(xi).bit_count()
        above = p.strict_up_mask(xi).bit_count()
        raise ZeroAtIndex(
            f"N_{i} = 0 (|P<x| = {below} > {i - 1} or |P>x| = {above} > {n - i})"
        )
    prev = seq[i - 2] if i - 2 >= 0 else 0
    nxt = seq[i] if i < n else 0
    holds_a = ni * ni == prev * nxt
    holds_b = ni == prev == nxt
    # an element below x can only flank it at rank i - 1, one above at i + 1
    holds_c = not any(
        lattice.fixed_rank_count({xi: i, z: i - 1 if p.up[z] >> xi & 1 else i + 1})
        for z in _bits(p.strict_down_mask(xi) | p.strict_up_mask(xi))
    )
    holds_d = all(
        p.strict_down_mask(y).bit_count() > i for y in _bits(p.strict_up_mask(xi))
    ) and all(
        p.strict_up_mask(y).bit_count() > n - i + 1
        for y in _bits(p.strict_down_mask(xi))
    )
    return StanleyEqualityVerdict(holds_a, holds_b, holds_c, holds_d)


def kahn_saks_sequence(mp: MarkedPoset, cap=DEFAULT_EXTENSION_CAP):
    """N_k = number of extensions f of the normalized poset with f(y) - f(x) = k.

    The list runs k = 1..n-1 for n the marked poset size before bound
    adjunction; larger gaps are impossible."""
    return list(mp._ks.sequence(cap))


def kahn_saks_positivity(mp: MarkedPoset, k):
    """(is_zero, reason): the combinatorial zero criterion for N_k.

    N_k = 0 iff |P<x| + |P>y| > n-k-1 or |P between x,y| > k-1, on the
    normalized poset of size n."""
    ks = mp._ks
    n = ks.poset.n
    outside = ks.end_x.bit_count() + ks.end_y.bit_count()
    if outside > n - k - 1:
        return True, f"|P<x| + |P>y| = {outside} > {n - k - 1}"
    if ks.mid.bit_count() > k - 1:
        return True, f"|P between| = {ks.mid.bit_count()} > {k - 1}"
    return False, "positive"


def region_partition(mp: MarkedPoset) -> RegionPartition:
    ks = mp._ks
    regions = (ks.end_x, ks.end_y, ks.mid, ks.mid_x, ks.mid_y, ks.loose)
    return RegionPartition(
        *(frozenset(ks.poset.labels[i] for i in _bits(m)) for m in regions)
    )


def _ends_far(ks, k):
    """Whether every z < x has more than k elements strictly between z and y,
    and every z > y more than k strictly between x and z."""
    p = ks.poset
    return (
        all(p.between_mask(z, ks.yi).bit_count() > k for z in _bits(ks.end_x)),
        all(p.between_mask(ks.xi, z).bit_count() > k for z in _bits(ks.end_y)),
    )


def midway_check(mp: MarkedPoset, k):
    """Evaluate the k-midway and dual k-midway properties on the normalized poset.

    Returns {"midway": bool, "dual_midway": bool}."""
    ks = mp._ks
    p, n = ks.poset, ks.poset.n
    far_x, far_y = _ends_far(ks, k)
    midway = far_x and all(
        p.strict_down_mask(z).bit_count() + ks.end_y.bit_count() > n - k
        for z in _bits(ks.mid | ks.mid_x)
    )
    dual = far_y and all(
        p.strict_up_mask(z).bit_count() + ks.end_x.bit_count() > n - k
        for z in _bits(ks.mid | ks.mid_y)
    )
    return {"midway": midway, "dual_midway": dual}


@dataclass(frozen=True)
class KahnSaksExtremalVerdict:
    equality: bool
    ratio: object  # 1, 2, or None
    ratio_two_conditions: tuple


def kahn_saks_extremal_classify(
    mp: MarkedPoset, k, cap=DEFAULT_EXTENSION_CAP
) -> KahnSaksExtremalVerdict:
    ks = mp._ks
    seq = ks.sequence(cap)
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

    p = ks.poset
    cond1 = all(_ends_far(ks, k))
    cond2 = ks.loose == 0
    cond3 = ks.mid == 0
    cond4 = all(
        p.between_mask(z, ks.yi).bit_count() + p.between_mask(ks.xi, zp).bit_count()
        >= k - 1
        for z in _bits(ks.mid_y)
        for zp in _bits(ks.mid_x)
        if p.up[z] >> zp & 1
    )
    return KahnSaksExtremalVerdict(equality, ratio, (cond1, cond2, cond3, cond4))


def extension_extremes(mp: MarkedPoset, cap=DEFAULT_EXTENSION_CAP):
    """Measured extremal statistics of extensions of the normalized poset.

    min_gap should equal |P between x,y| + 1; an extension realizing
    f(x) = |P<x|+1 and f(y) = n-|P>y| simultaneously should exist."""
    ks = mp._ks
    wide = {ks.xi: ks.end_x.bit_count() + 1, ks.yi: ks.poset.n - ks.end_y.bit_count()}
    return {
        # every gap of an extension is in the sequence, and x < y leaves at
        # least one extension
        "min_gap": next(k for k, count in enumerate(ks.sequence(cap), 1) if count),
        "narrow_target": ks.mid.bit_count() + 1,
        "wide_exists": ks.poset._ideals(cap).fixed_rank_count(wide) > 0,
    }
