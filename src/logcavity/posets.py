"""Finite posets and the Stanley / Kahn-Saks counting statistics with their
equality-case classifications.

Elements carry user labels; internally the order is a pair of bitmask tables
(up-sets and down-sets over indices 0..n-1). Every statistic is a sum over
linear extensions, read off path counts in the lattice of order ideals
(De Loof, De Meyer and De Baets, Exploiting the lattice of ideals
representation of a poset, Fundam. Inform. 2006); no extension is listed.
"""

from functools import cached_property

from .errors import LogcavityError, TooLarge
from .linalg import Record, _bits, _expect, _fresh_label, _json_labels, _label_index
from .linalg import _log_concave, _shown

DEFAULT_EXTENSION_CAP = 3_628_800  # 10!


class Poset(Record):
    """Immutable finite poset.

    leq is stored reflexively and transitively closed; construction rejects
    relation lists whose closure violates antisymmetry. Posets are equal if
    their labelled presentations are: the same labels in order and up-masks.
    """

    __slots__ = ("labels", "_index", "up", "down", "n", "_lattice")
    _fields = ("labels", "up")

    def __init__(self, labels, up_masks):
        super().__init__(tuple(labels), tuple(up_masks))
        object.__setattr__(self, "n", len(self.labels))
        index = _label_index(self.labels, "poset element labels")
        object.__setattr__(self, "_index", index)
        down = [0] * self.n
        for i, above in enumerate(self.up):
            for j in _bits(above):
                down[j] |= 1 << i
        object.__setattr__(self, "down", tuple(down))
        object.__setattr__(self, "_lattice", None)

    @staticmethod
    def from_relations(elements, relations):
        labels = tuple(elements)
        index = _label_index(labels, "poset element labels")
        n = len(labels)
        up = [1 << i for i in range(n)]
        for a, b in relations:
            if a not in index or b not in index:
                raise LogcavityError(
                    f"relation mentions unknown element {_shown(a)} or {_shown(b)}"
                )
            up[index[a]] |= 1 << index[b]
        # Warshall, A theorem on Boolean matrices, J. ACM 1962
        for k in range(n):
            for i in range(n):
                if up[i] >> k & 1:
                    up[i] |= up[k]
        first = {}  # i <= j <= i iff up[i] == up[j]: a cycle repeats a mask
        for i, j in sorted((first.setdefault(mask, j), j) for j, mask in enumerate(up)):
            if i != j:  # the least element on a cycle, with its least partner
                raise LogcavityError(
                    f"antisymmetry fails: {_shown(labels[i])} and "
                    f"{_shown(labels[j])} are in a relation cycle"
                )
        return Poset(labels, up)

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise LogcavityError(f"unknown poset element {_shown(label)}") from None

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
                raise LogcavityError(
                    f"a poset relation must be a pair [a, b], got {_shown(r)}"
                )
        return Poset.from_relations(
            _json_labels(obj["elements"], "poset 'elements'"),
            [tuple(r) for r in relations],
        )


def _cap_exceeded(cap):
    return TooLarge(
        f"extension count exceeds cap {_shown(cap)} (raise it with --cap-extensions)"
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

    def adjacent_count(self, a, b, j):
        """Extensions placing a at rank j and b at rank j + 1: the sum of
        down(I) * up(I + a + b) over the ideals I of size j - 1 with a in
        moves(I) and b in moves(I + a), which is 0 unless 1 <= j < n."""
        if not 1 <= j < self.n:
            return 0
        return sum(
            ways * self.up[ideal | 1 << a | 1 << b]
            for ideal, ways in self.levels[j - 1].items()
            if a in self.moves[ideal] and b in self.moves[ideal | 1 << a]
        )

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


class MarkedPoset(Record):
    """Poset with distinguished elements x and y, x below-or-incomparable to y."""

    _fields = ("poset", "x", "y")

    def __init__(self, poset, x, y):
        if x == y:
            raise LogcavityError("marks x and y must be distinct")
        if poset.lt(y, x):
            raise LogcavityError("mark y must not lie below x")
        super().__init__(poset, x, y)

    @cached_property
    def _ks(self):
        """The one Kahn-Saks normalization, shared by every statistic below."""
        return _KahnSaks(self)

    def to_json(self):
        obj = self.poset.to_json()
        obj["x"], obj["y"] = self.x, self.y
        return obj


class RegionPartition(Record):
    _fields = ("end_x", "end_y", "mid", "mid_x", "mid_y", "incomparable_both")


class _KahnSaks:
    """A marked poset normalized once for the Kahn-Saks statistics.

    The normalized poset has the relation x <= y adjoined and global bounds
    present. A fresh bound is adjoined when one is missing, and also when the
    existing extreme is the mark itself: the equality-case machinery needs
    some element strictly below x and strictly above y. The Kahn-Saks
    sequence is unchanged by either modification. The elements other than
    the marks fall into the regions of `RegionPartition`, kept as bitmasks.

    Each per-k condition compares one of five minima with k, taken here on
    the normalized poset of size n (n + 1 over no element, which passes as
    `all` over nothing does): far_x and far_y of |(z, y)| over z < x and of
    |(x, z)| over z > y, least_below of |P<z| over mid | mid_x, least_above
    of |P>z| over mid | mid_y, least_pair of |(z, y)| + |(x, z')| over z <= z'
    with z in mid_y and z' in mid_x."""

    def __init__(self, mp: MarkedPoset):
        p = mp.poset
        xi, yi = p.index(mp.x), p.index(mp.y)
        # x <= y adjoined: each z <= x gains the up-set of y (none if x <= y)
        up = [mask | p.up[yi] if mask >> xi & 1 else mask for mask in p.up]
        labels = list(p.labels)
        self.base_n = p.n  # size before bound adjunction
        full = greatest = (1 << p.n) - 1
        for mask in up:
            greatest &= mask
        need_bot = full not in up or up[xi] == full
        need_top = greatest in (0, 1 << yi)
        if need_bot:  # index 0, below everything
            labels.insert(0, _fresh_label("bot", labels))
            up = [(2 << len(up)) - 1] + [mask << 1 for mask in up]
        if need_top:  # last index, above everything
            labels.append(_fresh_label("top", labels))
            up = [mask | 1 << len(up) for mask in up] + [1 << len(up)]
        if up != list(p.up):  # a relation or a bound was adjoined
            p = Poset(labels, up)
        self.poset, n = p, p.n
        xi, yi = self.xi, self.yi = p.index(mp.x), p.index(mp.y)
        self.end_x = p.strict_down_mask(xi)
        self.end_y = p.strict_up_mask(yi)
        rest = ((1 << n) - 1) & ~(self.end_x | self.end_y | 1 << xi | 1 << yi)
        self.mid = rest & p.up[xi] & p.down[yi]
        self.mid_x = rest & p.up[xi] & ~p.down[yi]
        self.mid_y = rest & p.down[yi] & ~p.up[xi]
        self.loose = rest & ~p.up[xi] & ~p.down[yi]
        self._sequence = None

        def least(counts):
            return min(counts, default=n + 1)

        to_y = [p.between_mask(z, yi).bit_count() for z in range(n)]  # |(z, y)|
        from_x = [p.between_mask(xi, z).bit_count() for z in range(n)]  # |(x, z)|
        below = [mask.bit_count() - 1 for mask in p.down]  # |P<z|
        above = [mask.bit_count() - 1 for mask in p.up]  # |P>z|
        self.far_x = least(to_y[z] for z in _bits(self.end_x))
        self.far_y = least(from_x[z] for z in _bits(self.end_y))
        self.least_below = least(below[z] for z in _bits(self.mid | self.mid_x))
        self.least_above = least(above[z] for z in _bits(self.mid | self.mid_y))
        self.least_pair = least(
            to_y[z] + from_x[zp]
            for z in _bits(self.mid_y)
            for zp in _bits(p.up[z] & self.mid_x)
        )

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


class StanleyEqualityVerdict(Record):
    """(a) N_i^2 = N_{i-1} N_{i+1}, (b) N_{i-1} = N_i = N_{i+1}, (c) extensions
    with sigma(x) = i flank x by incomparables, (d) the order-theoretic size
    conditions."""

    _fields = ("holds_a", "holds_b", "holds_c", "holds_d")


def stanley_equality_classify(
    p: Poset, x, i, cap=DEFAULT_EXTENSION_CAP
) -> StanleyEqualityVerdict:
    n = p.n
    xi = p.index(x)
    lattice = p._ideals(cap)
    seq = lattice._positions[xi]
    if not 1 <= i <= n or not seq[i - 1]:
        below = p.strict_down_mask(xi).bit_count()
        above = p.strict_up_mask(xi).bit_count()
        raise LogcavityError(
            f"no Stanley equality case at i={i}: N_{i} = 0 "
            f"(|P<x| = {below} > {i - 1} or |P>x| = {above} > {n - i})"
        )
    prev, ni, nxt = [0, *seq, 0][i - 1 : i + 2]
    holds_a = ni * ni == prev * nxt
    holds_b = ni == prev == nxt
    # an element below x can only flank it at rank i - 1, one above at i + 1
    flanks = [(z, xi, i - 1) for z in _bits(p.strict_down_mask(xi))]
    flanks += [(xi, z, i) for z in _bits(p.strict_up_mask(xi))]
    holds_c = not any(lattice.adjacent_count(*flank) for flank in flanks)
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


def midway_check(mp: MarkedPoset, k):
    """Evaluate the k-midway and dual k-midway properties on the normalized poset.

    Returns {"midway": bool, "dual_midway": bool}."""
    ks = mp._ks
    n = ks.poset.n
    return {
        "midway": ks.far_x > k and ks.least_below + ks.end_y.bit_count() > n - k,
        "dual_midway": ks.far_y > k and ks.least_above + ks.end_x.bit_count() > n - k,
    }


class KahnSaksExtremalVerdict(Record):
    _fields = ("equality", "ratio", "ratio_two_conditions")  # ratio: 1, 2 or None


def kahn_saks_extremal_classify(
    mp: MarkedPoset, k, cap=DEFAULT_EXTENSION_CAP
) -> KahnSaksExtremalVerdict:
    ks = mp._ks
    seq = ks.sequence(cap)
    if not 1 <= k <= len(seq) or not seq[k - 1]:
        raise LogcavityError(f"no Kahn-Saks equality case at k={k}: N_{k} = 0")
    prev, nk, nxt = [0, *seq, 0][k - 1 : k + 2]
    equality = nk * nk == prev * nxt
    ratio = None
    if prev == nk == nxt:
        ratio = 1
    elif nxt == 2 * nk and nk == 2 * prev:
        ratio = 2

    cond1 = ks.far_x > k and ks.far_y > k
    cond2 = ks.loose == 0
    cond3 = ks.mid == 0
    cond4 = ks.least_pair >= k - 1
    return KahnSaksExtremalVerdict(equality, ratio, (cond1, cond2, cond3, cond4))


def extension_extremes(mp: MarkedPoset, cap=DEFAULT_EXTENSION_CAP):
    """Measured extremal statistics of extensions of the normalized poset.

    min_gap should equal |P between x,y| + 1; an extension realizing
    f(x) = |P<x|+1 and f(y) = n-|P>y| simultaneously should exist: it is
    N_G > 0 with G = n - |P<x| - |P>y| - 1, since every extension has f(x)
    >= |P<x|+1 and f(y) <= n-|P>y|, so gap G forces both equalities."""
    ks = mp._ks
    seq = ks.sequence(cap)
    widest = ks.poset.n - ks.end_x.bit_count() - ks.end_y.bit_count() - 1
    return {
        # every gap of an extension is in the sequence, and x < y leaves at
        # least one extension
        "min_gap": next(k for k, count in enumerate(seq, 1) if count),
        "narrow_target": ks.mid.bit_count() + 1,
        "wide_exists": seq[widest - 1] > 0,
    }


def poset_report(p: Poset, x, cap=DEFAULT_EXTENSION_CAP):
    """(results, findings, violations) of the `poset` command: Stanley's
    sequence at x and its log-concavity, or with no x every element's
    position counts."""
    results, violations = {"n": p.n}, []
    if x is not None:
        seq = stanley_sequence(p, x, cap)
        lc = _log_concave(seq)
        results.update(extensions=sum(seq), stanley_N=seq, stanley_log_concave=lc)
        if not lc:
            violations.append("stanley poset log-concavity failed")
    else:
        table = stanley_all_positions(p, cap)
        # every extension places each element once; the empty poset has one
        results["extensions"] = sum(table[p.labels[0]]) if p.n else 1
        results["position_counts"] = table
    return results, [], violations


def kahn_saks_report(mp: MarkedPoset, cap=DEFAULT_EXTENSION_CAP):
    """(results, findings, violations) of the `kahnsaks` command: per k,
    the zero criterion must agree with N_k = 0, and at an inner positive N_k
    the ratio is 1 exactly when a midway property holds."""
    seq = kahn_saks_sequence(mp, cap)
    lc = _log_concave(seq)
    violations = [] if lc else ["kahn-saks log-concavity failed"]
    per_k = {}
    for k in range(1, len(seq) + 1):
        zero, reason = kahn_saks_positivity(mp, k)
        if zero != (seq[k - 1] == 0):
            violations.append(f"positivity criterion mismatch at k={k}")
        entry = {"N_k": seq[k - 1], "zero_criterion": zero, "reason": reason}
        entry.update(midway_check(mp, k))
        if seq[k - 1] > 0 and 2 <= k <= len(seq) - 1:
            verdict = kahn_saks_extremal_classify(mp, k, cap)
            entry["equality"] = verdict.equality
            entry["ratio"] = verdict.ratio
            entry["ratio_two_conditions"] = list(verdict.ratio_two_conditions)
            if (verdict.ratio == 1) != (entry["midway"] or entry["dual_midway"]):
                violations.append(f"midway biconditional failed at k={k}")
        per_k[str(k)] = entry
    results = {
        "N": seq,
        "log_concave": lc,
        "per_k": per_k,
        "extremes": extension_extremes(mp, cap),
        "regions": region_partition(mp),
    }
    return results, [], violations
