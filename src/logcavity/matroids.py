"""Matroids given by explicit basis lists, with derived structure.

The canonical representation is the sorted list of bases (as index bitmasks
over the ground tuple); every derived quantity is computed from it.
"""

from functools import reduce
from itertools import combinations
from operator import and_, or_

from .errors import LogcavityError, TooLarge
from .linalg import (
    Graph,
    QMatrix,
    Record,
    _bits,
    _expect,
    _json_labels,
    _label_index,
    _shown,
    integer_row_basis,
    rank_of_matrix,
)

DEFAULT_ELEMENT_CAP = 16


def _check_elements(n, cap):
    """The element cap, which each constructor checks before any work."""
    if n > cap:
        limit = f"over the --cap-elements limit {_shown(cap)}"
        raise TooLarge(f"matroid has {_shown(n)} elements, {limit}")


def _subsets(candidates, r, accept):
    """The masks of the r-subsets of candidates (indices) that accept, given
    the subset as an index tuple, takes."""
    return [sum(1 << i for i in c) for c in combinations(candidates, r) if accept(c)]


def _down_closure(masks, rank):
    """The complex of the subsets of masks, all of size rank: levels[s] is
    the frozenset of its s-sets, and levels[rank + 1] is empty, so a lookup
    one past the rank needs no guard."""
    levels = [frozenset(masks), frozenset()]
    while len(levels) <= rank + 1:
        levels.insert(0, frozenset(i ^ 1 << e for i in levels[0] for e in _bits(i)))
    return tuple(levels)


def _label_mask(index, labels, unknown="unknown element {}"):
    """The mask of the labels' positions in index; a label not in it raises."""
    mask = 0
    for e in labels:
        if e not in index:
            raise LogcavityError(unknown.format(_shown(e)))
        mask |= 1 << index[e]
    return mask


def _link_masks(level):
    """{F: the mask of the e with F + e in level}, over the faces F one size
    below the masks of level."""
    up = {}
    for g in level:
        rest = g
        while rest:  # each e in g, as the bit 1 << e
            e = rest & -rest
            rest ^= e
            up[g ^ e] = up.get(g ^ e, 0) | e
    return up


def _exchange_failure(masks):
    """Basis exchange: for x in B1\\B2 some y in B2\\B1 has B1-x+y a basis.
    Returns the first (B1, B2) in mask order where it fails, else None. It
    fails at x exactly for the B2 inside the room of x: B1 - x and the y of
    the masks' union with B1-x+y absent. Such a B2 is not B1-x+y, so it
    holds two absent y's: only a B1 with an x missing two scans the masks."""
    bases, free = set(masks), reduce(or_, masks)
    for b1 in masks:
        rooms = []
        for x in _bits(b1):
            rest = b1 ^ 1 << x
            absent = sum(1 << y for y in _bits(free ^ b1) if rest | 1 << y not in bases)
            if absent.bit_count() > 1:
                rooms.append(rest | absent)
        if rooms:
            for b2 in masks:
                if any(b2 & ~c == 0 for c in rooms):
                    return b1, b2
    return None


def _links_multipartite(levels):
    """A pure complex (as from `_down_closure`) is the independence complex
    of a matroid iff for every face K and distinct a, b, c outside it, K+a
    and K+b+c in the complex imply K+a+b or K+a+c in it: the 1-skeleton of
    every link is complete multipartite.

    Necessity is augmentation of K+a from K+b+c. Sufficiency: for faces I, J
    with |J| = |I| + 1, some e in J - I has I+e a face, by induction on
    |I - J|. If I is inside J, e is J - I. Else take a in I - J and y in
    J - I: induction on I-a, J-y gives b in J - I with I-a+b a face, then on
    I-a+b, J gives c != b in J - I with I-a+b+c a face, and the rule at
    K = I-a gives I+b or I+c. That is the augmentation axiom (Oxley, Matroid
    Theory), so the facets, all of one size, are the bases of a matroid.

    Only faces of size <= rank - 2 have such b, c. up[F] is the mask of the
    link vertices of F, so the neighbours of a in the link of K are up[K+a];
    the graph is complete multipartite iff for each neighbour set N the
    vertices having it form a part P with N | P the whole link."""
    up = {}
    for level in levels[1:-1]:
        up.update(_link_masks(level))
    for level in levels[:-3]:
        for k in level:
            link, parts = up[k], {}
            for a in _bits(link):
                nbrs = up[k | 1 << a]
                parts[nbrs] = parts.get(nbrs, 0) | 1 << a
            if any(nbrs | part != link for nbrs, part in parts.items()):
                return False
    return True


def _is_basis_family(masks):
    """Whether the masks, all of one size, are the bases of a matroid.
    Elements in every mask are dropped and complements taken when smaller
    (a family is the bases of a matroid iff its complements are), leaving
    sets of size r. Then the link test runs on a complex of at most
    |B| 2^r masks, or the exchange scan takes |B|^2 r^2 steps, whichever
    bound is smaller."""
    common, free = reduce(and_, masks), reduce(or_, masks)
    masks, free = [m ^ common for m in masks], free ^ common
    r = masks[0].bit_count()
    if 2 * r > free.bit_count():
        masks, r = [m ^ free for m in masks], free.bit_count() - r
    if 1 << r <= len(masks) * r * r:
        return _links_multipartite(_down_closure(masks, r))
    return _exchange_failure(masks) is None


class Matroid(Record):
    __slots__ = (
        "ground", "_index", "bases", "rank", "_indep", "_cl", "_evals", "_tables"
    )
    _fields = ("ground", "bases")

    def __init__(self, ground, basis_masks):
        ground = tuple(ground)
        index = _label_index(ground, "matroid ground labels")
        masks = tuple(sorted(set(basis_masks)))
        if not masks:
            raise LogcavityError("a matroid must have at least one basis")
        super().__init__(ground, masks)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "rank", masks[0].bit_count())
        # the independence complex (_independent), built on first use
        object.__setattr__(self, "_indep", None)
        # closures of the independent sets by size (_flats), each on first use
        object.__setattr__(self, "_cl", {})
        # hodge's tables by degree (evaluation) and by integer point (_sums),
        # each on first use; per instance, as the ground order sets each mask
        object.__setattr__(self, "_evals", {})
        object.__setattr__(self, "_tables", {})

    def __repr__(self):
        return f"Matroid(n={self.n}, rank={self.rank}, bases={len(self.bases)})"

    def _key(self):
        """Equality ignores the order of the ground set: labels compare by
        their strings, bases as label sets."""
        return tuple(sorted(map(str, self.ground))), self.basis_label_sets()

    def __eq__(self, other):
        return isinstance(other, Matroid) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def n(self):
        return len(self.ground)

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_bases(ground, bases, cap=DEFAULT_ELEMENT_CAP):
        ground = tuple(ground)
        _check_elements(len(ground), cap)
        index = {lab: i for i, lab in enumerate(ground)}
        masks = []
        for b in bases:
            mask = _label_mask(index, b, "basis element {} not in ground set")
            if mask.bit_count() != len(tuple(b)):
                raise LogcavityError(f"basis {_shown(b)} repeats an element")
            masks.append(mask)
        sizes = {m.bit_count() for m in masks}
        if len(sizes) > 1:
            raise LogcavityError(f"bases of different sizes: {sorted(sizes)}")
        m = Matroid(ground, masks)
        if not _is_basis_family(m.bases):
            b1, b2 = _exchange_failure(m.bases)
            raise LogcavityError(
                "exchange fails for bases "
                f"{sorted(m._labels(b1))} and {sorted(m._labels(b2))}"
            )
        return m

    @staticmethod
    def uniform(k, n, cap=DEFAULT_ELEMENT_CAP):
        _check_elements(n, cap)
        if not 0 <= k <= n:
            shown = f"k={_shown(k)}, n={_shown(n)}"
            raise LogcavityError(f"uniform matroid needs 0 <= k <= n, got {shown}")
        return Matroid(tuple(range(n)), _subsets(range(n), k, lambda c: True))

    @staticmethod
    def graphic(graph: Graph, cap=DEFAULT_ELEMENT_CAP):
        """Cycle matroid of a multigraph; loop edges become matroid loops.
        Each forest, with a component label per vertex an edge touches, grows
        by the edges above its largest one that join two components: so each
        forest comes once, and the levels are the independence complex."""
        m = len(graph.edges)
        _check_elements(m, cap)
        ids = {x: i for i, x in enumerate(dict.fromkeys(sum(graph.edges, ())))}
        ends = [(j, ids[u], ids[v]) for j, (u, v) in enumerate(graph.edges)]
        level, levels = [(0, "".join(map(chr, range(len(ids)))), 0)], []
        while level:
            levels.append(frozenset([mask for mask, _, _ in level]))
            level = [  # v's component takes u's label
                (mask | 1 << j, comp.replace(comp[v], comp[u]), j + 1)
                for mask, comp, start in level
                for j, u, v in ends[start:]
                if comp[u] != comp[v]
            ]
        matroid = Matroid(tuple(range(m)), levels[-1])
        object.__setattr__(matroid, "_indep", (*levels, frozenset()))
        return matroid

    @staticmethod
    def linear(matrix: QMatrix, ground=None, cap=DEFAULT_ELEMENT_CAP):
        """Column matroid of a rational matrix, its columns scaled to ints once."""
        cols = matrix.cols
        _check_elements(cols, cap)
        if ground is None:
            ground = tuple(range(cols))
        if len(ground) != cols:
            raise LogcavityError(
                f"linear matroid has {len(ground)} ground labels for {cols} columns"
            )
        r = rank_of_matrix(matrix)
        vecs = list(zip(*matrix.ints))  # the columns
        masks = _subsets(
            range(cols), r, lambda c: len(integer_row_basis([vecs[j] for j in c])) == r
        )
        return Matroid(ground, masks)

    # -- queries -----------------------------------------------------------

    def _labels(self, mask):
        return frozenset(self.ground[i] for i in _bits(mask))

    def _mask(self, labels):
        return _label_mask(self._index, labels)

    def basis_label_sets(self):
        return frozenset(self._labels(b) for b in self.bases)

    def _independent(self):
        """The independence complex, the down-closure of the bases (`graphic`
        grows it instead): levels[s] is the set of independent s-sets as
        masks, and levels[rank + 1] is empty, so a lookup one past the rank
        needs no guard. It holds up to 2^n masks; the constructors bound n
        by the element cap."""
        if self._indep is None:
            object.__setattr__(self, "_indep", _down_closure(self.bases, self.rank))
        return self._indep

    def _greedy(self, mask):
        """(a maximal independent subset of mask, grown in index order, and its
        size). Every maximal independent subset of a set has the same size,
        the rank of the set (Oxley, Matroid Theory), so n lookups decide it."""
        levels = self._independent()
        b = r = 0
        for e in _bits(mask):
            if b | 1 << e in levels[r + 1]:
                b |= 1 << e
                r += 1
        return b, r

    def _rank_mask(self, mask):
        return self._greedy(mask)[1]

    def rank_of(self, S):
        return self._rank_mask(self._mask(S))

    def _flats(self, k):
        """{I: cl(I)} over the independent k-sets I (k <= rank + 1), as masks:
        e outside I is outside cl(I) iff I + e is independent, so cl(I) is
        the complement of the link of I, read off level k + 1 of the complex."""
        if k not in self._cl:
            levels = self._independent()
            full = (1 << self.n) - 1
            links = _link_masks(levels[k + 1]) if k < self.rank else {}
            self._cl[k] = {i: full ^ links.get(i, 0) for i in levels[k]}
        return self._cl[k]

    def independent_subsets(self, k):
        """All independent k-subsets as bitmasks, sorted."""
        return sorted(self._independent()[k]) if 0 <= k <= self.rank else []

    def loops(self):
        return self._labels(((1 << self.n) - 1) & ~reduce(or_, self.bases))

    def coloops(self):
        return self._labels(reduce(and_, self.bases))

    def flats(self):
        return FlatLattice.of(self)

    def parallel_data(self):
        """The loops, and the parallel classes in order of least element: the
        class of a non-loop e is its closure minus the loops (Oxley, Matroid
        Theory)."""
        loops = self._flats(0)[0]
        points = sorted(self._flats(1).items())
        classes = dict.fromkeys(f & ~loops for _, f in points)
        return ParallelData(self._labels(loops), tuple(map(self._labels, classes)))

    def clone_classes(self):
        """The least index of each element's clone class, by index: e and f
        are clones when swapping them maps the bases onto themselves. Swaps
        compose, (e g) = (f g)(e f)(f g), so this is an equivalence, and each
        element is tested against one member of each class found before it."""

        def clones(e, f):
            pair = 1 << e | 1 << f  # 0 < b & pair < pair: b holds one of them
            return all(b ^ pair in bases for b in self.bases if 0 < b & pair < pair)

        bases, classes = set(self.bases), []
        for e in range(self.n):
            classes.append(next((f for f in dict.fromkeys(classes) if clones(e, f)), e))
        return tuple(classes)

    def truncate(self):
        if self.rank == 0:
            raise LogcavityError("cannot truncate a rank-0 matroid")
        # the faces one size below the bases, the keys of their links
        return Matroid(self.ground, _link_masks(self.bases))

    def direct_sum(self, other):
        if set(self.ground) & set(other.ground):
            raise LogcavityError("direct sum requires disjoint ground sets")
        ground = self.ground + other.ground
        shift = self.n
        masks = [
            b1 | (b2 << shift) for b1 in self.bases for b2 in other.bases
        ]
        return Matroid(ground, masks)

    # -- serialization -----------------------------------------------------

    def to_json(self):
        names = [str(g) for g in self.ground]  # no two print alike
        order = sorted(range(self.n), key=names.__getitem__)
        bases = [[names[i] for i in order if b >> i & 1] for b in self.bases]
        return {"type": "bases", "ground": list(self.ground), "bases": sorted(bases)}

    @staticmethod
    def from_json(obj, cap=DEFAULT_ELEMENT_CAP):
        kind = obj.get("type", "bases")
        if kind == "uniform":
            return Matroid.uniform(
                _expect(obj["k"], int, "uniform 'k'"),
                _expect(obj["n"], int, "uniform 'n'"),
                cap,
            )
        if kind == "graphic":
            return Matroid.graphic(Graph.from_json(obj["graph"]), cap)
        if kind == "linear":
            ground = obj.get("ground")
            return Matroid.linear(
                QMatrix.from_json(obj["matrix"]),
                None if ground is None else _json_labels(ground, "matroid 'ground'"),
                cap,
            )
        if kind == "bases":
            ground = _json_labels(obj["ground"], "matroid 'ground'")
            index = {str(g): g for g in ground}
            bases = (  # read one by one, after from_bases checks the cap
                [index.get(str(e), e) for e in _json_labels(b, "a basis")]
                for b in _expect(obj["bases"], list, "matroid 'bases'")
            )
            return Matroid.from_bases(ground, bases, cap)
        raise LogcavityError(f"unknown matroid type {_shown(kind)}")


class ParallelData(Record):
    _fields = ("loops", "classes")


class FlatLattice(Record):
    """Flats grouped by rank."""

    _fields = ("matroid", "flats_by_rank")

    @staticmethod
    def of(matroid: Matroid):
        """Every rank-k flat is the closure of an independent k-set."""
        by_rank = []
        for k in range(matroid.rank + 1):
            level = sorted(set(matroid._flats(k).values()))
            by_rank.append(tuple(matroid._labels(f) for f in level))
        return FlatLattice(matroid, tuple(by_rank))

    def rank_counts(self):
        return [len(level) for level in self.flats_by_rank]
