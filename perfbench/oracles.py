"""Independent answers the benchmark checks the program against.

Nothing here imports logcavity: the poset counts come from dynamic
programming over order ideals, and the graphic basis counts from Kirchhoff's
matrix-tree theorem evaluated by sympy.
"""


def down_masks(elements, relations):
    """Strict down-set bitmask of every element, transitively closed."""
    index = {e: i for i, e in enumerate(elements)}
    below = [0] * len(elements)
    for a, b in relations:
        below[index[b]] |= 1 << index[a]
    changed = True
    while changed:
        changed = False
        for i, mask in enumerate(below):
            closed = mask
            scan = mask
            while scan:
                j = (scan & -scan).bit_length() - 1
                scan &= scan - 1
                closed |= below[j]
            if closed != mask:
                below[i] = closed
                changed = True
    return below


class IdealLattice:
    """Order ideals of a finite poset with the number of ways to build each
    ideal from the empty set (`down`) and to finish from it (`up`)."""

    def __init__(self, below):
        self.below = below
        self.n = len(below)
        self.full = (1 << self.n) - 1
        down = {0: 1}
        frontier = [0]
        for _ in range(self.n):
            nxt = {}
            for ideal in frontier:
                ways = down[ideal]
                for e in self.addable(ideal):
                    grown = ideal | 1 << e
                    nxt[grown] = nxt.get(grown, 0) + ways
            down.update(nxt)
            frontier = list(nxt)
        self.down = down
        up = {self.full: 1}
        for ideal in sorted(down, key=lambda m: -bin(m).count("1")):
            if ideal != self.full:
                up[ideal] = sum(up[ideal | 1 << e] for e in self.addable(ideal))
        self.up = up

    def addable(self, ideal):
        return [
            e
            for e in range(self.n)
            if not ideal >> e & 1 and self.below[e] & ~ideal == 0
        ]

    @property
    def extensions(self):
        return self.down[self.full]

    def position_counts(self, e):
        """[N_1..N_n]: extensions placing element e at rank k."""
        counts = [0] * self.n
        for ideal, ways in self.down.items():
            if not ideal >> e & 1 and self.below[e] & ~ideal == 0:
                counts[bin(ideal).count("1")] += ways * self.up[ideal | 1 << e]
        return counts

    def gap_counts(self, x, y):
        """[G_1..G_{n-1}]: extensions with rank(y) - rank(x) = k."""
        # with_x[ideal][j]: ways to build an ideal that holds x but not y,
        # with x at rank j
        with_x = {}
        gaps = [0] * self.n
        for ideal in sorted(self.down, key=lambda m: bin(m).count("1")):
            if ideal >> y & 1:
                continue
            size = bin(ideal).count("1")
            if not ideal >> x & 1:
                if self.below[x] & ~ideal == 0:
                    start = with_x.setdefault(ideal | 1 << x, {})
                    start[size + 1] = start.get(size + 1, 0) + self.down[ideal]
                continue
            table = with_x.get(ideal, {})
            for e in self.addable(ideal):
                if e == y:
                    finish = self.up[ideal | 1 << y]
                    for j, ways in table.items():
                        gaps[size + 1 - j] += ways * finish
                    continue
                grown = with_x.setdefault(ideal | 1 << e, {})
                for j, ways in table.items():
                    grown[j] = grown.get(j, 0) + ways
        return gaps[1:]


def spanning_trees(vertices, edges):
    """Kirchhoff: any cofactor of the multigraph Laplacian (loops ignored)."""
    import sympy

    lap = sympy.zeros(vertices, vertices)
    for u, v in edges:
        if u == v:
            continue
        lap[u, u] += 1
        lap[v, v] += 1
        lap[u, v] -= 1
        lap[v, u] -= 1
    if vertices == 1:
        return 1
    return int(lap[1:, 1:].det(method="bareiss"))
