"""Pinned fixture matroids, graphs, and posets used across tests and the CLI
selftest, plus seeded random generators for sweeps."""

import random

from .linalg import Graph, QMatrix
from .matroids import Matroid
from .posets import MarkedPoset, Poset
from .stanley import parallel_replicate


def k3_graph():
    return Graph(3, ((0, 1), (0, 2), (1, 2)))


def k4_graph():
    return Graph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))


def k23_graph():
    return Graph(5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)))


def doubled_k3_graph():
    return Graph(3, ((0, 1), (0, 1), (0, 2), (0, 2), (1, 2), (1, 2)))


def bridge_graph():
    """Triangle with a pendant bridge edge."""
    return Graph(4, ((0, 1), (1, 2), (1, 3), (2, 3)))


def three_by_five_matrix():
    """Totally unimodular 3x5 matrix whose column matroid carries the
    explicit degree-2 annihilator element."""
    return QMatrix([[1, 0, 0, 1, 0], [0, 1, 0, 1, 1], [0, 0, 1, 0, 1]])


def linear_3x5_matroid():
    return Matroid.linear(three_by_five_matrix(), [1, 2, 3, 4, 5])


def tripled_u23():
    m, r = parallel_replicate(Matroid.uniform(2, 3), 1, 2)
    return m


def matroid_zoo():
    """Named fixtures; every entry has at most 9 elements."""
    u23 = Matroid.uniform(2, 3)
    zoo = {
        "u23": u23,
        "u24": Matroid.uniform(2, 4),
        "u35": Matroid.uniform(3, 5),
        "boolean2": Matroid.uniform(2, 2),
        "boolean3": Matroid.uniform(3, 3),
        "graphic_k3": Matroid.graphic(k3_graph()),
        "graphic_k4": Matroid.graphic(k4_graph()),
        "graphic_k23": Matroid.graphic(k23_graph()),
        "graphic_bridge": Matroid.graphic(bridge_graph()),
        "graphic_doubled_k3": Matroid.graphic(doubled_k3_graph()),
        "linear_3x5": linear_3x5_matroid(),
        "tripled_u23": tripled_u23(),
        "truncated_boolean4": Matroid.uniform(4, 4).truncate(),
        "u23_plus_b1": Matroid.uniform(2, 3).direct_sum(
            Matroid.from_bases(["z"], [["z"]])
        ),
        "with_loop": Matroid.graphic(Graph(3, ((0, 1), (0, 2), (1, 2), (2, 2)))),
    }
    return zoo


def loopless_zoo():
    return {
        name: m for name, m in matroid_zoo().items() if not m.loops()
    }


def ratio_two_witness_poset() -> MarkedPoset:
    """Frozen marked poset realizing consecutive Kahn-Saks counts (1, 2, 4):
    found by bounded search over posets on at most 8 elements."""
    p = Poset.from_relations(
        ["x", "y", "u1", "u2", "w1", "w2"],
        [("x", "y"), ("x", "u1"), ("u1", "u2"), ("w1", "w2"), ("w2", "y")],
    )
    return MarkedPoset(p, "x", "y")


def random_poset(rng: random.Random, n, density=0.35) -> Poset:
    """Seeded random poset: random strict relations on a shuffled order,
    transitively closed."""
    labels = [f"e{i}" for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    relations = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                relations.append((labels[perm[i]], labels[perm[j]]))
    return Poset.from_relations(labels, relations)


def random_marks(rng: random.Random, p: Poset):
    """A uniformly chosen ordered pair (x, y) with y not below x."""
    pairs = [
        (a, b)
        for a in p.labels
        for b in p.labels
        if a != b and not p.lt(b, a)
    ]
    return rng.choice(pairs)


def random_connected_multigraph(rng: random.Random, max_vertices=6, max_edges=9):
    n = rng.randint(3, max_vertices)
    edges = []
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        edges.append((order[rng.randint(0, i - 1)], order[i]))
    extra = rng.randint(0, max_edges - len(edges))
    for _ in range(extra):
        u = rng.randint(0, n - 1)
        v = rng.randint(0, n - 1)
        while v == u:
            v = rng.randint(0, n - 1)
        edges.append((u, v))
    return Graph(n, tuple(edges))


def random_psd_with_factor(rng: random.Random, n, spread=3):
    """(PSD matrix X X^T, its integer factor X), both built in ints."""
    x = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
    gram = [[sum(a * b for a, b in zip(u, v)) for v in x] for u in x]
    return QMatrix(gram, n), QMatrix(x, n)
