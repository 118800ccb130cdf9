"""Slow routes for the Lorentzian certificate and for coefficient
log-concavity, used only as test oracles.

`recursive_lorentzian` follows the recursive definition of Brändén and Huh
through `MPoly.partial`; `sampled_lorentzian` tests Hessians of partials of
every order at positive sample points; `simplex_logconcavity` scans the whole
degree simplex; `m_convex_pairs` checks exchange over every pair of support
points; `substitute_linear` expands f(Ay) with one `Fraction` product per
factor. The library reads the order-(d-2) Hessians off the terms on their
support, visits support pairs, decides a 0/1 support as a matroid basis
family, and expands f(Ay) in ints instead. `scale_poly`, `add` and
`product` are the ring operations that the oracles and tests write by hand;
`MPoly` itself has none.
"""

import math
from collections import Counter
from fractions import Fraction

from logcavity.linalg import inertia
from logcavity.polynomials import MPoly, m_convex


def scale_poly(f, s):
    """s times f, for a rational s."""
    return MPoly(f.nvars, {e: c * Fraction(s) for e, c in f.terms.items()})


def add(f, g):
    """f + g, for polynomials in the same variables."""
    assert f.nvars == g.nvars, (f.nvars, g.nvars)
    out = Counter(f.terms)
    out.update(g.terms)
    return MPoly(f.nvars, out)


def product(f, g):
    """f g, for polynomials in the same variables."""
    assert f.nvars == g.nvars, (f.nvars, g.nvars)
    out = Counter()
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            out[tuple(a + b for a, b in zip(e1, e2))] += c1 * c2
    return MPoly(f.nvars, out)


def substitute_linear(f, a):
    """f(Ay) in a.cols variables, for a QMatrix A with one row per variable
    of f: each term expanded one linear form at a time, in Fractions."""
    m = a.cols
    lin = [[(j, x) for j, x in enumerate(a.m[i]) if x] for i in range(f.nvars)]
    out = Counter()
    for e, c in f.terms.items():
        term = {(0,) * m: c}
        for i in (i for i, k in enumerate(e) for _ in range(k)):
            nxt = Counter()
            for exp, x in term.items():
                for j, y in lin[i]:
                    nxt[exp[:j] + (exp[j] + 1,) + exp[j + 1 :]] += x * y
            term = nxt
        out.update(term)
    return MPoly(m, out)


def m_convex_pairs(exps):
    """Exchange over every ordered pair of equal-degree exponent vectors:
    for alpha_i > beta_i some j with alpha_j < beta_j has
    alpha - e_i + e_j in the set."""
    expset = set(map(tuple, exps))

    def moved(alpha, i, j):
        out = list(alpha)
        out[i] -= 1
        out[j] += 1
        return tuple(out)

    return all(
        any(
            alpha[j] < beta[j] and moved(alpha, i, j) in expset
            for j in range(len(alpha))
        )
        for alpha in expset
        for beta in expset
        for i in range(len(alpha))
        if alpha[i] > beta[i]
    )


def recursive_lorentzian(f):
    """f is in L^d: M-convex support, then every first partial in L^(d-1),
    down to quadratics whose (constant) Hessian has one positive eigenvalue.
    Needs nonnegative coefficients."""
    if f.is_zero():
        return True
    if not f.is_homogeneous() or not m_convex(f.support()):
        return False
    d = f.degree()
    if d < 2:
        return True
    if d == 2:
        return inertia(f.hessian_at((1,) * f.nvars)).n_pos == 1
    return all(recursive_lorentzian(f.partial(i)) for i in range(f.nvars))


def default_sample_points(nvars):
    """The all-ones point plus one rational perturbation pencil."""
    ones = tuple(Fraction(1) for _ in range(nvars))
    pencil = tuple(Fraction(10 + i, 10) for i in range(nvars))
    return (ones, pencil)


def exponents_up_to(n, max_total):
    """All exponent vectors in n variables of total degree <= max_total."""
    if n == 0:
        if max_total >= 0:
            yield ()
        return
    for k in range(max_total + 1):
        for rest in exponents_up_to(n - 1, max_total - k):
            yield (k,) + rest


def partial_multi(f, alpha):
    for i, k in enumerate(alpha):
        for _ in range(k):
            f = f.partial(i)
    return f


def sampled_lorentzian(f, sample_points=None):
    """(passed, failures): M-convex support, and for every partial of order
    at most d - 2 a Hessian with one positive eigenvalue at each sample
    point; failures are (alpha, point) pairs. Needs homogeneous f."""
    if sample_points is None:
        sample_points = default_sample_points(f.nvars)
    failures = []
    d = f.degree()
    for alpha in sorted(exponents_up_to(f.nvars, d - 2)):
        g = partial_multi(f, alpha)
        if g.is_zero():
            continue
        for point in sample_points:
            if inertia(g.hessian_at(point)).n_pos != 1:
                failures.append((alpha, point))
    return m_convex(f.support()) and not failures, failures


def simplex_logconcavity(f):
    """c_a^2 >= c_{a+ei-ej} c_{a-ei+ej} for every a of degree d and i != j,
    with c_a = a! times the coefficient of x^a and c = 0 off the simplex."""
    d = f.degree()
    n = f.nvars

    def c(exp):
        if any(e < 0 for e in exp):
            return Fraction(0)
        return f.coefficient(exp) * math.prod(math.factorial(e) for e in exp)

    for alpha in exponents_up_to(n, d):
        if sum(alpha) != d:
            continue
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                up = list(alpha)
                up[i] += 1
                up[j] -= 1
                down = list(alpha)
                down[i] -= 1
                down[j] += 1
                if c(alpha) ** 2 < c(up) * c(down):
                    return False
    return True
