"""Slow routes for the Gorenstein ring of a matroid, used only as test
oracles.

Derivative values walk a chain of `MPoly.partial` and then evaluate; HRR_k
takes a kernel basis of the Lefschetz pairing and runs the inertia of
K^T Q K, and HRR_1 also reads the signature of -Q^1; socle triviality takes
the kernel of the constraint matrix and applies the transposed evaluation
matrix to each kernel vector; graded dimensions take one `Fraction` rank per
degree, and annihilators one `Fraction` kernel over every squarefree
monomial; the containment probe takes `Fraction` kernels and sums on the
minors; the Moebius pairing walks the full lattice of flats; E_k is taken
whole, every independent k-set against every independent (r-k)-set, and an
annihilator test scans every independent (r-k)-set; the inverse-Hessian
identity solves H x = g; the bordered inertia of HRR_k is one integer
elimination of the whole bordered form, in every case. The library reads
derivative values off the basis masks, decides In(Q^k) and HRR_k from
In(Q^k) and In(Q^(k-1)) by the Lefschetz decomposition, eliminating the
bordered form only where Q^(k-1) is singular, and socle triviality by a
column containment, reads dim A^(r-k) off E_k on one row
and column per flat, tests annihilator membership by the coefficients
summed per flat against E_k on flats, the inverse Hessian by two integer
determinants, runs the probe inside M by one echelon of the deletion rows
per degree, the contraction rows reduced against it and the witness found
by one back substitution, and reads the Moebius pairing off E_(r/2) on
flats, taking it as zero below the middle degree.
"""

import math
from fractions import Fraction
from itertools import combinations

import linalg_oracle
import lorentzian_oracle
import matroid_oracle
from logcavity.hodge import _pairing, facet_point, graded_evaluation
from logcavity.linalg import Inertia, QMatrix, _bits, inertia, integer_inertia
from logcavity.linalg import kernel_basis
from logcavity.matroids import FlatLattice
from logcavity.polynomials import MPoly, basis_generating_poly
from linalg_oracle import apply, identity, product, scale, solve, transpose
from lorentzian_oracle import scale_poly
from matroid_oracle import contract, delete, independent_subsets


def derivative(m, mask, point):
    """d^S f(point) for the set S given by mask, through MPoly.partial."""
    g = basis_generating_poly(m)
    for i in _bits(mask):
        g = g.partial(i)
    return g.evaluate(point)


def pairing(m, rows, cols, point):
    """deg(a b l^p) = p! d^(a|b) f(point), 0 when a and b meet."""
    out = []
    for a in rows:
        row = []
        for b in cols:
            if a & b:
                row.append(Fraction(0))
                continue
            power = m.rank - bin(a | b).count("1")
            row.append(math.factorial(power) * derivative(m, a | b, point))
        out.append(row)
    return out


def full_evaluation(m, k):
    """(rows, columns, entries) of the whole E_k: every independent k-set
    against every independent (r-k)-set, as masks in increasing order, and
    0/1 int rows, 1 iff the union is a basis."""
    rows = independent_subsets(m, k)
    cols = independent_subsets(m, m.rank - k)
    bases = set(m.bases)
    entries = [[int(a & c == 0 and a | c in bases) for c in cols] for a in rows]
    return rows, cols, entries


def annihilator_scan(m, coeffs):
    """`in_annihilator` by its defining test: the combination pairs to 0
    with every independent (r-k)-set, summed over the bases S | gamma."""
    items = [(m._mask(s), Fraction(c)) for s, c in coeffs.items()]
    sizes = {mask.bit_count() for mask, _ in items}
    if not sizes:
        return True
    k = sizes.pop()
    if k > m.rank:
        return True  # there is no (r-k)-set to pair with
    bases = set(m.bases)
    return not any(
        sum(c for mask, c in items if mask & gamma == 0 and mask | gamma in bases)
        for gamma in independent_subsets(m, m.rank - k)
    )


def _basis(m, k):
    ev = graded_evaluation(m, k)
    return [ev.row_masks[i] for i in ev.basis_positions]


def hr_form(m, k, point):
    """Q^k on the selected basis of degree k."""
    basis = _basis(m, k)
    return scale(QMatrix(pairing(m, basis, basis, point)), (-1) ** k)


def bordered_inertia(m, k, at):
    """(In(Q^k), In([[Q^k, U], [U^T, 0]])) at the integer point at, by two
    `integer_inertia` calls, of Q^k and of the bordered form, both built
    from the library's integer sums: Q^k = (-1)^k S_2k and U = S_2k-1, as
    `hr_inertia` scales them."""
    basis = _basis(m, k)
    lower = _basis(m, k - 1) if k else []
    sign = (-1) ** k
    q = [[sign * x for x in qr] for qr in _pairing(m, basis, basis, 2 * k, at)]
    u = _pairing(m, basis, lower, 2 * k - 1, at)
    rows = [qr + ur for qr, ur in zip(q, u)]
    rows += [list(col) + [0] * len(lower) for col in zip(*u)]
    return integer_inertia(q), integer_inertia(rows)


def positive_on_kernel(q, u):
    """q positive definite on ker u^T: kernel basis K, then inertia of
    K^T q K."""
    if u.cols:
        kernel = kernel_basis(transpose(u))
    else:  # no constraint: every vector is in the kernel
        kernel = list(identity(q.rows).m)
    if not kernel:
        return True
    kmat = QMatrix(zip(*kernel))
    iner = inertia(product(transpose(kmat), q, kmat))
    return iner.n_pos == len(kernel) and iner.n_neg == 0 and iner.n_zero == 0


def hrr_verdict(m, k, point):
    """Q^k positive definite on the kernel of the pairing with degree k-1."""
    basis = _basis(m, k)
    lower = _basis(m, k - 1) if k else []
    u = QMatrix(pairing(m, basis, lower, point))
    return positive_on_kernel(hr_form(m, k, point), u)


def hrr_signature_route(m, point):
    """Degree-1 route: where f(point) > 0, HRR_1 holds iff -Q^1 has
    signature (+, -, ..., -)."""
    neg = scale(hr_form(m, 1, point), -1)
    return inertia(neg) == Inertia(1, neg.rows - 1, 0)


def kernel_contained(constraint, target):
    """Whether ker constraint is inside ker target: kernel vectors of the
    constraint, each applied to the target. A constraint with no rows
    leaves the whole space."""
    if constraint.rows:
        kernel = kernel_basis(constraint)
    else:
        kernel = identity(target.cols).m
    for v in kernel:
        if any(x != 0 for x in apply(target, v)):
            return False
    return True


def socle_check(m, k, S):
    """Constraint rows (e, gamma) for e outside S and independent
    (r-k-1)-sets gamma, against the transposed degree-k evaluation."""
    s_mask = m._mask(S)
    alphas = m.independent_subsets(k)
    base_set = set(m.bases)
    rows = []
    for e in range(m.n):
        if s_mask >> e & 1:
            continue
        e_bit = 1 << e
        for gamma in m.independent_subsets(m.rank - k - 1):
            if gamma & e_bit:
                continue
            rows.append(
                [
                    int(a & (gamma | e_bit) == 0
                        and (a | gamma | e_bit) in base_set)
                    for a in alphas
                ]
            )
    target = QMatrix(zip(*full_evaluation(m, k)[2]))
    return kernel_contained(QMatrix(rows), target)


def inverse_hessian_nonzero(m):
    """The inverse-Hessian determinant identity of `facet_theorem_scan`
    through polynomial arithmetic: (element, ok) per non-coloop e with
    f > 0 at the facet point."""
    f = basis_generating_poly(m)
    coloops = m.coloops()
    out = []
    for e in m.ground:
        if e in coloops:
            continue
        point = facet_point(m, [e])
        if f.evaluate(point) <= 0:
            continue
        idx = m._index[e]
        keep = [i for i in range(m.n) if i != idx]
        contracted = f.partial(idx)
        grad = [contracted.partial(i).evaluate(point) for i in keep]
        x_e = MPoly(m.n, {tuple(int(i == idx) for i in range(m.n)): 1})
        minus = scale_poly(lorentzian_oracle.product(x_e, contracted), -1)
        deleted = lorentzian_oracle.add(f, minus)
        sub = linalg_oracle.submatrix(deleted.hessian_at(point), keep, keep)
        x = solve(sub, grad)
        value = 0 if x is None else sum(g * xi for g, xi in zip(grad, x))
        out.append((e, value != 0))
    return tuple(out)


def containment_probe(m, e):
    """(contained, counterexample) of the annihilator containment probe by
    its `Fraction` route: the kernel of the transposed deletion evaluation by
    `Fraction` elimination, each kernel vector tested against every
    contraction column by a `Fraction` sum over label sets. A counterexample
    is (k, {label frozenset: coefficient}) over the nonzero coefficients, in
    row order."""
    deleted = delete(m, [e])
    contracted = contract(m, [e])
    base_set = set(contracted.bases)
    for k in range(1, deleted.rank + 1):
        rows = independent_subsets(deleted, k)
        cols = independent_subsets(deleted, deleted.rank - k)
        bases = set(deleted.bases)
        matrix = QMatrix(
            [Fraction(int(a & c == 0 and a | c in bases)) for a in rows]
            for c in cols
        )
        vectors = linalg_oracle.kernel_basis(matrix)
        subsets = tuple(deleted._labels(a) for a in rows)
        if contracted.rank - k < 0:
            continue
        for vec in vectors:
            for gamma in independent_subsets(contracted, contracted.rank - k):
                total = Fraction(0)
                for coeff, labels in zip(vec, subsets):
                    if coeff == 0:
                        continue
                    mask = contracted._mask(labels)
                    if mask & gamma == 0 and (mask | gamma) in base_set:
                        total += coeff
                if total != 0:
                    coeffs = {s: c for s, c in zip(subsets, vec) if c != 0}
                    return False, (k, coeffs)
    return True, None


def annihilator_basis(m, k):
    """(the squarefree k-sets as label sets, a `Fraction` basis of the
    degree-k annihilator on them): the kernel of the transposed evaluation
    over every k-set, dependent ones included."""
    bases = set(m.bases)
    rows = [sum(1 << i for i in c) for c in combinations(range(m.n), k)]
    cols = independent_subsets(m, m.rank - k)
    matrix = QMatrix([Fraction(int(a | c in bases)) for a in rows] for c in cols)
    return [m._labels(a) for a in rows], linalg_oracle.kernel_basis(matrix)


def graded_dims(m):
    """dim A^k as the rank of a `Fraction` evaluation matrix, for every k."""
    bases = set(m.bases)
    dims = []
    for k in range(m.rank + 1):
        rows = independent_subsets(m, k)
        cols = independent_subsets(m, m.rank - k)
        matrix = QMatrix([Fraction(int(a | c in bases)) for c in cols] for a in rows)
        dims.append(linalg_oracle.rank_of_matrix(matrix))
    return dims


def mobius_pairing(m, k):
    """(number of rank-k flats, inertia of the top-degree pairing) on the
    full lattice of flats: entry (F, G) is 1 iff rank(F | G) = 2k = rank(M),
    by the oracle rank and `Fraction` elimination."""
    flats = FlatLattice.of(m).flats_by_rank[k]
    rows = [
        [int(2 * k == m.rank == matroid_oracle.rank(m, m._mask(F | G))) for G in flats]
        for F in flats
    ]
    return len(flats), linalg_oracle.inertia(QMatrix(rows))
