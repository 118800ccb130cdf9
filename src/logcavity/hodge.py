"""The Gorenstein quotient of the basis generating polynomial: graded
dimensions, annihilator membership, Hodge-Riemann forms, HL/HRR
certification, facet scans, socle checks, the graded Moebius algebra
pairing, and open-question probes.

Degree-k classes are represented on independent squarefree k-subsets; because
the basis generating polynomial is multilinear, every evaluation matrix is
0/1, held as int rows, and its row bases and kernels, like the inertias of
the Hodge-Riemann forms, come from fraction-free integer elimination.
"""

import math
from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress

from .errors import LogcavityError
from .linalg import (
    Inertia,
    QMatrix,
    Record,
    _q,
    _scaled,
    _shown,
    inertia,  # noqa: F401  -- perfbench's tracer self-test wraps hodge.inertia
    integer_det,
    integer_inertia,
    integer_row_basis,
    kernel_witness,
)
from .matroids import Matroid


class GradedEvaluation(Record):
    """E_k on flats, pairing degree k with r-k. row_masks: the sorted
    independent k-sets; firsts: the first row of each rank-k flat, in row
    order; col_flats: the rank-(r-k) flats by first appearance among the
    sorted (r-k)-sets; entries: 1 at (F, G) iff rank(F | G) = r, so E_(r-k)
    on flats is their transpose. dim A^k is their rank, and the rows at
    basis_positions (the greedy row basis, taken on first use) a basis, and
    pairing_inertia, taken on first use too, is the inertia of entries,
    the Moebius pairing in the middle degree."""

    _fields = ("k", "row_masks", "firsts", "col_flats", "entries")

    @cached_property
    def basis_positions(self):
        return tuple(self.firsts[i] for i in integer_row_basis(self.entries))

    @cached_property
    def pairing_inertia(self):
        return integer_inertia(self.entries, len(self.firsts))[1]

    @property
    def dimension(self):
        return len(self.basis_positions)


def _first_per_flat(closures, masks):
    """{flat: the index of its first mask}, in mask order; closures maps each
    mask to its flat."""
    firsts = {}
    for i, a in enumerate(masks):
        firsts.setdefault(closures[a], i)
    return firsts


def graded_evaluation(m: Matroid, k) -> GradedEvaluation:
    """E_k on one row and one column per flat. a | c is a basis iff
    rank(cl(a) | c) = r, so a row or column depends only on its closure: a
    later row of a flat copies an earlier one, which the greedy basis never
    takes, and a repeated column changes no row dependency."""
    if not 0 <= k <= m.rank:
        raise LogcavityError(f"degree {_shown(k)} outside 0..rank = {m.rank}")
    row_masks = tuple(m.independent_subsets(k))
    firsts = tuple(_first_per_flat(m._flats(k), row_masks).values())
    col_masks = m.independent_subsets(m.rank - k)
    cols = _first_per_flat(m._flats(m.rank - k), col_masks)
    reps = [col_masks[i] for i in cols.values()]
    base_set = m._independent()[m.rank]
    entries = [[1 if row_masks[i] | c in base_set else 0 for c in reps] for i in firsts]
    return GradedEvaluation(k, row_masks, firsts, tuple(cols), entries)


def graded_dims(m: Matroid):
    """dim A^0 .. dim A^rank. With independent rows, E_(r-k) is E_k
    transposed, so dim A^(r-k) = dim A^k: one elimination serves both, and
    the dimensions are palindromic by construction."""
    return [evaluation(m, min(k, m.rank - k)).dimension for k in range(m.rank + 1)]


def in_annihilator(m: Matroid, coeffs) -> bool:
    """Whether sum of coeff * X^S (squarefree S of one common size) kills the
    basis generating polynomial. coeffs: {frozenset of labels: rational}.
    The sum does iff it pairs to 0 with each independent (r-k)-set c. A
    dependent S lies in no basis, and S | c is a basis iff rank(cl(S) | c) =
    r, so the coefficients summed per flat cl(S) are tested on E_k on flats."""
    items = [(m._mask(s), Fraction(c)) for s, c in coeffs.items()]
    sizes = {mask.bit_count() for mask, _ in items}
    if len(sizes) > 1:
        raise LogcavityError("mixed degrees in annihilator test")
    if not sizes:
        return True  # the empty combination is the zero class
    k = sizes.pop()
    flats = m._flats(k) if k <= m.rank else {}
    weights = {}
    for mask, c in items:
        if mask in flats:
            weights[flats[mask]] = weights.get(flats[mask], 0) + c
    if not any(weights.values()):
        return True  # every S is dependent, or the sums per flat cancel
    ev = evaluation(m, k)
    rows = {flats[ev.row_masks[i]]: row for i, row in zip(ev.firsts, ev.entries)}
    columns = zip(*(rows[f] for f in weights))
    return not any(sum(compress(weights.values(), col)) for col in columns)


def evaluation(m: Matroid, k) -> GradedEvaluation:
    """`graded_evaluation(m, k)`, kept in m's table of degrees on first use."""
    if k not in m._evals:
        m._evals[k] = graded_evaluation(m, k)
    return m._evals[k]


def _sums(m: Matroid, size, point):
    """({S: d^S f(nums)}, c = den^(r - size)) over the independent S of this
    size, f the basis generating polynomial of m, at the integer point
    (den, *nums) that `_point` makes of a rational one, nums_i / den its
    coordinates: d^S f is homogeneous of degree r - |S|, so each value is
    c d^S f(nums / den). By Euler's identity (r - |S|) d^S f = sum over i
    outside S of x_i d^(S+i) f, so each size is summed, in integers and
    exactly divided, from the one above, down from 1 on the bases or the
    nearest size kept for the point in m's tables; only the sizes asked
    for are kept, and only for the last point asked, so a new point drops
    the sums of the one before."""
    if point not in m._tables:
        m._tables.clear()
    r, levels = m.rank, m._tables.setdefault(point, {})
    top = min((s for s in levels if s >= size), default=r)
    sums = levels[top] if top in levels else dict.fromkeys(m.bases, 1)
    for s in range(top, size, -1):
        above, sums = sums, {}
        for t, x in above.items():
            rest = t
            while rest:  # each i in t, lowest first; nums_i is point[i + 1]
                low = rest & -rest
                rest ^= low
                term = point[low.bit_length()] * x
                sums[t ^ low] = sums.get(t ^ low, 0) + term
        sums = {a: x // (r - s + 1) for a, x in sums.items()}
    levels[size] = sums
    return sums, point[0] ** (r - size)


def value(m: Matroid, point) -> Fraction:
    """f(point), at the integer point of `_sums`."""
    sums, scale = _sums(m, 0, point)
    return Fraction(sums[0], scale)


def hr_inertia(m: Matroid, k, point):
    """(In(Q^k), In([[Q^k, U], [U^T, 0]])), with U(a, b) = deg(a b l^(r-2k+1))
    pairing degree k with k-1 (no columns when k = 0). deg(a b l^p) = p!
    d^(a|b) f(point), so Q^k = a (-1)^k S_2k and U = b S_2k-1 in the integer
    sums, with a, b > 0: scaling the whole by 1/a and the congruence
    diag(I, (a/b) I) show that [[(-1)^k S_2k, S_2k-1], [S_2k-1^T, 0]] has the
    same two inertias, which one `integer_inertia` of it gives.

    Where Q^(k-1) is non-degenerate, the second inertia is read off In(Q^k)
    and In(Q^(k-1)) instead, each eliminated alone, by the Lefschetz
    decomposition A^k = P^k (+) l A^(k-1) (Huybrechts, Complex Geometry,
    2005, 1.2 and 3.3). Proof: for x, y of degree k-1, Q^k(l x, l y) =
    (-1)^k deg(x y l^(r-2k+2)) = -Q^(k-1)(x, y). If U y = 0, then
    Q^(k-1)(x, y) = -(-1)^k U(l x, y) = 0 for every x, so y = 0: U has rank
    d = dim A^(k-1), l is injective on A^(k-1), and Q^k on L = l A^(k-1) is
    -Q^(k-1), non-degenerate. So A^k = L (+) P with P the Q^k-orthogonal of
    L, the x with Q^k(x, l y) = (-1)^k U(x, y) = 0 for all y: P = ker U^T,
    the primitive classes, and In(Q^k) = In(Q^k on P) + In(-Q^(k-1)). The
    rule of `_verdicts`, In(bordered) = In(Q^k on P) + (d, d, 0) at rank d,
    then reads (n+(Q^k) - n-(Q^(k-1)) + d, n-(Q^k) - n+(Q^(k-1)) + d,
    n0(Q^k)). The scales are positive, so the integer rows keep all of it."""
    check_degree(m, k)
    q = _form(m, k, point)  # first, so that the size-(2k-2) sums descend from it
    below = _form_inertia(m, k - 1, point) if k else Inertia(0, 0, 0)
    if not below.n_zero:
        block = integer_inertia(q, len(q))[1]
        pos, neg, zero = block._values()
        d = below.dimension
        return block, Inertia(pos - below.n_neg + d, neg - below.n_pos + d, zero)
    lower = _basis(m, k - 1)
    u = _pairing(m, _basis(m, k), lower, 2 * k - 1, point)
    rows = [qr + ur for qr, ur in zip(q, u)]
    rows += [list(col) + [0] * len(lower) for col in zip(*u)]
    return integer_inertia(rows, len(q))


def _form(m: Matroid, k, point):
    """Q^k on the basis of degree k, as the int rows (-1)^k S_2k."""
    basis, sign = _basis(m, k), (-1) ** k
    return [[sign * x for x in row] for row in _pairing(m, basis, basis, 2 * k, point)]


def _form_inertia(m: Matroid, k, point):
    """In(Q^k), by one `integer_inertia` of `_form`."""
    q = _form(m, k, point)
    return integer_inertia(q, len(q))[1]


def _basis(m: Matroid, k):
    ev = evaluation(m, k)
    return [ev.row_masks[i] for i in ev.basis_positions]


def _pairing(m: Matroid, rows, cols, size, point):
    """The int rows c d^(a|b) f(point) of `_sums`, for a in rows and b in
    cols with |a| + |b| = size; 0 when a and b meet."""
    table = _sums(m, size, point)[0] if cols else {}
    return [[table.get(a | b, 0) for b in cols] for a in rows]


def check_degree(m: Matroid, k):
    """Raise unless k is a degree of the Hodge-Riemann statements on m."""
    if not 0 <= 2 * k <= m.rank:
        raise LogcavityError(f"need 0 <= 2k <= rank, got k={_shown(k)}, rank={m.rank}")


def _point(m: Matroid, point):
    """(den, *nums): the rational point times den, the lcm of its denominators."""
    den, (nums,) = _scaled([map(_q, point)])
    if len(nums) != m.n:
        raise LogcavityError(f"point needs {m.n} coordinates, got {len(nums)}")
    return den, *nums


def _positive_point(m: Matroid, point):
    """The integer point of `_point`, at which f must be positive."""
    point = _point(m, point)
    if value(m, point) <= 0:
        raise LogcavityError(
            "HL/HRR criteria need the basis generating polynomial f(point) > 0"
        )
    return point


def hr_form(m: Matroid, k, point) -> QMatrix:
    """Hodge-Riemann form Q^k(x1, x2) = (-1)^k deg(x1 x2 l^(r-2k)) on the
    selected basis of the degree-k piece, deg(a b l^p) being p! d^(a|b) f.
    No command reads the matrix (`hr_inertia` takes its inertia from the
    integer sums); the benchmark's per-layer metrics time it by this name."""
    check_degree(m, k)
    point = _point(m, point)
    basis, p = _basis(m, k), m.rank - 2 * k
    weight = Fraction((-1) ** k * math.factorial(p), point[0] ** p)
    rows = _pairing(m, basis, basis, 2 * k, point)
    return QMatrix([x * weight for x in row] for row in rows)


def hl_check(m: Matroid, k, point) -> bool:
    """Hard Lefschetz in degree k at the point: the Lefschetz map has full
    rank, equivalently the Hodge-Riemann form is non-degenerate (its matrix
    is the Lefschetz map written through the Poincare pairing)."""
    return _verdicts(*hr_inertia(m, k, _positive_point(m, point)))[0]


def hrr_check(m: Matroid, k, point) -> bool:
    """Hodge-Riemann relations in degree k at the point: Q^k positive
    definite on the primitive subspace."""
    return _verdicts(*hr_inertia(m, k, _positive_point(m, point)))[1]


def _verdicts(block: Inertia, bordered: Inertia):
    """(HL, HRR) from the two inertias of `hr_inertia`. HL: Q^k is
    non-degenerate. HRR: Q^k is positive definite on the primitive classes,
    the kernel of U^T: for U of any rank rho, In([[Q, U], [U^T, 0]]) =
    In(Q on ker U^T) + (rho, rho, cols(U) - rho) (Haynsworth 1968;
    Chabrillac and Crouzeix 1984), so exactly when the bordered matrix has
    rows(Q) positives. Where Q^(k-1) is non-degenerate, `hr_inertia` reads
    the bordered inertia off the Lefschetz decomposition A^k = P^k (+)
    l A^(k-1), orthogonal for Q^k, on whose second part Q^k is -Q^(k-1):
    there rho = dim A^(k-1), and n+(Q^k) - n-(Q^(k-1)) + rho = dim A^k says
    that Q^k has dim P^k positives beyond those of -Q^(k-1), that is, that
    it is positive definite on P^k."""
    return block.n_zero == 0, bordered.n_pos == block.dimension


class FacetElementReport(Record):
    _fields = ("element", "coloop", "hrr_at_ones", "hrr_at_pencil", "matches_theorem")


class FacetScanReport(Record):
    _fields = (
        "elements",
        "subset_checks",  # (labels, hrr) pairs for low-rank coloop-free subsets
        "degenerate_subsets",  # coloop-free low-rank S met by every basis
        "inverse_hessian_nonzero",  # (element, ok) pairs where applicable
        "all_consistent",
    )


def facet_point(m: Matroid, zero_labels, pencil=False):
    """Deterministic point on the relative interior of the facet x_S = 0:
    zero on S, 1 elsewhere (or the 1 + i/10 pencil)."""
    zeros = {m._index[e] for e in zero_labels}
    out = []
    live = 0
    for i in range(m.n):
        if i in zeros:
            out.append(Fraction(0))
        else:
            out.append(Fraction(10 + live, 10) if pencil else Fraction(1))
            live += 1
    return tuple(out)


def facet_theorem_scan(m: Matroid, subset_size_cap=2) -> FacetScanReport:
    """HRR_1 on facet points versus coloop status, plus coloop-free low-rank
    subset facets and the inverse-Hessian determinant identity."""
    if m.rank < 2:
        raise LogcavityError("facet scan needs rank >= 2")
    coloops = m.coloops()
    per_element = []
    for e in m.ground:
        verdicts = []
        for pencil in (False, True):
            point = _point(m, facet_point(m, [e], pencil))
            verdicts.append(_verdicts(*hr_inertia(m, 1, point))[1])
        is_coloop = e in coloops
        per_element.append(
            FacetElementReport(
                e,
                is_coloop,
                verdicts[0],
                verdicts[1],
                verdicts[0] == verdicts[1] == (not is_coloop),
            )
        )
    # HRR_1 holds on relint H_S exactly when some basis avoids S; a
    # coloop-free low-rank S met by every basis makes f vanish on the face
    # and kills the form, so those are separated out as degenerate.
    subset_checks = []
    degenerate = []
    for size in range(2, subset_size_cap + 1):
        for combo in combinations(m.ground, size):
            if set(combo) & coloops:
                continue
            if m.rank_of(combo) > m.rank - 2:
                continue
            point = _point(m, facet_point(m, combo))
            complement = [e for e in m.ground if e not in combo]
            if m.rank_of(complement) < m.rank:
                degenerate.append((combo, _verdicts(*hr_inertia(m, 1, point))[1]))
                continue
            subset_checks.append((combo, _verdicts(*hr_inertia(m, 1, point))[1]))
    inverse_hessian = []
    simple = not m.loops() and all(
        len(c) == 1 for c in m.parallel_data().classes
    )
    if simple:
        for e in m.ground:
            if e in coloops:
                continue
            # f(point) > 0 here: some basis avoids the non-coloop e
            point = _point(m, facet_point(m, [e]))
            # gradient of d_e f and Hessian of f - x_e d_e f at p_e = 0: the
            # bases through e carry the factor p_e, so both read off the
            # size-2 sums, scaled by one positive c; the diagonal is zero as
            # f is multilinear, and the table holds no 1-set for it
            d2 = _sums(m, 2, point)[0]
            idx = m._index[e]
            keep = [i for i in range(m.n) if i != idx]
            grad = [d2.get(1 << idx | 1 << i, 0) for i in keep]
            sub = [[d2.get(1 << i | 1 << j, 0) for j in keep] for i in keep]
            inverse_hessian.append((e, _inverse_form_nonzero(sub, grad)))
    consistent = (
        all(r.matches_theorem for r in per_element)
        and all(ok for _, ok in subset_checks)
        and all(not ok for _, ok in degenerate)
        and all(ok for _, ok in inverse_hessian)
    )
    return FacetScanReport(
        tuple(per_element),
        tuple(subset_checks),
        tuple(degenerate),
        tuple(inverse_hessian),
        consistent,
    )


def _inverse_form_nonzero(h, g):
    """Whether g^T H^-1 g is defined and nonzero, for int rows h and an int
    vector g: det H != 0 and det [[H, g], [g^T, 0]] = -det H g^T H^-1 g != 0
    (Schur complement). A positive scale of H and g keeps both."""
    bordered = [row + [x] for row, x in zip(h, g)] + [g + [0]]
    return integer_det(h) != 0 and integer_det(bordered) != 0


def socle_check(m: Matroid, k, S) -> bool:
    """Triviality of {x in degree k : x kills every contraction derivative
    away from S}; requires rank(S) <= rank - k - 1.

    The constraint for e outside S and an independent (r-k-1)-set gamma
    avoiding e is the column of the degree-k evaluation matrix at gamma + e,
    or zero when that set is dependent. So the socle is trivial exactly when
    the columns at the independent (r-k)-sets not inside S span the column
    space. Under the rank bound no independent (r-k)-set lies inside S, so
    every column is reached and the socle is always trivial: past the rank
    check this returns True, and it certifies nothing beyond that bound."""
    if m._rank_mask(m._mask(S)) > m.rank - k - 1:
        raise LogcavityError(
            "socle statement needs rank(S) <= rank(M) - k - 1"
        )
    return True


def mobius_pairing(m: Matroid, k):
    """(number of rank-k flats, inertia of the degree-k pairing of the graded
    Moebius algebra; Huh and Wang, Acta Math. 2017).

    Entry (F, G) is 1 iff rank(F join G) = 2k = rank(M). For 2k = r that is
    E_k on flats, whose rows and columns are the same rank-k flats in the
    same order; for 2k < r, rank(F | G) <= 2k < r, so the pairing is zero."""
    check_degree(m, k)
    ev = evaluation(m, k)
    count = len(ev.firsts)
    if 2 * k < m.rank:
        return count, Inertia(0, 0, count)
    return count, ev.pairing_inertia


class ContainmentProbe(Record):
    """counterexample: (degree, {label frozenset: coefficient}) or None."""

    _fields = ("element", "contained", "counterexample")


def annihilator_containment_probe(m: Matroid, e) -> ContainmentProbe:
    """Whether the annihilator of the deletion embeds into that of the
    contraction (open question; reported, never asserted).

    Both minors are read inside M. For a non-loop e, the degree-k rows and
    columns of M\\e are the independent k- and (r-k)-sets of M avoiding e,
    in the deletion's order, the columns of M/e the independent (r-k)-sets
    containing e, and an entry is 1 iff row | column is a basis of M, iff
    rank(cl(row) | column) = r. So rows spanning one flat are equal in both
    matrices: a later row's kernel vector is e_j - e_i, which never fails,
    or the first row's plus that. One column per flat, in row order, and one
    row per column flat give every vector that can fail first: M's
    E_(r-k) on flats at the flats an e-avoiding (r-k)-set spans (deletion)
    and at those that hold e (contraction). With R the RREF of the deletion
    rows and p_i its pivots, the kernel vector of a free column f is v_f =
    e_f - sum_i R_i[f] e_(p_i), and a contraction row c has c . v_f =
    rho(c)_f, for rho(c) = c - sum_i c_(p_i) R_i, c reduced modulo the
    deletion rows. So degree k holds iff every rho(c) is 0, and else the
    first vector that fails is v_f at the least f with some rho(c)_f != 0, where
    `kernel_witness`'s one elimination of both, pivoting on deletion rows, stops.
    It is reported by its nonzero coefficients, in row order, keyed by their
    rows' label sets: the shape `in_annihilator` takes. A loop has M/e = M\\e."""
    bit = m._mask([e])
    if e in m.coloops():
        raise LogcavityError(
            f"the containment probe needs a non-coloop; {e!r} is a coloop"
        )
    if e in m.loops():
        return ContainmentProbe(e, True, None)
    for k in range(1, m.rank):
        ev, co = evaluation(m, k), evaluation(m, m.rank - k)
        avoiding = [a for a in ev.row_masks if not a & bit]
        firsts = _first_per_flat(m._flats(k), avoiding)
        column = {f: j for j, f in enumerate(co.col_flats)}
        picks = [column[f] for f in firsts]
        deletion, contraction = [], []
        for g, row in zip(ev.col_flats, co.entries):
            picked = [row[j] for j in picks]
            if g & bit:
                contraction.append(picked)
            if not g & bit or m._rank_mask(g ^ bit) == m.rank - k:
                deletion.append(picked)
        v = kernel_witness(deletion, contraction, len(picks))
        if v is None:
            continue
        coeffs = {m._labels(avoiding[i]): x for i, x in zip(firsts.values(), v) if x}
        return ContainmentProbe(e, False, (k, coeffs))
    return ContainmentProbe(e, True, None)


def hodge_report(m: Matroid, k, point):
    """(results, findings, violations) of the `hodge` command in degree k at
    the rational point: the graded dimensions, the Moebius pairing, the
    inertia of Q^k and, where f(point) > 0, HL and HRR, HRR_1 being a
    theorem at a strictly positive point; below the rank, the socle."""
    count, iner = mobius_pairing(m, k)  # first, as it checks the degree
    results = {"graded_dims": graded_dims(m), "k": k}
    violations = []
    results["mobius_pairing"] = {"flats": count, "inertia": iner._values()}
    # one pair of inertias gives In(Q^k), and HL and HRR where f > 0
    at = _point(m, point)
    block, bordered = hr_inertia(m, k, at)
    results["hr_form_inertia"] = block._values()
    if value(m, at) > 0:
        results["hl"], results["hrr"] = _verdicts(block, bordered)
        if k == 1 and all(x > 0 for x in point) and not results["hrr"]:
            violations.append("HRR_1 failed at a strictly positive point")
    # for S = [] the rank bound reads k < rank; under it the check holds
    if k < m.rank:
        results["socle_trivial"] = socle_check(m, k, [])
    return results, [], violations


def probe_report(m: Matroid, elements):
    """(results, findings, violations) of the `probe` command: the
    containment probe at each non-coloop of elements, in order, a
    counterexample being a finding, never a violation."""
    findings, probed = [], []
    coloops = m.coloops()
    # clones share a verdict (their swap carries M\e, M/e to M\f, M/f); a
    # counterexample depends on row order, so only "contained" is copied
    classes, contained = m.clone_classes(), set()
    for e in elements:
        if e in coloops:
            continue
        probed.append(str(e))
        if classes[m._index[e]] in contained:
            continue
        probe = annihilator_containment_probe(m, e)
        if probe.contained:
            contained.add(classes[m._index[e]])
        else:
            k, coeffs = probe.counterexample
            findings.append(
                {
                    "kind": "annihilator-containment-counterexample",
                    "element": str(e),
                    "degree": k,
                    "vector": [
                        {"subset": sorted(map(str, s)), "coeff": str(c)}
                        for s, c in coeffs.items()
                    ],
                }
            )
    results = {"elements_probed": probed, "containment_holds_everywhere": not findings}
    return results, findings, []
