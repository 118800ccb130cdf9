"""Exact multivariate polynomials and the Lorentzian / M-convexity checks.

Coefficients are Fractions keyed by dense exponent tuples; degrees and
variable counts here are tiny, so no monomial-order machinery is used. f(Ay)
is expanded in ints, and each Lorentzian Hessian is kept on its partial's variables.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import product

from .errors import LogcavityError
from .linalg import QMatrix, Record, _bits, _expect, _json_int, _q, _scaled, _shown
from .linalg import integer_inertia
from .matroids import Matroid, _is_basis_family


class MPoly(Record):
    __slots__ = ("nvars", "terms")
    _fields = ("nvars", "terms")

    def __init__(self, nvars, terms):
        clean = {}
        for exp, c in terms.items():
            c = _q(c)
            if not c:
                continue
            exp = tuple(map(int, exp))
            if len(exp) != nvars or min(exp, default=0) < 0:
                raise LogcavityError(
                    f"exponent vector {_shown(exp)} must have {_shown(nvars)} "
                    "nonnegative entries"
                )
            clean[exp] = clean[exp] + c if exp in clean else c
        super().__init__(nvars, {e: c for e, c in clean.items() if c})

    def __hash__(self):
        """Record's hash, with the dict terms read as a frozenset."""
        return hash((self.nvars, frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), Fraction(0))

    def support(self):
        """The exponent tuples of the nonzero terms, as a frozenset."""
        return frozenset(self.terms)

    def has_nonneg_coefficients(self):
        return all(c >= 0 for c in self.terms.values())

    def partial(self, i):
        if not 0 <= i < self.nvars:
            raise LogcavityError(f"variable index {i} outside 0..{self.nvars - 1}")
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            new = list(e)
            new[i] -= 1
            out[tuple(new)] = c * e[i]
        return MPoly(self.nvars, out)

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise LogcavityError(
                f"point needs {self.nvars} coordinates, got {len(point)}"
            )
        point = [_q(x) for x in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v *= x**k
            total += v
        return total

    def hessian_at(self, point) -> QMatrix:
        n = self.nvars
        partials = [self.partial(i) for i in range(n)]
        rows = []
        for i in range(n):
            rows.append(
                [partials[i].partial(j).evaluate(point) for j in range(n)]
            )
        return QMatrix(rows)

    def substitute_linear(self, a: QMatrix):
        """f(Ay) in a.cols variables, in ints: A is its ints over da, the
        coefficients are scaled by dc, the terms summed by their degree in each
        distinct row of A (one linear form), and each sum expanded one form at a time.
        A monomial k has its term's degree, so its coefficient is over dc da^|k|."""
        if a.rows != self.nvars:
            raise LogcavityError(
                f"substitution matrix needs one row per variable, {self.nvars}, "
                f"got {a.rows}"
            )
        m = a.cols
        da = a.d
        dc, (coeffs,) = _scaled([self.terms.values()])
        forms = {}  # the distinct rows, and the one of each variable
        form_of = [forms.setdefault(row, len(forms)) for row in a.ints]
        summed = Counter()
        for e, c in zip(self.terms, coeffs):
            k = [0] * len(forms)
            for i, x in enumerate(e):
                k[form_of[i]] += x
            summed[tuple(k)] += c
        lin = [[(j, x) for j, x in enumerate(row) if x] for row in forms]
        out = Counter()
        for e, c in summed.items():
            term = {(0,) * m: c}
            for i in (i for i, k in enumerate(e) for _ in range(k)):
                nxt = Counter()
                for exp, x in term.items():
                    for j, y in lin[i]:
                        nxt[exp[:j] + (exp[j] + 1,) + exp[j + 1 :]] += x * y
                term = nxt
            out.update(term)
        return MPoly(m, {k: Fraction(x, dc * da ** sum(k)) for k, x in out.items()})

    def to_json(self):
        return {
            "nvars": self.nvars,
            "terms": [
                {"exp": list(e), "num": str(c.numerator), "den": str(c.denominator)}
                for e, c in sorted(self.terms.items())
            ],
        }

    @staticmethod
    def from_json(obj):
        terms = {}
        for t in _expect(obj["terms"], list, "polynomial 'terms'"):
            _expect(t, dict, "a polynomial term")
            exp = _expect(t["exp"], list, "a term's 'exp'")
            for e in exp:
                _expect(e, int, "an exponent")
            den = _json_int(t["den"], "a term's 'den'")
            if den == 0:
                raise LogcavityError("a term's 'den' must not be 0")
            # like terms add up, as in the polynomial the list writes
            c = Fraction(_json_int(t["num"], "a term's 'num'"), den)
            terms[tuple(exp)] = terms.get(tuple(exp), 0) + c
        nvars = _expect(obj["nvars"], int, "polynomial 'nvars'")
        if nvars < 0:
            shown = _shown(nvars)
            raise LogcavityError(f"a polynomial needs 0 or more variables, got {shown}")
        return MPoly(nvars, terms)


def basis_generating_poly(m: Matroid) -> MPoly:
    """Sum of squarefree monomials over the bases; homogeneous of degree rank."""
    exps = []
    for b in m.bases:
        exp = [0] * m.n
        for i in _bits(b):
            exp[i] = 1
        exps.append(tuple(exp))
    return MPoly(m.n, dict.fromkeys(exps, Fraction(1)))


def polarization_sum(multiplicities, value):
    """Inclusion-exclusion over subset sums, with repeats taken together.

    For items x_1, ..., x_k taken m_1, ..., m_k times (n = sum of the m_i),
    returns the sum over 0 <= j_i <= m_i of
    (-1)^(n - sum j) * prod C(m_i, j_i) * value(j). With value(j) =
    f(sum j_i x_i) for f homogeneous of degree n, this is n! times the
    polarization form of f at the n items: the 2^n subsets of the items meet
    only these sums, C(m_i, j_i) subsets for each; sign and weight factor by item."""
    ms = multiplicities
    signed = [[(-1) ** (m - j) * math.comb(m, j) for j in range(m + 1)] for m in ms]
    js = product(*[range(m + 1) for m in ms])
    return sum(math.prod(w) * value(j) for w, j in zip(product(*signed), js))


def polarization(f: MPoly, vectors) -> Fraction:
    """Polarization form F_f(v_1, ..., v_d): the symmetric multilinear form
    with F_f(v, ..., v) = f(v), extracted by inclusion-exclusion over subset
    sums (exact finite differencing of the degree-d polynomial), equal
    vectors taken together by `polarization_sum`."""
    if not f.is_homogeneous():
        raise LogcavityError("polarization needs a homogeneous polynomial")
    d = f.degree()
    vectors = [tuple(_q(x) for x in v) for v in vectors]
    if len(vectors) != d:
        raise LogcavityError(
            f"polarization of degree {d} needs exactly {d} vectors, got {len(vectors)}"
        )
    for v in vectors:
        if len(v) != f.nvars:
            raise LogcavityError(
                f"polarization vector needs {f.nvars} coordinates, got {len(v)}"
            )
    groups = Counter(vectors)

    def value(js):
        return f.evaluate(
            [sum(j * v[i] for j, v in zip(js, groups)) for i in range(f.nvars)]
        )

    return Fraction(polarization_sum(list(groups.values()), value), math.factorial(d))


def m_convex(support) -> bool:
    """Exchange property on exponent vectors, given as any iterable of them.
    A 0/1 support is M-convex iff it is the bases of a matroid (Brändén and
    Huh, Lorentzian polynomials), decided by `matroids._is_basis_family`;
    others are checked on all pairs."""
    exps = [tuple(e) for e in support]
    if not exps:
        return True
    degs = {sum(e) for e in exps}
    if len(degs) > 1:
        raise LogcavityError(f"M-convex support needs one total degree: {sorted(degs)}")
    if all(x in (0, 1) for e in exps for x in e):
        masks = [sum(1 << i for i, x in enumerate(e) if x) for e in exps]
        return _is_basis_family(masks)
    expset = set(exps)
    n = len(exps[0])
    for alpha in exps:
        for beta in exps:
            for i in range(n):
                if alpha[i] <= beta[i]:
                    continue
                ok = False
                for j in range(n):
                    if alpha[j] < beta[j]:
                        cand = list(alpha)
                        cand[i] -= 1
                        cand[j] += 1
                        if tuple(cand) in expset:
                            ok = True
                            break
                if not ok:
                    return False
    return True


class LorentzianReport(Record):
    """failures: the order-(d-2) exponents alpha whose Hessian test failed."""

    _fields = ("passed", "homogeneous", "m_convex_support", "failures")


def _hessian_rows(f: MPoly):
    """(d, {alpha: int rows}) over the exponents alpha of order deg f - 2
    with a nonzero partial, for homogeneous f: the constant Hessian of the
    quadratic d^alpha f times d, the lcm of f's coefficient denominators, on
    the variables of d^alpha f in increasing order (it is zero elsewhere),
    read off the terms: entry (i, j) is gamma! c_gamma, gamma = alpha+e_i+e_j."""
    d, (coeffs,) = _scaled([f.terms.values()])
    entries = {}
    for gamma, c in zip(f.terms, coeffs):
        weight = c * math.prod(map(math.factorial, gamma))
        occur = [i for i, g in enumerate(gamma) if g]
        for s, i in enumerate(occur):
            for j in occur[s + (gamma[i] < 2) :]:  # (i, i) needs gamma_i >= 2
                alpha = list(gamma)
                alpha[i] -= 1
                alpha[j] -= 1
                h = entries.setdefault(tuple(alpha), {})
                h[i, j] = h[j, i] = weight
    rows = {}
    for alpha, h in sorted(entries.items()):
        occur = sorted({i for i, _ in h})
        rows[alpha] = tuple(tuple(h.get((i, j), 0) for j in occur) for i in occur)
    return d, rows


def lorentzian_check(f: MPoly) -> LorentzianReport:
    """Exact Lorentzian certificate (Brändén and Huh, Lorentzian
    polynomials): nonnegative coefficients, M-convex support, and for every
    alpha of order d - 2 the constant Hessian of the quadratic d^alpha f has
    exactly one positive eigenvalue. M-convexity passes to the support of
    every partial, so the recursive definition needs no other check. Each
    Hessian H is tested as int rows times d > 0 on the variables S of d^alpha
    f, which keeps its inertia: zero outside S, H is congruent to H_S + 0."""
    if not f.has_nonneg_coefficients():
        raise LogcavityError("Lorentzian candidates need nonnegative coefficients")
    if f.is_zero():
        return LorentzianReport(True, True, True, ())
    if not f.is_homogeneous():
        return LorentzianReport(False, False, False, ())
    mcx = m_convex(f.support())
    hessians = _hessian_rows(f)[1]
    # one elimination per distinct Hessian: on U(r, n) every partial has the same
    n_pos = {h: integer_inertia(h, len(h))[1].n_pos for h in set(hessians.values())}
    failures = tuple(alpha for alpha, h in hessians.items() if n_pos[h] != 1)
    return LorentzianReport(mcx and not failures, True, mcx, failures)


def lorentzian_report(source):
    """(results, findings, violations) of the `lorentzian` command for an
    MPoly or a Matroid. A matroid's basis generating polynomial is
    Lorentzian (Brändén and Huh), so its failing is a violation."""
    f = basis_generating_poly(source) if isinstance(source, Matroid) else source
    report = lorentzian_check(f)
    results = {
        "passed": report.passed,
        "homogeneous": report.homogeneous,
        "m_convex_support": report.m_convex_support,
        "hessian_failures": len(report.failures),
        "coefficient_log_concavity": coefficient_logconcavity(f)
        if report.homogeneous
        else None,
    }
    violations = []
    if isinstance(source, Matroid) and not report.passed:
        violations.append("basis generating polynomial failed Lorentzian check")
    return results, [], violations


def coefficient_logconcavity(f: MPoly) -> bool:
    """Normalized-coefficient log-concavity: with f = sum c_a/a! x^a, checks
    c_a^2 >= c_{a+ei-ej} c_{a-ei+ej} over the whole degree simplex. The right
    side vanishes unless both beta = a+ei-ej and gamma = beta-2ei+2ej lie in
    the support, so only such support pairs are visited."""
    if not f.is_homogeneous():
        raise LogcavityError("coefficient log-concavity needs a homogeneous polynomial")
    c = {
        e: coeff * math.prod(map(math.factorial, e))
        for e, coeff in f.terms.items()
    }
    for beta, cb in c.items():
        for i, bi in enumerate(beta):
            if bi < 2:
                continue
            for j in range(f.nvars):
                if j == i:
                    continue
                gamma = list(beta)
                gamma[i] -= 2
                gamma[j] += 2
                cg = c.get(tuple(gamma))
                if cg is None:
                    continue
                alpha = list(beta)
                alpha[i] -= 1
                alpha[j] += 1
                ca = c.get(tuple(alpha), 0)
                if ca * ca < cb * cg:
                    return False
    return True


def polarization_af_analog_check(f: MPoly, vectors) -> bool:
    """F(v1,v2,v3..)^2 >= F(v1,v1,v3..) F(v2,v2,v3..) for nonneg vectors."""
    vectors = [tuple(_q(x) for x in v) for v in vectors]
    mixed = polarization(f, vectors)
    left = polarization(f, [vectors[0], vectors[0]] + list(vectors[2:]))
    right = polarization(f, [vectors[1], vectors[1]] + list(vectors[2:]))
    return mixed * mixed >= left * right
