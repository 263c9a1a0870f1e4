"""The q -> 1 degeneration of q-difference systems.

Write a system X(qQ) = A_q(Q) X(Q) in delta form with
B_q = (A_q - I)/(q - 1).  Along the path q = q0^t the operator
(sigma_q - I)/(q - 1) degenerates to Q d/dQ, so when B_q has a limit the
system degenerates to the differential system Q X' = B(Q) X.  This module
implements the four-condition confluence check (spiral-separated poles,
existence of the limit, regular-singular non-resonant limit, convergence of
the Jordan basis), fundamental solutions of the limiting regular-singular
ODEs, Richardson-extrapolated limits of solutions along the path, the
closed-form Pochhammer/theta ratio asymptotics, first-order Taylor data of
moving roots, and the rank-1 cubic worked example with its connection-matrix
degeneration.

Exact mode decides condition 2, and the regular singularity of condition 3,
by exact rational-function limits at q = 1.  The non-resonance half of
condition 3 is decided over the integers: with M = m B(0) an integer matrix
and S the squarefree part of its characteristic polynomial, eigenvalues of
B(0) differ by the integer k > 0 exactly when gcd(S(x), S(x + m k)) is not
constant, so every reported resonance is exact.  The candidate k come from
the floating roots of S, which are simple; a non-resonant verdict rests on
each difference of two located roots being within 1/2 of the true one.
Numeric path evaluation is otherwise used only for theta-bearing quantities.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from operator import mul

import numpy as np

from .polyq import (
    Poly,
    RatFunc,
    _is_exact,
    parse_bivariate,
    ratfunc_matrix_series,
)
from .qdiff import (
    ConstantPart,
    FundamentalSolutionAt0,
    QDifferenceSystem,
    UnsupportedJordanError,
    _entry_at,
    _to_complex,
    numerically_defective,
    solve_gauge,
)
from .qspecial import (
    DomainError,
    _as_q,
    char_power,
    log_qpoch_infinite,
    log_theta,
    spiral_contains,
    spiral_log,
)
from .rings import (
    LimitUndefinedError,
    QonfError,
    RationalFunctionQ,
    _divide_q_minus_one,
    format_poly,
    ipoly_gcd,
    scalar_is_zero,
)

DEFAULT_T_SCHEDULE = tuple(2.0**-j for j in range(4, 17))


# ---------------------------------------------------------------- exact q -> 1 limits


def limit_entry_q_to_1(entry: RatFunc) -> RatFunc:
    """Exact q -> 1 limit of a rational function of Q with coefficients in Q(q).

    Each nonzero coefficient n(q)/d(q), a coprime integer pair, is
    (q - 1)^v (u + O(q - 1)) with u = n~(1)/d~(1) != 0, where n~ and d~ are n
    and d with their roots at q = 1 divided out.  The entry is then
    (q - 1)^(v_num - v_den) times the ratio of the parts with the least v in
    numerator and denominator, and the limit is that ratio at q = 1.  Raises
    :class:`LimitUndefinedError` when the entry diverges.
    """

    def order_at_one(c):
        if not isinstance(c, RationalFunctionQ):
            c = RationalFunctionQ.from_fraction(Fraction(c))
        n, d = c.integer_pair()
        if not n:
            return None
        # the multiplicity of q = 1 is below len(p), so e = len(p) never binds
        n, vn = _divide_q_minus_one(n, len(n))
        d, vd = _divide_q_minus_one(d, len(d))
        return vn - vd, Fraction(sum(n), sum(d))

    def leading(coeffs):
        split = [order_at_one(c) for c in coeffs]
        k = min((s[0] for s in split if s), default=None)
        return k, [s[1] if s and s[0] == k else Fraction(0) for s in split]

    k_num, nvals = leading(entry.num.coeffs)
    k_den, dvals = leading(entry.den.coeffs)
    one = Fraction(1)
    if k_num is None:  # zero entry
        return RatFunc.const(Fraction(0), one)
    if k_den is None:
        raise ZeroDivisionError("zero denominator")
    if k_num < k_den:
        raise LimitUndefinedError(
            f"entry diverges like (q-1)^{k_num - k_den} as q -> 1"
        )
    if k_num > k_den:
        return RatFunc.const(Fraction(0), one)
    return RatFunc(Poly(nvals, one), Poly(dvals, one))


# ---------------------------------------------------------------- delta form


@dataclass
class DeltaForm:
    """B_q(Q) = (A_q(Q) - I)/(q - 1), with the original system attached."""

    sys: QDifferenceSystem
    B: tuple

    def poles_at(self, q0: complex) -> list[complex]:
        """Pole locations in Q of the entries at q0, a k-fold factor once."""
        poles: list[complex] = []
        for row in self.B:
            for entry in row:
                den = entry.den
                if den.degree < 1:
                    continue
                if den.degree > 1 and not _squarefree_at_two_thirds(den):
                    den = den.divmod(den.gcd(den.derivative()))[0]
                coeffs = [_to_complex(c, q0) for c in reversed(den.coeffs)]
                for r in np.roots(np.array(coeffs, dtype=complex)):
                    if not any(abs(r - p) < 1e-9 * max(1.0, abs(p)) for p in poles):
                        poles.append(complex(r))
        return poles


def _squarefree_at_two_thirds(p: Poly) -> bool:
    """Whether p(2/3, Q) is squarefree of p's degree.  Then so is p over Q(q)
    (Res(p, p') is nonzero at q = 2/3), and p skips the gcd with p' over Q(q),
    2 s at degree 8, that stops a k-fold root scattering by eps^(1/k)."""
    try:
        px = p.map_coeffs(lambda c: c.evaluate(Fraction(2, 3)), Fraction(1))
    except ZeroDivisionError:  # a coefficient has a pole at q = 2/3
        return False
    return px.degree == p.degree and px.gcd(px.derivative()).degree == 0


def delta_form(sys: QDifferenceSystem) -> DeltaForm:
    one = sys.A[0][0].one
    if sys.is_exact:
        inv = 1 / (RationalFunctionQ.q() - 1)
    else:
        if sys.q == 1:
            raise DomainError("delta form needs q != 1")
        inv = 1.0 / (sys.q - 1.0)
    unit = RatFunc.const(one, one)
    B = [[a - unit if i == j else a for j, a in enumerate(row)] for i, row in enumerate(sys.A)]
    return DeltaForm(sys, tuple(tuple(b if b.is_zero else b * inv for b in row) for row in B))


# ---------------------------------------------------------------- ODE systems


@dataclass(frozen=True)
class ODESystem:
    """Q dX/dQ = B(Q) X with B a square matrix of rational functions of Q."""

    B: tuple

    @property
    def n(self) -> int:
        return len(self.B)

    def matrix_at(self, Q: complex):
        return [[_entry_at(e, Q, None) for e in row] for row in self.B]


def ode_frobenius_solution(ode: ODESystem, D: int, q0: complex = 0.5) -> FundamentalSolutionAt0:
    """Fundamental solution P(Q) Q^(B(0)) of a regular-singular ODE at 0.

    The entries are exact (the limit systems of :func:`check_confluent` are
    built from Fractions), and B(0) must have a single eigenvalue, with a
    nilpotent part; this is decided before any degree is solved.  The gauge
    P has P(0) = I and Q P' + P B(0) = B(Q) P; degree m solves
    m P_m + P_m B0 - B0 P_m = sum_{k=1..m} B_k P_{m-k}, the q side's
    Sylvester equation with c = m, s = 1.  The solution evaluates Q^lam and
    log Q on the branch cut along the spiral (-1) q0^R
    (:func:`qonf.qspecial.spiral_log`).
    """
    Bser = ratfunc_matrix_series([list(r) for r in ode.B], D)
    one = Bser.one
    if not _is_exact(one):
        raise DomainError("the ODE side needs exact entries")
    part = ConstantPart.of(Bser.terms[0], one)
    if not part.nilpotent:
        raise UnsupportedJordanError("exact mode supports a single eigenvalue (or rank 1)")
    P = solve_gauge(Bser, part, D, lambda m: (m * one, one), "integer eigenvalue difference")
    return FundamentalSolutionAt0(ode, P, "nilpotent", [part.lam] * ode.n, q=q0,
                                  nilpotent_log=part.N,
                                  character=lambda lam, q, Q: char_power(Q, lam, q),
                                  logarithm=lambda q, Q: spiral_log(Q, q))


def _charpoly(M) -> list:
    """det(x I - M) for an integer matrix, descending coefficients.

    Faddeev-LeVerrier: with M_1 = I and M_(k+1) = M M_k + c_k I, the
    coefficient c_k of x^(n-k) is -tr(M M_k)/k, an exact integer division;
    MM holds M M_k, so the next one is M MM + c_k M.
    """
    n = len(M)
    coeffs, MM = [1], M
    for k in range(1, n + 1):
        c = -sum(MM[i][i] for i in range(n)) // k
        coeffs.append(c)
        if k < n:
            cols = list(zip(*MM))
            MM = [[sum(map(mul, row, col)) + c * a for col, a in zip(cols, row)] for row in M]
    return coeffs


def _resonances(M, m) -> list:
    """The integers k > 0 that are differences of two eigenvalues of M / m.

    S = P / gcd(P, P'), P = det(x I - M), has each eigenvalue once; a
    candidate k from its floating roots counts only when S(x) and S(x + m k)
    have a common factor.
    """
    P = _charpoly(M)
    S = ipoly_gcd(P, [c * (len(P) - 1 - i) for i, c in enumerate(P[:-1])])[1]
    if len(S) < 3:  # a single distinct eigenvalue
        return []
    roots = np.roots(S) / m
    candidates = set()
    for r in roots:
        for s in roots:
            k = round((r - s).real)
            if k >= 1 and abs(r - s - k) < 0.5:
                candidates.add(k)
    S_asc = Poly(S[::-1], 1)
    # S(x + m k) by Horner's rule over Z[x]; its coefficients ascend
    return [k for k in sorted(candidates)
            if len(ipoly_gcd(S, S_asc.evaluate(Poly([m * k, 1], 1)).coeffs[::-1])[0]) > 1]


# ---------------------------------------------------------------- the confluence check


@dataclass
class ConditionReport:
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


CONDITIONS = ("spiral_separation", "limit_exists", "limit_regular_singular",
              "jordan_basis_converges")


@dataclass
class ConfluenceReport:
    """The four conditions, in the order of :data:`CONDITIONS`."""

    spiral_separation: ConditionReport
    limit_exists: ConditionReport
    limit_regular_singular: ConditionReport
    jordan_basis_converges: ConditionReport
    limit_system: ODESystem | None = None
    pole_witnesses: list = field(default_factory=list)

    @property
    def confluent(self) -> bool:
        return all(getattr(self, name).passed for name in CONDITIONS)

    def to_json(self) -> dict:
        doc = {"confluent": self.confluent,
               "conditions": {name: asdict(getattr(self, name)) for name in CONDITIONS}}
        if self.limit_system is not None:
            entries = []
            for i, row in enumerate(self.limit_system.B):
                for j, e in enumerate(row):
                    if not e.is_zero:
                        entries.append({"i": i, "j": j, "entry": _fraction_entry_str(e)})
            doc["limit_system"] = {"n": self.limit_system.n, "entries": entries}
        return doc


def _fraction_entry_str(e: RatFunc) -> str:
    num = format_poly([Fraction(c) for c in e.num.coeffs], "Q")
    if e.den.degree < 1 and e.den.coeffs and Fraction(e.den.coeffs[0]) == 1:
        return num
    den = format_poly([Fraction(c) for c in e.den.coeffs], "Q")
    return f"({num})/({den})"


def check_confluent(sys: QDifferenceSystem, q0: complex) -> ConfluenceReport:
    """Run the four confluence conditions on an exact-mode system."""
    if not sys.is_exact:
        raise DomainError("the confluence check requires exact-q entries")
    df = delta_form(sys)

    poles = df.poles_at(q0)
    witnesses = []
    for i, p in enumerate(poles):
        for pb in poles[i + 1 :]:
            # no spiral nu q0^R passes through Q = 0
            if p and pb and spiral_contains(p, q0, pb):
                witnesses.append((p, pb))
    if witnesses:
        cond1 = ConditionReport("fail", f"{len(witnesses)} pole pair(s) share a spiral")
    else:
        cond1 = ConditionReport("pass", f"{len(poles)} pole(s), pairwise spiral-separated")

    limit_entries = []
    failures = []
    for i, row in enumerate(df.B):
        lrow = []
        for j, e in enumerate(row):
            try:
                lrow.append(limit_entry_q_to_1(e))
            except LimitUndefinedError as exc:
                failures.append(f"entry ({i},{j}): {exc}")
                lrow.append(None)
        limit_entries.append(lrow)
    if failures:
        skipped = ConditionReport("skipped", "no limit system")
        return ConfluenceReport(cond1, ConditionReport("fail", "; ".join(failures)),
                                skipped, skipped, None, witnesses)
    cond2 = ConditionReport("pass", "entrywise limit exists")
    ode = ODESystem(tuple(tuple(r) for r in limit_entries))

    bad = []
    for i, row in enumerate(ode.B):
        for j, e in enumerate(row):
            v = e.valuation_at_0
            if v is not None and v < 0:
                bad.append(f"entry ({i},{j}) has a pole at Q = 0")
    if bad:
        cond3 = ConditionReport("fail", "; ".join(bad) + " (irregular singular limit)")
        return ConfluenceReport(cond1, cond2, cond3,
                                ConditionReport("skipped", "limit not regular singular"),
                                ode, witnesses)
    B0 = [[Fraction(e.num.coeff(0) / e.den.coeff(0)) for e in row] for row in ode.B]
    m = math.lcm(*(x.denominator for row in B0 for x in row))
    M = [[x.numerator * (m // x.denominator) for x in row] for row in B0]  # m B(0)
    resonant = _resonances(M, m)
    if resonant:
        cond3 = ConditionReport("fail", f"integer eigenvalue differences {resonant}")
    else:
        cond3 = ConditionReport("pass", "limit is regular singular and non-resonant")

    cond4 = _jordan_basis_convergence(df, M, m, q0)
    return ConfluenceReport(cond1, cond2, cond3, cond4, ode, witnesses)


def _jordan_basis_convergence(df: DeltaForm, M, m: int, q0: complex) -> ConditionReport:
    """Condition 4; the limit B(0) is M / m with M an integer matrix."""
    try:
        vals0 = [[e.num.coeff(0) / e.den.coeff(0) for e in row] for row in df.B]
    except ZeroDivisionError:
        return ConditionReport("fail", "B_q(0) has a pole at Q = 0")
    # exact shortcut: B_q(0) independent of q
    if not any(isinstance(v, RationalFunctionQ) and (len(v.num) > 1 or len(v.den) > 1)
               for row in vals0 for v in row):
        return ConditionReport("pass", "B_q(0) is independent of q")

    path = [np.linalg.eig(np.array([[_to_complex(v, q0**t) for v in row] for row in vals0]))
            for t in (2.0**-6, 2.0**-9, 2.0**-12)]
    if all(x == (M[0][0] if i == j else 0) for i, row in enumerate(M) for j, x in enumerate(row)):
        # every basis is an eigenbasis of a scalar limit: the question is
        # whether the eigenbasis of B_q(0) settles along the path
        if any(numerically_defective(V) for _, V in path):
            return ConditionReport(
                "skipped", "B_q(0) is defective along the path; eigenvector comparison not performed"
            )
        refs, path, what = path[:-1], path[1:], "limit B(0) is scalar; eigenvector change along path"
    else:
        # x / m rounds once, as complex(Fraction(x, m)) does
        lams_lim, V_lim = np.linalg.eig(np.array([[complex(x / m) for x in row] for row in M]))
        if numerically_defective(V_lim):
            return ConditionReport(
                "skipped", "limit B(0) is defective; eigenvector comparison not performed"
            )
        refs, what = [(lams_lim, V_lim)] * len(path), "eigenvector distance along path"
    dists = [_basis_distance(lams, V, lams_ref, V_ref)
             for (lams, V), (lams_ref, V_ref) in zip(path, refs)]
    status = "pass" if dists[-1] < 1e-3 and dists[-1] <= dists[0] + 1e-12 else "fail"
    return ConditionReport(status, f"{what}: {dists}")


def _basis_distance(lams, V, lams_ref, V_ref) -> float:
    """Largest entry of the difference of the two normalized eigenbases, the
    columns of V put in the order of the nearest eigenvalues of lams_ref."""
    order = []
    for t in lams_ref:
        order.append(min((i for i in range(len(lams)) if i not in order),
                         key=lambda i: abs(lams[i] - t)))
    return float(np.abs(_normalize_eigvecs(V[:, order]) - _normalize_eigvecs(V_ref)).max())


def _normalize_eigvecs(V: np.ndarray) -> np.ndarray:
    """Each column divided by its first entry above 1e-12 of its largest."""
    A = np.abs(V)
    return V / V[np.argmax(A > 1e-12 * A.max(axis=0), axis=0), np.arange(V.shape[1])]


# ---------------------------------------------------------------- path limits


@dataclass
class LimitResult:
    value: complex
    observed_order: float
    samples: list

    def __complex__(self):
        return complex(self.value)


def richardson_limit(values) -> complex:
    """Two-point extrapolation assuming first-order error on a halving schedule."""
    if len(values) == 1:
        return values[0]
    return 2 * values[-1] - values[-2]


def observed_order(values) -> float:
    """log2 error-decay ratio from the last three samples (1.0 = linear in t)."""
    if len(values) < 3:
        return float("nan")
    d1 = abs(values[-2] - values[-3])
    d2 = abs(values[-1] - values[-2])
    if d2 == 0:
        return float("inf")
    return math.log2(d1 / d2)


def limit_solution_along_path(
    evaluator,
    q0: complex,
    Q: complex,
    t_schedule=DEFAULT_T_SCHEDULE,
    excluded_spirals=(),
) -> LimitResult:
    """Richardson-extrapolated q -> 1 limit of evaluator(q, Q) along q = q0^t.

    ``excluded_spirals`` lists spiral base points nu; evaluation refuses
    points on nu * q0^R.
    """
    for nu in excluded_spirals:
        if spiral_contains(nu, q0, Q):
            raise DomainError(f"Q = {Q} lies on the excluded spiral through {nu}")
    samples = [evaluator(q0**t, Q) for t in t_schedule]
    return LimitResult(richardson_limit(samples), observed_order(samples), samples)


# ---------------------------------------------------------------- asymptotic ratios


def asymptotic_qpoch_ratio(Q0: complex, alpha1: complex, alpha2: complex,
                           q0: complex = 0.5) -> complex:
    """lim (Q1(q);q)_inf / (Q2(q);q)_inf = (1 - Q0)^(alpha2 - alpha1)

    for argument families Q_i(q(t)) = Q0 q0^(alpha_i t + o(t)); Q0 must avoid
    the spiral q0^R (zeros of the products) and the point 1.
    """
    if Q0 == 1 or spiral_contains(1.0, q0, Q0):
        raise DomainError("Q0 lies on the excluded spiral q0^R")
    if alpha1 == alpha2:
        return 1.0 + 0j
    return cmath.exp((alpha2 - alpha1) * cmath.log(1 - Q0))


def asymptotic_qpoch_ratio_check(Q0, alpha1, alpha2, q0=0.5, t=2.0**-14) -> float:
    """|closed form - direct path evaluation| at the given t, with the
    products summed to within 1e-13."""
    return _ratio_check(lambda Q, q: log_qpoch_infinite(Q, q, 1e-13), asymptotic_qpoch_ratio,
                        Q0, alpha1, alpha2, q0, t)


def asymptotic_theta_ratio(Q0: complex, alpha1: complex, alpha2: complex,
                           q0: complex = 0.5) -> complex:
    """lim theta_q(Q1(q))/theta_q(Q2(q)) = Q0^(alpha2 - alpha1)

    for Q_i(q(t)) = Q0 q0^(alpha_i t + o(t)), with the spiral-cut logarithm;
    Q0 must avoid the zero spiral (-1) q0^R.
    """
    if spiral_contains(-1.0, q0, Q0):
        raise DomainError("Q0 lies on the excluded spiral (-1) q0^R")
    if alpha1 == alpha2:
        return 1.0 + 0j
    return cmath.exp((alpha2 - alpha1) * spiral_log(Q0, q0))


def asymptotic_theta_ratio_check(Q0, alpha1, alpha2, q0=0.5, t=2.0**-14) -> float:
    return _ratio_check(lambda Q, q: log_theta(q, Q), asymptotic_theta_ratio,
                        Q0, alpha1, alpha2, q0, t)


def _ratio_check(log_f, closed_form, Q0, alpha1, alpha2, q0, t) -> float:
    """|closed_form - exp(log f(Q1) - log f(Q2))| at q = q0^t, with the
    arguments Q_i = Q0 q0^(alpha_i t)."""
    q = q0**t
    Q1 = Q0 * q0 ** (alpha1 * t)
    Q2 = Q0 * q0 ** (alpha2 * t)
    direct = cmath.exp(log_f(Q1, q) - log_f(Q2, q))
    return abs(direct - closed_form(Q0, alpha1, alpha2, q0))


# ---------------------------------------------------------------- moving roots


class GaussianRational:
    """Exact complex rationals (a + b i)/m, enough for first-order root data.

    The value is kept as the integer triple (a, b, m) with m > 0 and
    gcd(a, b, m) = 1, so equal values have equal triples; every operation
    reduces its result once.  ``re`` and ``im`` are the parts as Fractions.
    """

    __slots__ = ("a", "b", "m")

    def __init__(self, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        # with both parts in lowest terms, the lcm of their denominators
        # leaves gcd(a, b, m) = 1
        m = math.lcm(re.denominator, im.denominator)
        self.a = re.numerator * (m // re.denominator)
        self.b = im.numerator * (m // im.denominator)
        self.m = m

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.m)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.m)

    @staticmethod
    def _parts(x):
        if isinstance(x, GaussianRational):
            return x.a, x.b, x.m
        if isinstance(x, int):
            return x, 0, 1
        if isinstance(x, Fraction):
            return x.numerator, 0, x.denominator
        return None

    def __add__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        a, b, m = o
        return _gaussian(self.a * m + a * self.m, self.b * m + b * self.m, self.m * m)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        a, b, m = o
        return _gaussian(self.a * m - a * self.m, self.b * m - b * self.m, self.m * m)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return _gaussian(-self.a, -self.b, self.m)

    def __mul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        a, b, m = o
        return _gaussian(self.a * a - self.b * b, self.a * b + self.b * a, self.m * m)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        a, b, m = o
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError
        # multiply through by the conjugate of the divisor
        return _gaussian(m * (self.a * a + self.b * b), m * (self.b * a - self.a * b), self.m * n)

    def __rtruediv__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return _gaussian(*o) / self

    def __eq__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return (self.a, self.b, self.m) == o

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        # a/m rounds once, as float(Fraction(a, m)) does
        return complex(self.a / self.m, self.b / self.m)

    def __repr__(self):
        return f"({self.re}{'+' if self.b >= 0 else ''}{self.im}i)"


def _gaussian(a: int, b: int, m: int) -> GaussianRational:
    """(a + b i)/m for m > 0, reduced."""
    g = math.gcd(a, b, m)
    z = object.__new__(GaussianRational)
    z.a, z.b, z.m = (a, b, m) if g == 1 else (a // g, b // g, m // g)
    return z


QI_ONE = GaussianRational(1)
QI_I = GaussianRational(0, 1)


def root_taylor(family, base_root):
    """Degree-1 Taylor data of a simple root of P(q, .) at q = 1.

    ``family`` is [P_0, P_1, ...]: polynomials in Q (class:`Poly`) collecting
    powers of (q - 1).  Returns (r0, r1) with root(q) = r0 + r1 (q-1) + o(q-1)
    and r1 = -P_1(r0)/P_0'(r0); a multiple base root raises DomainError.
    """
    P0, P1 = family[0], family[1] if len(family) > 1 else Poly([], family[0].one)
    dP0 = P0.derivative()
    denom = dP0.evaluate(base_root)
    if scalar_is_zero(denom):
        raise DomainError("base root is not simple")
    if not scalar_is_zero(P0.evaluate(base_root)):
        raise DomainError("base point is not a root of P(1, .)")
    return base_root, -P1.evaluate(base_root) / denom


# ---------------------------------------------------------------- worked example


_ROOT_SWEEPS = 16  # twice the most that MonodromyCubicExample.roots_at was seen to take
_BASE_ROOTS = (QI_ONE, QI_I, -QI_ONE)  # the cubic's roots at q = 1, in roots_at's order


@dataclass
class MonodromyCubicExample:
    """The rank-1 equation f(qQ) = (1 + (q-1)Q / ((Q-1)(Q-i)(Q+1))) f(Q).

    Carries exact first-order root data, path evaluators for the solution at
    0 and the connection value, and the closed-form limits assembled from the
    Pochhammer/theta ratio asymptotics.
    """

    q0: complex = 0.8

    def family(self):
        Qv = Poly.variable(QI_ONE)
        x, y, z = (Qv - Poly.const(r) for r in _BASE_ROOTS)
        return [x * y * z, Qv]

    def root_taylor_data(self):
        fam = self.family()
        return [root_taylor(fam, r0) for r0 in _BASE_ROOTS]

    def alpha_taylor_data(self):
        """First-order data of the inverse roots alpha_i = 1/root_i."""
        out = []
        for r0, r1 in self.root_taylor_data():
            a0 = QI_ONE / r0
            out.append((a0, -r1 / (r0 * r0)))
        return out

    def alpha_exponents(self):
        """c_i with alpha_i(q) = alpha_i(1) q0^(c_i t + o(t)): c_i = a1/a0."""
        return [complex(a1 / a0) for a0, a1 in self.alpha_taylor_data()]

    def roots_at(self, q: complex):
        """The roots of x^3 - i x^2 + (q - 2) x + i nearest 1, i and -1, in
        that order, for 0 < |q| < 1.

        Weierstrass's simultaneous iteration (Kerner, Numer. Math. 8 (1966))
        x_k <- x_k - p(x_k)/prod_(j != k) (x_k - x_j), started from the roots
        1, i, -1 at q = 1, each of which it follows.  The cubic has double
        roots only at q ~ 0.5696 +- 0.9605i and q ~ 4.61, all outside the
        unit disk, so every root met is simple and the iteration converges
        quadratically: at most 8 sweeps on random q in the disk.  It stops
        once every step is within 4 eps of its root, and raises after
        _ROOT_SWEEPS sweeps.
        """
        c1 = _as_q(q) - 2
        x, y, z = 1 + 0j, 1j, -1 + 0j
        tol = 4 * sys.float_info.epsilon
        for _ in range(_ROOT_SWEEPS):
            dx = (((x - 1j) * x + c1) * x + 1j) / ((x - y) * (x - z))
            dy = (((y - 1j) * y + c1) * y + 1j) / ((y - x) * (y - z))
            dz = (((z - 1j) * z + c1) * z + 1j) / ((z - x) * (z - y))
            x, y, z = x - dx, y - dy, z - dz
            if abs(dx) <= tol * abs(x) and abs(dy) <= tol * abs(y) and abs(dz) <= tol * abs(z):
                return [x, y, z]
        raise QonfError(f"the cubic's roots at q = {q} did not converge in {_ROOT_SWEEPS} sweeps")

    def alphas_at(self, q: complex):
        return [1 / r for r in self.roots_at(q)]

    # solution at 0: (Q)_inf (-iQ)_inf (-Q)_inf / prod (alpha_i Q)_inf
    def solution_at_0(self, q: complex, Q: complex) -> complex:
        return self._log_quotient(lambda x: log_qpoch_infinite(x, q), q, (Q, -1j * Q, -Q), Q)

    def birkhoff_theta_form(self, q: complex, Q: complex) -> complex:
        return self._log_quotient(lambda x: log_theta(q, x), q, (-Q, 1j * Q, Q), -Q)

    def _log_quotient(self, log_f, q: complex, bases, scaled: complex) -> complex:
        """exp(sum of log_f over the bases - sum of log_f(alpha_i scaled))."""
        total = log_f(bases[0]) + log_f(bases[1]) + log_f(bases[2])
        for a in self.alphas_at(q):
            total -= log_f(a * scaled)
        return cmath.exp(total)

    @property
    def excluded_spirals(self):
        return (1.0, 1j, -1.0)

    def solution_limit_closed_form(self, Q: complex) -> complex:
        """Product of the Pochhammer pair limits (the ratio asymptotics)."""
        return self._limit_product(asymptotic_qpoch_ratio, (Q, -1j * Q, -Q))

    def birkhoff_limit_closed_form(self, Q: complex) -> complex:
        """Product of the theta pair limits; locally constant on the components."""
        return self._limit_product(asymptotic_theta_ratio, (-Q, 1j * Q, Q))

    def _limit_product(self, ratio_limit, bases) -> complex:
        out = 1.0 + 0j
        for base, c in zip(bases, self.alpha_exponents()):
            out *= ratio_limit(base, 0.0, c, self.q0)
        return out

    def solution_limit_display_form(self, Q: complex) -> complex:
        """(Q-1)^((1+i)/4) (Q-i)^(-1/2) (Q+1)^((1-i)/4), principal branches."""
        return (
            (Q - 1) ** ((1 + 1j) / 4) * (Q - 1j) ** (-0.5) * (Q + 1) ** ((1 - 1j) / 4)
        )

    def birkhoff_limit_display_form(self, Q: complex) -> complex:
        """(-Q)^((1+i)/4) (-iQ)^(-1/2) Q^((1-i)/4), principal branches."""
        return (-Q) ** ((1 + 1j) / 4) * (-1j * Q) ** (-0.5) * Q ** ((1 - 1j) / 4)


# ---------------------------------------------------------------- builtin systems


BUILTIN_SYSTEMS = ("pochhammer-raw", "pochhammer-scaled", "irregular-limit", "pn-j")


def builtin_system(name: str, N: int = 2, z=Fraction(1)) -> QDifferenceSystem:
    """Named example systems used by the CLI and the verification suites;
    ``name`` is one of :data:`BUILTIN_SYSTEMS`:

    - ``pochhammer-raw``:    f(qQ) = (1 - Q) f(Q)          (fails condition 2)
    - ``pochhammer-scaled``: f(qQ) = (1 - (1-q)Q) f(Q)      (confluent)
    - ``irregular-limit``:   f(qQ) = (1 + (q-1)/(Q+(q-1))) f(Q)
                             (limit exists, irregular singular: condition 3)
    - ``pn-j``:              the delta-form vectorization of
                             (1 - sigma)^(N+1) f = Q f pulled back by
                             Q -> (z/(1-q))^(N+1) Q (confluent; the limit is
                             the differential system of the degree-(N+1)
                             J-function ODE)
    """
    if name == "pochhammer-raw":
        return QDifferenceSystem(((parse_bivariate("1 - Q"),),), RationalFunctionQ.q())
    if name == "pochhammer-scaled":
        return QDifferenceSystem(((parse_bivariate("1 - (1-q)*Q"),),), RationalFunctionQ.q())
    if name == "irregular-limit":
        return QDifferenceSystem(
            ((parse_bivariate("1 + (q-1)/(Q + (q-1))"),),), RationalFunctionQ.q()
        )
    if name == "pn-j":
        return pn_j_system(N, z)
    raise KeyError(f"unknown builtin system {name!r}")


def pn_j_system(N: int, z=Fraction(1)) -> QDifferenceSystem:
    """A = I + (q-1) B for the delta-form companion of the J-function equation,
    already pulled back by Q -> (z/(1-q))^(N+1) Q (so B is q-independent)."""
    if N < 0:
        raise ValueError(f"projective-space dimension N = {N} must be at least 0")
    one = RationalFunctionQ.one()
    zero = RatFunc.const(RationalFunctionQ.zero(), one)
    unit = RatFunc.const(one, one)
    q = RationalFunctionQ.q()
    n = N + 1
    B = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n - 1):
        B[i][i + 1] = unit
    zq = RationalFunctionQ.from_fraction(Fraction(z))
    B[n - 1][0] = RatFunc.variable(one) * RatFunc.const(1 / zq**n, one)
    A = [
        [
            (unit if i == j else zero) + B[i][j] * RatFunc.const(q - 1, one)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return QDifferenceSystem(tuple(tuple(r) for r in A), q)
