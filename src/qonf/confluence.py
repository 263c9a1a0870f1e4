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

Exact mode decides conditions 2 and 3 by exact rational-function limits at
q = 1; numeric path evaluation is used only for theta-bearing quantities.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .polyq import (
    MatrixSeries,
    Poly,
    RatFunc,
    mat_add,
    mat_dot,
    mat_eye,
    mat_map,
    mat_scale,
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
    char_power,
    log_qpoch_infinite,
    log_theta,
    spiral_contains,
    spiral_log,
)
from .rings import (
    LimitUndefinedError,
    RationalFunctionQ,
    _divide_q_minus_one,
    format_poly,
    scalar_is_zero,
    zero_like,
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
        """Pole locations in Q of the entries, at the numeric parameter q0."""
        poles: list[complex] = []
        for row in self.B:
            for entry in row:
                den = entry.den
                if den.degree < 1:
                    continue
                coeffs = [_to_complex(c, q0) for c in reversed(den.coeffs)]
                for r in np.roots(np.array(coeffs, dtype=complex)):
                    if not any(abs(r - p) < 1e-9 * max(1.0, abs(p)) for p in poles):
                        poles.append(complex(r))
        return poles


def delta_form(sys: QDifferenceSystem) -> DeltaForm:
    n = sys.n
    one = sys.A[0][0].one
    if sys.is_exact:
        inv = 1 / (RationalFunctionQ.q() - 1)
    else:
        if sys.q == 1:
            raise DomainError("delta form needs q != 1")
        inv = 1.0 / (sys.q - 1.0)
    rows = []
    for i in range(n):
        row = []
        for j, a in enumerate(sys.A[i]):
            e = a - RatFunc.const(one, one) if i == j else a
            row.append(e * inv)
        rows.append(tuple(row))
    return DeltaForm(sys, tuple(rows))


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


def _ode_power(lam, q0: complex, Q: complex) -> complex:
    return char_power(Q, lam, q0)


def _ode_log(q0: complex, Q: complex) -> complex:
    return spiral_log(Q, q0)


def ode_gauge_residual(ode: ODESystem, P: MatrixSeries, B0) -> MatrixSeries:
    """Q P' + P B0 - B P as a series (zero through the truncation).

    Degree m is one :func:`mat_dot`: P_m (B0 + m I), then the products
    (-B_k) P_{m-k} over the nonzero B_k.
    """
    D = P.truncation
    one = P.one
    n = P.dim
    Bser = ratfunc_matrix_series([list(r) for r in ode.B], D)
    neg_B = {k: mat_map(Bser.terms[k], lambda x: -x) for k in Bser.nonzero_degrees()}
    eye = mat_eye(n, one)
    return MatrixSeries(
        [mat_dot([(P.terms[m], mat_add(B0, mat_scale(eye, m * one)))]
                 + [(neg_B[k], P.terms[m - k]) for k in neg_B if k <= m], n, one)
         for m in range(D + 1)],
        one)


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
    if isinstance(one, (float, complex)):
        raise DomainError("the ODE side needs exact entries")
    part = ConstantPart.of(Bser.terms[0], one)
    if not part.nilpotent:
        raise UnsupportedJordanError("exact mode supports a single eigenvalue (or rank 1)")
    P = solve_gauge(Bser, part, D, lambda m: (m * one, one), "integer eigenvalue difference")
    return FundamentalSolutionAt0(ode, P, "nilpotent", [part.lam] * ode.n, q=q0,
                                  nilpotent_log=part.N, character=_ode_power,
                                  logarithm=_ode_log)


def _integer_differences(lams) -> list:
    """(i, j, k) for each ordered pair of eigenvalues with lams[i] - lams[j]
    within 1e-10 of the nonzero integer k."""
    out = []
    for i in range(len(lams)):
        for j in range(len(lams)):
            if i != j:
                d = lams[i] - lams[j]
                if abs(d.imag) < 1e-10 and abs(d.real - round(d.real)) < 1e-10 and round(d.real):
                    out.append((i, j, round(d.real)))
    return out


# ---------------------------------------------------------------- the confluence check


@dataclass
class ConditionReport:
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class ConfluenceReport:
    spiral_separation: ConditionReport
    limit_exists: ConditionReport
    limit_regular_singular: ConditionReport
    jordan_basis_converges: ConditionReport
    limit_system: ODESystem | None = None
    pole_witnesses: list = field(default_factory=list)

    @property
    def confluent(self) -> bool:
        return all(
            c.passed
            for c in (
                self.spiral_separation,
                self.limit_exists,
                self.limit_regular_singular,
                self.jordan_basis_converges,
            )
        )

    def to_json(self) -> dict:
        def cond(c):
            return {"status": c.status, "detail": c.detail}

        doc = {
            "confluent": self.confluent,
            "conditions": {
                "spiral_separation": cond(self.spiral_separation),
                "limit_exists": cond(self.limit_exists),
                "limit_regular_singular": cond(self.limit_regular_singular),
                "jordan_basis_converges": cond(self.jordan_basis_converges),
            },
        }
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
            if spiral_contains(p, q0, pb):
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
        cond2 = ConditionReport("fail", "; ".join(failures))
        return ConfluenceReport(cond1, cond2,
                                ConditionReport("skipped", "no limit system"),
                                ConditionReport("skipped", "no limit system"),
                                None, witnesses)
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
    B0 = np.array([[complex(e.evaluate(Fraction(0))) for e in row] for row in ode.B])
    resonant = _integer_differences(np.linalg.eigvals(B0))
    if resonant:
        cond3 = ConditionReport("fail", f"integer eigenvalue differences {resonant}")
    else:
        cond3 = ConditionReport("pass", "limit is regular singular and non-resonant")

    cond4 = _jordan_basis_convergence(df, B0, q0)
    return ConfluenceReport(cond1, cond2, cond3, cond4, ode, witnesses)


def _jordan_basis_convergence(df: DeltaForm, B0_limit: np.ndarray, q0: complex) -> ConditionReport:
    n = df.sys.n
    # exact shortcut: B_q(0) independent of q
    constant_in_q = True
    vals0 = []
    for i in range(n):
        row = []
        for j in range(n):
            e = df.B[i][j]
            try:
                v = e.evaluate(zero_like(e.one))
            except ZeroDivisionError:
                return ConditionReport("fail", "B_q(0) has a pole at Q = 0")
            row.append(v)
            if isinstance(v, RationalFunctionQ) and (len(v.num) > 1 or len(v.den) > 1):
                constant_in_q = False
        vals0.append(row)
    if constant_in_q:
        return ConditionReport("pass", "B_q(0) is independent of q")

    path = [np.linalg.eig(np.array([[_to_complex(v, q0**t) for v in row] for row in vals0]))
            for t in (2.0**-6, 2.0**-9, 2.0**-12)]
    if np.array_equal(B0_limit, B0_limit[0, 0] * np.eye(n)):
        # every basis is an eigenbasis of a scalar limit: the question is
        # whether the eigenbasis of B_q(0) settles along the path
        if any(numerically_defective(V) for _, V in path):
            return ConditionReport(
                "skipped", "B_q(0) is defective along the path; eigenvector comparison not performed"
            )
        refs, path, what = path[:-1], path[1:], "limit B(0) is scalar; eigenvector change along path"
    else:
        lams_lim, V_lim = np.linalg.eig(B0_limit)
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
    order = _match_order(lams, lams_ref)
    return float(np.abs(_normalize_eigvecs(V[:, order]) - _normalize_eigvecs(V_ref)).max())


def _normalize_eigvecs(V: np.ndarray) -> np.ndarray:
    W = V.copy()
    for j in range(W.shape[1]):
        col = W[:, j]
        idx = np.argmax(np.abs(col) > 1e-12 * np.abs(col).max())
        W[:, j] = col / col[idx]
    return W


def _match_order(lams, target):
    order = []
    used = set()
    for t in target:
        k = min((i for i in range(len(lams)) if i not in used), key=lambda i: abs(lams[i] - t))
        used.add(k)
        order.append(k)
    return order


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
    tol = 1e-13
    q = q0**t
    Q1 = Q0 * q0 ** (alpha1 * t)
    Q2 = Q0 * q0 ** (alpha2 * t)
    direct = cmath.exp(log_qpoch_infinite(Q1, q, tol) - log_qpoch_infinite(Q2, q, tol))
    return abs(direct - asymptotic_qpoch_ratio(Q0, alpha1, alpha2, q0))


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
    q = q0**t
    Q1 = Q0 * q0 ** (alpha1 * t)
    Q2 = Q0 * q0 ** (alpha2 * t)
    direct = cmath.exp(log_theta(q, Q1) - log_theta(q, Q2))
    return abs(direct - asymptotic_theta_ratio(Q0, alpha1, alpha2, q0))


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
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return _gaussian(*o) - self

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


@dataclass
class MonodromyCubicExample:
    """The rank-1 equation f(qQ) = (1 + (q-1)Q / ((Q-1)(Q-i)(Q+1))) f(Q).

    Carries exact first-order root data, path evaluators for the solutions at
    0 and infinity and the connection value, and the closed-form limits
    assembled from the Pochhammer/theta ratio asymptotics.
    """

    q0: complex = 0.8
    base_roots: tuple = (QI_ONE, QI_I, -QI_ONE)

    def family(self):
        one = QI_ONE
        Qv = Poly.variable(one)
        cubic = (Qv - Poly.const(one)) * (Qv - Poly.const(QI_I)) * (Qv + Poly.const(one))
        return [cubic, Qv]

    def root_taylor_data(self):
        fam = self.family()
        return [root_taylor(fam, r0) for r0 in self.base_roots]

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
        coeffs = [1, -1j, (q - 1) - 1, 1j]
        rs = np.roots(np.array(coeffs, dtype=complex))
        out = []
        for b in (1, 1j, -1):
            out.append(complex(rs[np.argmin(np.abs(rs - b))]))
        return out

    def alphas_at(self, q: complex):
        return [1 / r for r in self.roots_at(q)]

    # solution at 0: (Q)_inf (-iQ)_inf (-Q)_inf / prod (alpha_i Q)_inf
    def solution_at_0(self, q: complex, Q: complex) -> complex:
        alphas = self.alphas_at(q)
        total = (
            log_qpoch_infinite(Q, q)
            + log_qpoch_infinite(-1j * Q, q)
            + log_qpoch_infinite(-Q, q)
        )
        for a in alphas:
            total -= log_qpoch_infinite(a * Q, q)
        return cmath.exp(total)

    # solution at infinity, in W = 1/Q
    def solution_at_inf(self, q: complex, W: complex) -> complex:
        roots = self.roots_at(q)
        total = 0j
        for r in roots:
            total += log_qpoch_infinite(q * r * W, q)
        for c in (1, 1j, -1):
            total -= log_qpoch_infinite(q * c * W, q)
        return cmath.exp(total)

    def birkhoff_theta_form(self, q: complex, Q: complex) -> complex:
        alphas = self.alphas_at(q)
        total = log_theta(q, -Q) + log_theta(q, 1j * Q) + log_theta(q, Q)
        for a in alphas:
            total -= log_theta(q, -a * Q)
        return cmath.exp(total)

    @property
    def excluded_spirals(self):
        return (1.0, 1j, -1.0)

    def solution_limit_closed_form(self, Q: complex) -> complex:
        """Product of the Pochhammer pair limits (the ratio asymptotics)."""
        c1, c2, c3 = self.alpha_exponents()
        bases = (Q, -1j * Q, -Q)
        out = 1.0 + 0j
        for base, c in zip(bases, (c1, c2, c3)):
            out *= asymptotic_qpoch_ratio(base, 0.0, c, self.q0)
        return out

    def birkhoff_limit_closed_form(self, Q: complex) -> complex:
        """Product of the theta pair limits; locally constant on the components."""
        c1, c2, c3 = self.alpha_exponents()
        bases = (-Q, 1j * Q, Q)
        out = 1.0 + 0j
        for base, c in zip(bases, (c1, c2, c3)):
            out *= asymptotic_theta_ratio(base, 0.0, c, self.q0)
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
