"""Rational curve counts, WDVV, and the J-functions of projective space.

Classical side: the degree-d counts N_d of rational plane curves through
3d - 1 points, the genus-zero potential of the plane they assemble into, and
the reduced associativity (WDVV) identity that pins the recursion.

Deformed side: the q-deformed J-function of P^N with coefficients in the
truncated ring C[eps]/(eps^(N+1)), eps = 1 - P^(-1),

    J(q, Q)  = sum_d Q^d / (q P^(-1); q)_d^(N+1),
    Jmod     = (1 - eps)^L * J,          L the q-logarithm symbol,

its classical counterpart with eps = H (the hyperplane class),

    Jcoh(z, Q) = Q^(H/z) sum_d Q^d / prod_(r=1..d) (H + r z)^(N+1),

their functional equations, and the exact coefficientwise verification that
the scaled pullback Q -> ((1-q)/z)^(N+1) Q of Jmod degenerates at q -> 1 to
Jcoh under the basis identification eps^i -> H^i.  The q-constant matrix
realizing the degeneration is never materialized: only its effect -- the
((1-q)/z)-power rescaling and the substitution
((q-1)/z)^a binom(L, a) -> (1/a!)(log Q / z)^a -- is implemented, since that
is all the comparison needs.

z is tracked by exponent bookkeeping: each stored monomial Q^d eps^i L^m
carries the implied factor z^-(d(N+1)+i), which is homogeneous on both sides.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .confluence import limit_solution_along_path
from .polyq import RatFunc
from .qdiff import ScalarQOperator, _residual
from .qspecial import DomainError, q_log, spiral_log
from .rings import (
    LimitUndefinedError,
    LogSeries,
    NilpotentElement,
    Poly,
    RationalFunctionQ,
    _divide_q_minus_one,
    apply_operator,
    ipoly_mul,
    nil_binomial_power,
    nil_mul,
    one_like,
    rfq_dot,
    sigma_weight,
    theta_weight,
    twisted_sigma_weight,
    zero_like,
)

R = RationalFunctionQ


# ---------------------------------------------------------------- curve counts


@dataclass(frozen=True)
class NdTable:
    """Degree-d counts of rational plane curves through 3d - 1 points."""

    values: tuple  # values[d-1] = N_d

    def __getitem__(self, d: int) -> int:
        return self.values[d - 1]

    @property
    def dmax(self) -> int:
        return len(self.values)

    def to_csv(self) -> str:
        lines = ["d,N_d"]
        lines += [f"{d},{self[d]}" for d in range(1, self.dmax + 1)]
        return "\n".join(lines) + "\n"


def nd_recursion(dmax: int) -> NdTable:
    """The quadratic recursion seeded by N_1 = 1:

    N_d = sum_(d1+d2=d) N_d1 N_d2 (C(3d-4, 3d1-2) d1^2 d2^2 - C(3d-4, 3d1-1) d1^3 d2).
    """
    if dmax < 1:
        raise ValueError("dmax must be >= 1")
    values = [Fraction(1)]
    for d in range(2, dmax + 1):
        acc = Fraction(0)
        for d1 in range(1, d):
            d2 = d - d1
            acc += (
                values[d1 - 1]
                * values[d2 - 1]
                * (
                    math.comb(3 * d - 4, 3 * d1 - 2) * d1**2 * d2**2
                    - math.comb(3 * d - 4, 3 * d1 - 1) * d1**3 * d2
                )
            )
        values.append(acc)
    out = []
    for d, v in enumerate(values, start=1):
        if v.denominator != 1 or v <= 0:
            raise ArithmeticError(f"N_{d} = {v} is not a positive integer")
        out.append(int(v))
    return NdTable(tuple(out))


# ---------------------------------------------------------------- potential and WDVV


class PotentialP2:
    """Genus-zero potential of the plane, truncated at curve degree <= order.

    Monomials are keyed (a0, a1, e, a2) for t0^a0 t1^a1 E^e t2^a2, with
    E = exp(t1) tracked as an inert monomial (the Novikov variable is set
    to 1, which loses nothing since E carries the degree).
    """

    def __init__(self, terms: dict):
        self.terms = {k: v for k, v in terms.items() if v != 0}

    def derivative(self, var: int) -> "PotentialP2":
        out: dict = {}
        for (a0, a1, e, a2), c in self.terms.items():
            if var == 0 and a0:
                key = (a0 - 1, a1, e, a2)
                out[key] = out.get(key, Fraction(0)) + c * a0
            elif var == 1:
                if a1:
                    key = (a0, a1 - 1, e, a2)
                    out[key] = out.get(key, Fraction(0)) + c * a1
                if e:
                    key = (a0, a1, e, a2)
                    out[key] = out.get(key, Fraction(0)) + c * e
            elif var == 2 and a2:
                key = (a0, a1, e, a2 - 1)
                out[key] = out.get(key, Fraction(0)) + c * a2
        return PotentialP2(out)

    def multiply(self, other: "PotentialP2", e_max: int) -> "PotentialP2":
        out: dict = {}
        for (a0, a1, e, a2), c in self.terms.items():
            for (b0, b1, f, b2), d in other.terms.items():
                if e + f > e_max:
                    continue
                key = (a0 + b0, a1 + b1, e + f, a2 + b2)
                out[key] = out.get(key, Fraction(0)) + c * d
        return PotentialP2(out)

    def add(self, other: "PotentialP2") -> "PotentialP2":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return PotentialP2(out)

    def truncate_e(self, e_max: int) -> "PotentialP2":
        return PotentialP2({k: v for k, v in self.terms.items() if k[2] <= e_max})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def min_e_degree(self):
        return min((k[2] for k in self.terms), default=None)


def gw_potential_p2(order: int, nd: NdTable | None = None) -> PotentialP2:
    """(1/2)(t0 t1^2 + t0^2 t2) + sum_(d>=1) N_d E^d t2^(3d-1)/(3d-1)!."""
    if order < 1:
        raise ValueError("order must be >= 1")
    nd = nd or nd_recursion(order)
    terms = {
        (1, 2, 0, 0): Fraction(1, 2),
        (2, 0, 0, 1): Fraction(1, 2),
    }
    for d in range(1, order + 1):
        terms[(0, 0, d, 3 * d - 1)] = Fraction(nd[d], math.factorial(3 * d - 1))
    return PotentialP2(terms)


def wdvv_residual_p2(order: int, nd: NdTable | None = None) -> PotentialP2:
    """F_222 + F_111 F_122 - (F_112)^2, exact, through E^order.

    Identically zero when the counts come from :func:`nd_recursion`;
    perturbing N_d breaks it first at E-degree max(d, 2).
    """
    F = gw_potential_p2(order, nd)
    d1, d2 = F.derivative(1), F.derivative(2)
    f222 = d2.derivative(2).derivative(2)
    f111 = d1.derivative(1).derivative(1)
    f122 = d2.derivative(2).derivative(1)
    f112 = d1.derivative(1).derivative(2)
    neg112 = PotentialP2({k: -c for k, c in f112.terms.items()})
    residual = f222.add(f111.multiply(f122, order)).add(neg112.multiply(f112, order))
    return residual.truncate_e(order)


def perturbed_nd(base: NdTable, d: int, value: int) -> NdTable:
    vals = list(base.values)
    if not 1 <= d <= len(vals):
        raise ValueError(f"perturbed degree d = {d} is outside 1..{len(vals)}")
    vals[d - 1] = value
    return NdTable(tuple(vals))


# ---------------------------------------------------------------- the q-deformed J


def qpoch_exact(d: int) -> RationalFunctionQ:
    """(q;q)_d as an exact rational function."""
    out = R.one()
    for r in range(1, d + 1):
        out = out * R.one_minus_q_pow(r)
    return out


def pn_operator(N: int) -> ScalarQOperator:
    """(1 - sigma)^(N+1) - Q with exact coefficients: the scalar q-difference
    operator whose Taylor solution at 0 is sum_d Q^d / (q;q)_d^(N+1)."""
    one = R.one()
    coeffs = [RatFunc.const(R.from_fraction((-1) ** k * math.comb(N + 1, k)), one)
              for k in range(1, N + 2)]
    return ScalarQOperator((RatFunc(Poly([one, -one], one)), *coeffs), R.q())


@dataclass(frozen=True)
class JFunctionK:
    """coeffs[d][i]: exact coefficient of Q^d eps^i, eps = 1 - P^(-1)."""

    N: int
    D: int
    coeffs: tuple
    basis: str = "1-Pinv"

    def coefficient(self, d: int, i: int) -> RationalFunctionQ:
        return self.coeffs[d][i]


def _inverse_power(N: int, a, b) -> NilpotentElement:
    """(a + b eps)^-(N+1) by the binomial series
    sum_k (-1)^k C(N+k, k) b^k a^-(N+1+k) eps^k."""
    return NilpotentElement(N, [(-1) ** k * math.comb(N + k, k) * (b ** k * a ** -(N + 1 + k))
                                for k in range(N + 1)])


def _q_inverse_power(N: int, r: int) -> NilpotentElement:
    """:func:`_inverse_power` of a = 1 - q^r, b = q^r, written as canonical pairs.

    Its eps^k term is (-1)^(k+m) C(N+k, k) q^(rk) / (q^r - 1)^m with
    m = N+1+k.  The pair is already reduced: q^r - 1 has no root at 0,
    content 1 and leading coefficient 1.
    """
    coeffs = []
    for k in range(N + 1):
        m = N + 1 + k
        den = [0] * (r * m + 1)
        for j in range(m + 1):
            den[r * j] = (-1) ** j * math.comb(m, j)
        num = [(-1) ** (k + m) * math.comb(N + k, k)] + [0] * (r * k)
        coeffs.append(R._make(num, den))
    return NilpotentElement(N, coeffs)


def _inverse_product_powers(N: int, D: int, inverse_factor, one) -> tuple:
    """Rows d = 0..D of the eps-coefficients of prod_(r=1..d) (a_r + b_r eps)^-(N+1)
    in the truncated ring, with ``inverse_factor(r)`` the factor
    (a_r + b_r eps)^-(N+1) and ``one`` its unit.

    The product is kept running: one :func:`nil_mul` by the factor per
    degree.  It is a product in the truncated ring and shares nothing with
    the elementary-symmetric sum of :func:`jk_closed_formula`, so it stays an
    independent oracle for that formula.
    """
    zero = zero_like(one)
    rows = [tuple([one] + [zero] * N)]
    prod = NilpotentElement.from_scalar(N, one)
    for d in range(1, D + 1):
        prod = nil_mul(prod, inverse_factor(d))
        rows.append(prod.coeffs)
    return tuple(rows)


def jk_series(N: int, D: int) -> JFunctionK:
    """Oracle form: prod_(r=1..d) ((1-q^r) + q^r eps)^-(N+1) in the truncated ring."""
    if N < 0 or D < 0:
        raise ValueError("need N >= 0 and D >= 0")
    return JFunctionK(N, D, _inverse_product_powers(
        N, D, lambda r: _q_inverse_power(N, r), R.one()))


def _compositions(total: int, weighted: int, parts: int):
    """(j_1..j_parts) >= 0 with sum j_l = total and sum l j_l = weighted."""
    if parts == 0:
        if total == 0 and weighted == 0:
            yield ()
        return
    l = parts
    for j in range(0, min(total, weighted // l) + 1):
        for rest in _compositions(total - j, weighted - l * j, parts - 1):
            yield rest + (j,)


def jk_closed_formula(N: int, D: int) -> JFunctionK:
    """Multi-index formula with nested power sums; must equal :func:`jk_series`.

    The eps^i coefficient at Q^d is 1/(q;q)_d^(N+1) times

      sum_k sum_(j: |j|=k, sum l j_l = i) (-1)^k (N+k)!/(N! j_1!...j_N!)
            prod_l e_l(d)^(j_l),

    with e_l(d) the l-th elementary symmetric polynomial of the values
    q^m/(1-q^m) for 1 <= m <= d (the inner sums start at m = 1: the m = 0
    term would divide by 1 - q^0).
    """
    one = R.one()
    # elementary symmetric table e[l][d]; e[0][d] = 1, and e[l][d] = 0 for l > d
    e = [[one if l == 0 else R.zero() for _ in range(D + 1)] for l in range(N + 1)]
    for d in range(1, D + 1):
        x = R.q_power(d) / R.one_minus_q_pow(d)
        for l in range(min(N, d), 0, -1):
            e[l][d] = e[l][d - 1] + x * e[l - 1][d - 1]
    # the multinomial weight of each multi-index j, for each eps-degree i
    weights = [[(js, Fraction((-1) ** k * math.factorial(N + k),
                              math.factorial(N) * math.prod(map(math.factorial, js))))
                for k in range(N + 1) for js in _compositions(k, i, N)]
               for i in range(N + 1)]
    rows = []
    for d in range(D + 1):
        prefac = 1 / qpoch_exact(d) ** (N + 1)
        row = []
        for by_js in weights:
            pairs = []
            for js, w in by_js:
                monomial = one
                for l, j in enumerate(js, start=1):
                    if j:
                        monomial = monomial * e[l][d] ** j
                pairs.append((monomial, w))
            row.append(prefac * rfq_dot(pairs))
        rows.append(tuple(row))
    return JFunctionK(N, D, tuple(rows))


def _lift(j) -> LogSeries:
    """A J-function (:class:`JFunctionK` or :class:`JFunctionCoh`) as a
    log-series of L-degree 0."""
    one = one_like(j.coeffs[0][0])
    return LogSeries(j.D, [NilpotentElement(j.N, [Poly.const(c, one) for c in row])
                           for row in j.coeffs])


def jk_modified(N: int, D: int) -> LogSeries:
    """(1 - eps)^L * J as a log-series; the eps^i column has L-degree <= i.

    (1 - eps)^L = sum_a (-1)^a binom(L, a) eps^a, so the coefficient of Q^d
    eps^i L^m, m >= 1, is one rfq_dot of c_(d,i-a), a = m..i, against the fixed
    rational weights (-1)^a [L^m] binom(L, a); at m = 0 it is c_(d,i) itself."""
    w = [lp.coeffs for lp in nil_binomial_power(N, Fraction(1)).coeffs]
    return LogSeries(D, [NilpotentElement(N, [
        Poly([rfq_dot([(row[i - a], w[a][m]) for a in range(m, i + 1)]) if m else row[i]
              for m in range(i + 1)], R.one()) for i in range(N + 1)])
        for row in jk_series(N, D).coeffs])


def jk_qde_residual(N: int, D: int, modified: bool = True):
    """Residual of the q-difference equation, exactly zero through Q^D.

    ``modified``: [(1 - sigma)^(N+1) - Q] on the log-series (1-eps)^L J with
    sigma acting by Q^d -> q^d Q^d and L -> L + 1.  Otherwise the eps-twisted
    operator [(1 - (1-eps) sigma)^(N+1) - Q] on the plain series J.
    """
    coeffs = [a.series(D) for a in pn_operator(N).coeffs]
    if modified:
        return apply_operator(coeffs, sigma_weight, R.q(), jk_modified(N, D))
    return apply_operator(coeffs, twisted_sigma_weight, R.q(), _lift(jk_series(N, D)))


# ---------------------------------------------------------------- the classical J


@dataclass(frozen=True)
class JFunctionCoh:
    """coeffs[d][b]: rational coefficient of Q^d H^b in the series part.

    Every stored monomial carries the implied factor z^-(d(N+1)+b); the
    prefactor Q^(H/z) contributes (log Q)^a H^a / (a! z^a).
    """

    N: int
    D: int
    coeffs: tuple
    basis: str = "H"

    def coefficient(self, d: int, b: int) -> Fraction:
        return self.coeffs[d][b]

    def z_exponent(self, d: int, b: int) -> int:
        return -(d * (self.N + 1) + b)


def jcoh_series(N: int, D: int) -> JFunctionCoh:
    """Expand 1/prod (H + rz)^(N+1) by nilpotency of H (via hhat = H/z)."""
    one = Fraction(1)
    return JFunctionCoh(N, D, _inverse_product_powers(
        N, D, lambda r: _inverse_power(N, Fraction(r), one), one))


def jcoh_modified(N: int, D: int) -> LogSeries:
    """exp(H L) * Jcoh as a log-series in L = log Q: the coefficient of Q^d H^i
    L^m is c_(d,i-m)/m! (from (H L)^m/m!), with implied z-exponent -(d(N+1)+i)."""
    one = Fraction(1)
    return LogSeries(D, [NilpotentElement(N, [
        Poly([row[i - m] / math.factorial(m) for m in range(i + 1)], one) for i in range(N + 1)])
        for row in jcoh_series(N, D).coeffs])


def jcoh_ode_residual(N: int, D: int) -> LogSeries:
    """[(zQ d/dQ)^(N+1) - Q] applied to Q^(H/z) * series.

    zQ d/dQ acts as theta (:func:`theta_weight`) on
    :func:`jcoh_modified`, raising the implied z-exponent by one; after N+1
    applications the exponent matches the Q-shifted term, and every
    coefficient of the difference must vanish exactly.
    """
    return apply_operator([[0, -1]] + [[]] * N + [[1]], theta_weight, None, jcoh_modified(N, D))


def jcoh_residual_is_zero(residual: LogSeries) -> bool:
    return residual.is_zero_through(residual.truncation)


# ---------------------------------------------------------------- exact comparison


@dataclass
class ComparisonRow:
    d: int
    i: int
    m: int
    k_scaled: RationalFunctionQ  # (1/m!) (1-q)^(i-m+d(N+1)) c_(d,i-m), exact in q
    limit: Fraction
    coh: Fraction
    z_exponent: int

    @property
    def equal(self) -> bool:
        return self.limit == self.coh


@dataclass
class ComparisonReport:
    """Exact coefficientwise comparison of the degenerated q-side with Jcoh.

    Every monomial Q^d eps^i L^m of the rescaled pullback
    (1-q)^(i+d(N+1)) z^-(i+d(N+1)) with the substitution
    ((q-1)/z)^a binom(L,a) -> (1/a!) (log Q / z)^a has an exact q -> 1 limit,
    which must equal the Q^d H^i (log Q)^m coefficient of Jcoh under
    eps^i -> H^i.
    """

    N: int
    D: int
    rows: list
    failures: list

    @property
    def all_equal(self) -> bool:
        return not self.failures

    def p2_table(self) -> list[dict]:
        """The plane correspondence table: eps-columns against 1, H, H^2."""
        if self.N != 2:
            raise ValueError("the correspondence table is the N = 2 specialization")
        table = [
            {
                "basis": "1-Pinv^i -> H^i (chern)",
                "prefactor": "(1-eps)^qlog(Q) -> Q^(H/z)",
            }
        ]
        for i in range(3):
            column = {"eps_power": i, "entries": []}
            for d in range(self.D + 1):
                row = next(r for r in self.rows if (r.d, r.i, r.m) == (d, i, 0))
                column["entries"].append(
                    {
                        "d": d,
                        "k_side": repr(row.k_scaled),
                        "limit": str(row.limit),
                        "coh_side": str(row.coh),
                        "z_exponent": row.z_exponent,
                        "equal": row.equal,
                    }
                )
            table.append(column)
        return table


def _times_one_minus_q_power(c: RationalFunctionQ, e: int) -> RationalFunctionQ:
    """(1-q)^e * c as its canonical pair, with no gcd.

    (q-1) is divided out of c's denominator while its coefficients sum to
    zero, v <= e times, and (-1)^v (1-q)^(e-v) joins the numerator.  gcd,
    content and the sign of the leading coefficient are all unchanged
    (q-1 is primitive with leading coefficient 1), so the pair stays
    canonical.
    """
    n, den = c.integer_pair()
    if not n:
        return c
    den, v = _divide_q_minus_one(den, e)
    k = e - v
    factor = [(-1) ** (v + k - j) * math.comb(k, j) for j in range(k + 1)]
    return R._make(ipoly_mul(factor, n), den)


def confluence_compare(N: int, D: int) -> ComparisonReport:
    """Exact verification that the q-side degenerates to the classical side."""
    jk = jk_series(N, D)
    jcoh = jcoh_modified(N, D)
    rows, failures = [], []
    for d in range(D + 1):
        # (1-q)^(b+d(N+1)) c_(d,b), shared by the rows (d, b+m, m)
        scaled_d = [_times_one_minus_q_power(c, b + d * (N + 1))
                    for b, c in enumerate(jk.coeffs[d])]
        for i in range(N + 1):
            for m in range(i + 1):
                scaled = scaled_d[i - m]
                if m > 1:
                    scaled = R.from_fraction(Fraction(1, math.factorial(m))) * scaled
                try:
                    lim = scaled.limit_q_to_1()
                except LimitUndefinedError as exc:
                    failures.append((d, i, m, f"limit undefined: {exc}"))
                    continue
                coh = jcoh.coefficient(d, i, m)
                row = ComparisonRow(d, i, m, scaled, lim, coh, -(d * (N + 1) + i))
                rows.append(row)
                if not row.equal:
                    failures.append((d, i, m, f"{lim} != {coh}"))
    return ComparisonReport(N, D, rows, failures)


# ---------------------------------------------------------------- equivariant side


@dataclass(frozen=True)
class EquivariantSpec:
    """Torus weights lambda_0..lambda_N and the speed z, with Lambda_i = q^(-lambda_i/z)."""

    lambdas: tuple
    z: complex = 1.0

    def __post_init__(self):
        n = len(self.lambdas)
        if n < 1:
            raise ValueError("need at least one weight")
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                mu = complex((self.lambdas[i] - self.lambdas[j]) / self.z)
                if abs(mu.imag) < 1e-12 and abs(mu.real - round(mu.real)) < 1e-9:
                    raise DomainError(
                        f"resonant weights: (lambda_{i} - lambda_{j})/z is an integer"
                    )

    @property
    def N(self) -> int:
        return len(self.lambdas) - 1

    def Lambda(self, i: int, q: complex) -> complex:
        return cmath.exp(-(self.lambdas[i] / self.z) * cmath.log(q))


@dataclass
class EquivariantJEvaluator:
    """One restriction of the equivariant q-deformed J-function.

    value(Q) = Lambda_i^(-qlog(Q)) sum_d Q^d / prod_j (q Lambda_j/Lambda_i; q)_d,
    optionally with the confluence rescaling (1-q)^(d(N+1))/z^(d(N+1)) per term.
    ``denominators`` holds the products prod_j (q Lambda_j/Lambda_i; q)_d,
    d = 0..truncation, at the evaluator's own q, built once.
    """

    spec: EquivariantSpec
    index: int
    q: complex
    truncation: int
    denominators: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.denominators = self.denominators_at(self.q)

    def denominators_at(self, q: complex) -> list:
        """The table of ``denominators`` at another q."""
        n = self.spec.N + 1
        Lam = [self.spec.Lambda(j, q) for j in range(n)]
        ratios = [Lam[j] / Lam[self.index] for j in range(n)]
        dens = [1.0 + 0j]
        acc = 1.0 + 0j
        for d in range(1, self.truncation + 1):
            qd = q**d
            for r in ratios:
                acc *= 1.0 - qd * r
            dens.append(acc)
        return dens

    def series_value(self, Q: complex, q: complex | None = None, rescaled: bool = False) -> complex:
        if q is None:
            q, dens = self.q, self.denominators
        else:
            dens = self.denominators_at(q)
        n = self.spec.N + 1
        total = 0j
        for d in range(self.truncation + 1):
            term = Q**d / dens[d]
            if rescaled:
                term *= ((1 - q) / self.spec.z) ** (d * n)
            total += term
        return total

    def eval(self, Q: complex, q: complex | None = None, rescaled: bool = False) -> complex:
        series = self.series_value(Q, q, rescaled)
        q = self.q if q is None else q
        ell = q_log(q, Q)
        # Lambda_i^(-ell) = exp(+(lambda_i/z) log(q) ell)
        prefactor = cmath.exp((self.spec.lambdas[self.index] / self.spec.z) * cmath.log(q) * ell)
        return prefactor * series

    def __call__(self, Q: complex) -> complex:
        return self.eval(Q)


def jk_equivariant(spec: EquivariantSpec, q: complex, D: int) -> list[EquivariantJEvaluator]:
    return [EquivariantJEvaluator(spec, i, q, D) for i in range(spec.N + 1)]


def equivariant_operator_residual(spec: EquivariantSpec, f, Q: complex, q: complex) -> float:
    """Relative residual of [prod_j (1 - Lambda_j sigma) - Q] f at a point."""
    t = [1.0 + 0j]  # the coefficients of prod_j (1 - Lambda_j x), ascending
    for j in range(spec.N + 1):
        lam = -spec.Lambda(j, q)
        t.append(t[-1] * lam)
        for k in range(len(t) - 2, 0, -1):  # lam t_(k-1) + t_k: the pinned bits rest on this order
            t[k] = t[k - 1] * lam + t[k]
    return _residual([1 - Q, *t[1:]], f, Q, q)


def jcoh_equivariant_value(spec: EquivariantSpec, i: int, Q: complex, D: int,
                           q0: complex = 0.5) -> complex:
    """Q^(lambda_i/z) sum_d Q^d prod_(r<=d) prod_j 1/(lambda_i - lambda_j + r z)."""
    lam = spec.lambdas
    z = spec.z
    acc = 0j
    prod = 1.0 + 0j
    for d in range(D + 1):
        if d:
            for j in range(spec.N + 1):
                prod *= lam[i] - lam[j] + d * z
        acc += Q**d / prod
    return cmath.exp((lam[i] / z) * spiral_log(Q, q0)) * acc


@dataclass
class EquivariantComparisonRow:
    index: int
    Q: complex
    limit: complex
    target: complex
    error: float
    observed_order: float


@dataclass
class EquivariantComparisonReport:
    spec: EquivariantSpec
    rows: list

    @property
    def max_error(self) -> float:
        return max(r.error for r in self.rows)

    def orders_near_one(self) -> bool:
        return all(abs(r.observed_order - 1) < 0.3 for r in self.rows)


def equivariant_confluence_compare(
    spec: EquivariantSpec,
    D: int,
    Q_samples=(0.2, 0.35, 0.1 + 0.2j),
    q0: complex = 0.8,
    t_schedule=tuple(2.0**-j for j in range(5, 13)),
) -> EquivariantComparisonReport:
    """Path limit of the rescaled pullback of each restriction against the
    classical equivariant value, truncated at the same order on both sides."""
    rows = []
    for i in range(spec.N + 1):
        ev = EquivariantJEvaluator(spec, i, q0, D)
        for Q in Q_samples:
            res = limit_solution_along_path(
                lambda qq, QQ, ev=ev: ev.eval(QQ, q=qq, rescaled=True), q0, Q, t_schedule,
                excluded_spirals=(-1.0,))
            target = jcoh_equivariant_value(spec, i, Q, D, q0)
            rows.append(EquivariantComparisonRow(
                i, Q, res.value, target, abs(res.value - target), res.observed_order))
    return EquivariantComparisonReport(spec, rows)


# ---------------------------------------------------------------- quantum rings


def quantum_reduce(power: int, N: int) -> tuple[int, int]:
    """Reduce eps^power by the small quantum relation eps^(N+1) = Q.

    Returns (Q-exponent, eps-exponent) with eps-exponent <= N.
    """
    if power < 0:
        raise ValueError("power must be >= 0")
    return divmod(power, N + 1)


def small_quantum_ring_checks(N: int) -> list[tuple[str, bool]]:
    """Consistency of the reduction with the ring presentations."""
    checks = []
    checks.append(("eps^(N+1) -> Q", quantum_reduce(N + 1, N) == (1, 0)))
    checks.append(("eps^(2N+2) -> Q^2", quantum_reduce(2 * (N + 1), N) == (2, 0)))
    checks.append(("eps^N unchanged", quantum_reduce(N, N) == (0, N)))
    ok = True
    for k in range(N + 1):
        ok = ok and quantum_reduce(N + 1 + k, N) == (1, k)
    checks.append(("eps^(N+1+k) -> Q eps^k for k <= N", ok))
    return checks
