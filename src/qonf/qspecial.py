"""Floating-point evaluation of the q-special functions.

Provides the finite and infinite q-Pochhammer symbols, the theta function

    theta_q(Q) = sum_{d in Z} q^(d(d-1)/2) Q^d,        0 < |q| < 1,

the multiplicative characters e_{q,lam}(Q) = theta_q(Q)/theta_q(lam*Q)
solving f(qQ) = lam f(Q), the additive q-logarithm
qlog(Q) = -Q theta'_q(Q)/theta_q(Q) solving f(qQ) = f(Q) + 1, and geometric
predicates for q-spirals.

theta has one evaluator for every q, a modular reduction (see
_log_theta_reduced).  With lam = -log q, reduced modulo 2 pi i to
|Im lam| <= pi, and b = log Q + lam/2, the terms of the defining bilateral
sum decay like exp(-Re lam d^2/2), and those of its Poisson-dual form

    theta_q(Q) = sqrt(2 pi / lam) * sum_k exp((b - 2 pi i k)^2 / (2 lam))

like exp(-2 pi^2 Re(1/lam) k^2).  While |lam|^2 < 2 pi^2 the dual decays
faster and the dual step is taken, repeatedly if need be; the defining sum
is summed once |lam|^2 >= 2 pi^2 (for q in (0, 1), once q <= e^(-pi sqrt 2),
about 0.0118).  That sum has Re lam >= pi, so at most 13 terms lie within
e^-45 of the largest, and a plain loop sums them: NumPy's per-call overhead
would exceed the work.  So q -> 1, where the direct sum suffers
catastrophic float cancellation for complex Q, and q near any other root of
unity, including q -> -1, all end in a short, well-conditioned sum.
All ratio-type functions work on log values so that magnitudes of order
exp(1/(1-q)) never materialize.

log (a;q)_inf has two regimes as well.  For q in (0, 1) it is the
Euler-Maclaurin expansion

    log (a;q)_inf = -Li_2(a)/lam + log(1 - a)/2
                    - sum_{k>=1} B_2k/(2k)! lam^(2k-1) Li_(2-2k)(a) + R_K

(McIntosh, Ramanujan J. 3 (1999); Zagier, "The dilogarithm function"
(2007)) whenever a stated bound on R_K is at most the requested tol: a few
microseconds per call however close q is to 1.  Li_2 is :func:`li2`, and the
Li_(2-2k) are rational functions built from Eulerian numbers.  Otherwise
(complex q, a on or near the cut [1, inf) compared with lam, or q far from 1)
it is the direct sum of log(1 - q^r a).  Both give the sum of the principal
logs of the factors.

Sign convention for the q -> 1 limits: with theta as above, the limit laws
hold with plain arguments on the right half of the cut plane,

    (q-1) qlog(Q)        -> log Q        off the spiral (-1) q0^R,
    e_{q, q^mu}(Q)        -> Q^mu        off the spiral (-1) q0^R,

which is the convention used by every confluence call site in this package.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .rings import QonfError

TWO_PI = 2.0 * math.pi
_EPS = sys.float_info.epsilon
_ZERO_FACTOR_ULPS = 16.0  # bounds the rounding of r log q + log a, in eps times its size
_PI2_6 = math.pi**2 / 6
_EM_TERMS = 12  # Bernoulli terms available to the Euler-Maclaurin expansion (and to li2)


def _even_bernoulli_over(n: int, shift: int) -> list:
    """B_2k/(2k + shift)! for k = 1..n as floats, from the tangent numbers
    T_1, T_3, ... of Brent and Harvey's integer recurrence."""
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return [(-1) ** (k - 1) * 2 * k * t[k] / (4**k * (4**k - 1) * math.factorial(2 * k + shift))
            for k in range(1, n + 1)]


def _eulerian_rows(n: int) -> list:
    """Eulerian numbers A(m, j), j < m, for m = 0..n (A_0 = 1 by convention)."""
    rows = [[1]]
    for m in range(1, n + 1):
        prev = rows[-1] + [0]
        rows.append([(j + 1) * prev[j] + (m - j) * (prev[j - 1] if j else 0) for j in range(m)])
    return rows


_LI2_COEFF = _even_bernoulli_over(_EM_TERMS, 1)  # B_2k/(2k+1)!
_EM_COEFF = _even_bernoulli_over(_EM_TERMS, 0)  # B_2k/(2k)!
_ZETA3 = 1.2020569031595943
_EM_BOUND = [2 * _ZETA3 / math.pi * math.factorial(2 * k) for k in range(1, _EM_TERMS + 1)]
_EM_IMAGES = math.pi**2 / 4  # 2 (1 - 2^-2K) zeta(2K) <= pi^2/4
# A_0, A_2, ..., A_22: Li_(2-2k)(x) = x A_(2k-2)(x)/(1 - x)^(2k-1)
_EULERIAN = [tuple(map(float, row)) for row in _eulerian_rows(2 * _EM_TERMS - 2)[::2]]


class PoleProximityError(QonfError):
    """Evaluation point is within tolerance of a pole spiral."""


class DomainError(QonfError):
    """Evaluation point is outside the function's domain."""


@dataclass(frozen=True)
class QValue:
    """Deformation parameter, restricted to the open punctured unit disk."""

    q: complex

    def __post_init__(self):
        if not 0 < abs(self.q) < 1:
            raise DomainError(f"need 0 < |q| < 1, got |q| = {abs(self.q)}")


def _as_q(q) -> complex:
    if isinstance(q, QValue):
        return q.q
    q = complex(q)
    if not 0 < abs(q) < 1:
        raise DomainError(f"need 0 < |q| < 1, got {q}")
    return q


# ---------------------------------------------------------------- dilogarithm


def _log1p(z: complex) -> complex:
    """log(1 + z) without the cancellation of forming 1 + z (Kahan's correction)."""
    w = 1 + z
    if w == 1:
        return z
    return cmath.log(w) * (z / (w - 1))


def _li2_series(x: complex) -> complex:
    # sum_n B_n u^(n+1)/(n+1)! with u = -log(1 - x), |u| <= pi/3 on the reduced domain
    u = -_log1p(-x)
    v = u * u
    s = 0j
    for c in reversed(_LI2_COEFF):
        s = (s + c) * v
    return u - v / 4 + u * s


def li2(x: complex) -> complex:
    """Principal dilogarithm Li_2(x) = -integral_0^x log(1 - t)/t dt, in double precision.

    The cut is [1, inf); on it the value is the limit from below, which matches
    the principal log(1 - x).  The reflections x -> 1/x and x -> 1 - x reduce
    x to |x| <= 1, Re x <= 1/2, where the Bernoulli series in -log(1 - x)
    converges.
    """
    x = complex(x)
    if x == 1:
        return complex(_PI2_6)
    if abs(x) > 1:
        lg = cmath.log(-x)
        if x.imag == 0 and x.real > 1:
            lg = complex(lg.real, math.pi)  # log(-x + i0): the value from below
        return -_li2_unit_disk(1 / x) - _PI2_6 - 0.5 * lg * lg
    return _li2_unit_disk(x)


def _li2_unit_disk(x: complex) -> complex:
    if x.real > 0.5:
        return _PI2_6 - cmath.log(x) * cmath.log(1 - x) - _li2_series(1 - x)
    return _li2_series(x)


# ---------------------------------------------------------------- Pochhammer


def qpoch_finite(a: complex, q, d: int) -> complex:
    """Finite q-Pochhammer symbol prod_{r=0}^{d-1} (1 - q^r a); empty product is 1."""
    q = _as_q(q)
    if d < 0:
        raise ValueError("d must be >= 0")
    out = 1.0 + 0j
    p = 1.0 + 0j
    for _ in range(d):
        out *= 1.0 - p * a
        p *= q
    return out


def _qpoch_tail_length(a: complex, q: complex, tol: float) -> int:
    # smallest R with |q^(R+1) a| < tol (1 - |q|); the remaining log-tail is < tol
    if a == 0:
        return 0
    bound = tol * (1.0 - abs(q))
    if abs(a) < bound:
        return 0
    return int(math.ceil((math.log(bound) - math.log(abs(a))) / math.log(abs(q))))


def _log_qpoch_direct(a: complex, q: complex, tol: float) -> complex:
    R = _qpoch_tail_length(a, q, tol)
    total = 0j
    log_q, log_a = cmath.log(q), cmath.log(a)
    chunk = 1 << 21
    for r0 in range(0, R + 1, chunk):
        r = np.arange(r0, min(r0 + chunk, R + 1), dtype=float)
        x = -np.exp(r * log_q + log_a)
        small = np.abs(x) < 1e-4
        vals = np.empty_like(x)
        xs = x[small]
        vals[small] = xs - xs * xs / 2 + xs**3 / 3
        big = 1.0 + x[~small]
        # a factor within the rounding of its exponent r log q + log a is zero;
        # the rounding at the largest r bounds all, so one min() screens the chunk
        size = np.abs(big)
        noise = _ZERO_FACTOR_ULPS * _EPS * (1.0 + r[-1] * abs(log_q) + abs(log_a))
        if size.size and size.min() <= noise:
            if np.any(size <= _ZERO_FACTOR_ULPS * _EPS * (1.0 + r[~small] * abs(log_q) + abs(log_a))):
                return complex("-inf")
        vals[~small] = np.log(big)
        total += complex(vals.sum())
    return total


def _log_qpoch_euler_maclaurin(a: complex, lam: float, tol: float):
    """log (a;q)_inf for q = exp(-lam) in (0, 1) from its Euler-Maclaurin expansion,
    or None when no K <= _EM_TERMS makes the remainder bound at most tol.

    Summing f(u) = log(1 - a e^-u) over u = 0, lam, 2 lam, ... gives

        -Li_2(a)/lam + log(1 - a)/2 - sum_{k=1}^K B_2k/(2k)! lam^(2k-1) Li_(2-2k)(a) + R_K,

    |R_K| <= 2 zeta(2K+1) (2 pi)^-(2K+1) lam^2K integral_0^inf |f^(2K+1)(u)| du.
    Here f^(2K+1)(u) = Li_-2K(a e^-u) = (2K)! sum_m (u - z_m)^-(2K+1) with
    z_m = log a + 2 pi i m, and integral_0^inf |u - z|^-(2K+1) du <= 2 dist(z, [0, inf))^-2K.
    With d = dist(log a, [0, inf)), the distance of a from the cut [1, inf) in
    the logarithmic plane, and dist(z_m, [0, inf)) >= (2|m| - 1) pi for m != 0,

        |R_K| <= (2 zeta(3)/pi) (2K)! [(lam/(2 pi d))^2K + (pi^2/4) (lam/(2 pi^2))^2K].

    This covers every omitted Bernoulli term and the exponentially small part,
    about exp(-2 pi d/lam) at the best K.  K is the smallest that meets tol.
    """
    mu = cmath.log(a)
    d = abs(mu.imag) if mu.real >= 0 else abs(mu)
    if d == 0:
        return None
    s0 = (lam / (TWO_PI * d)) ** 2
    s1 = (lam / (TWO_PI * math.pi)) ** 2
    p0 = p1 = 1.0
    for K in range(1, _EM_TERMS + 1):
        p0 *= s0
        p1 *= s1
        if _EM_BOUND[K - 1] * (p0 + _EM_IMAGES * p1) <= tol:
            break
    else:
        return None
    total = -li2(a) / lam + 0.5 * cmath.log(1 - a) - _EM_COEFF[0] * lam * (a / (1 - a))
    # Li_-n(a) = a A_n(a)/(1 - a)^(n+1) with the Eulerian polynomial A_n; for even
    # n >= 2, Li_-n(a) = -Li_-n(1/a), which keeps the powers bounded when |a| > 1
    y, sign = (1 / a, -1.0) if abs(a) > 1 else (a, 1.0)
    step = lam / (1 - y)
    power = step
    for k in range(2, K + 1):
        power *= step * step  # (lam/(1 - y))^(2k-1)
        poly = 0j
        for c in _EULERIAN[k - 1]:
            poly = poly * y + c
        total -= _EM_COEFF[k - 1] * power * (sign * y * poly)
    return total


def log_qpoch_infinite(a: complex, q, tol: float = 1e-12) -> complex:
    """log of (a;q)_infinity, within absolute truncation error tol.

    ``tol`` bounds the truncation only: the remainder of the expansion, or
    the tail of the sum.  Rounding comes on top of it, and it can exceed tol
    when tol is near machine precision eps.  Two evaluations, chosen by the
    truncation bound:

    - for q in (0, 1), the Euler-Maclaurin expansion in lam = -log q (see
      :func:`_log_qpoch_euler_maclaurin`) whenever its remainder bound is at
      most tol.  It costs a few microseconds however close q is to 1, and it
      holds when a is far from the cut [1, inf) compared with lam.  Its
      rounding is about eps |Li_2(a)| / lam, from the leading term;
    - otherwise (complex q, a on or near [1, inf), q not close to 1) the sum
      of log(1 - q^r a) with a geometric tail bound.  Term r rounds by
      about eps r |log q|, from its exponent r log q + log a, so the error
      grows with the number of terms (about 2e-11 over 30000 terms).

    Returns -inf when some factor vanishes to machine precision.  The branch
    is the sum of principal logs of the factors.  For q in (0, 1) the
    expansion, with principal Li_2 and log on C minus [1, inf), is the same
    branch: every factor 1 - q^r a avoids (-inf, 0] there, so the sum is
    analytic in a on that set and agrees with the expansion near a = 0.
    Callers exponentiate only differences of returned values.
    """
    q = _as_q(q)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if a == 0:
        return 0j
    if q.imag == 0 and q.real > 0:
        value = _log_qpoch_euler_maclaurin(complex(a), -math.log(q.real), tol)
        if value is not None:
            return value
    return _log_qpoch_direct(a, q, tol)


def qpoch_infinite(a: complex, q, tol: float = 1e-12) -> complex:
    """(a;q)_infinity as a truncated product, within multiplicative error exp(tol)."""
    lg = log_qpoch_infinite(a, q, tol)
    if lg == complex("-inf"):
        return 0j
    return cmath.exp(lg)


# ---------------------------------------------------------------- theta


def _log_theta_short(lq: complex, lQ: complex):
    """The defining series at q = e^lq, Q = e^lQ when -Re lq >= pi, as the
    modular reduction leaves it; returns (log_value, log_max_term, qlog
    ratio).  Only the terms within e^-45 of the largest are summed, at most 13."""
    center = 0.5 - lQ.real / lq.real
    half = math.sqrt(90.0 / -lq.real)
    ds = range(math.floor(center - half), math.ceil(center + half) + 1)
    expos = [(d * (d - 1) / 2) * lq + d * lQ for d in ds]
    pivot = max(e.real for e in expos)  # the largest real part: no weight overflows
    s = dsum = 0j
    for d, e in zip(ds, expos):
        w = cmath.exp(e - pivot)
        s += w
        dsum += d * w
    return pivot + cmath.log(s), pivot, -dsum / s


def _log_theta_reduced(lam: complex, lQ: complex):
    """theta at q = e^-lam, Q = e^lQ for any Re lam > 0, by modular reduction.

    theta depends on lam only modulo 2 pi i, so lam is first reduced to
    |Im lam| <= pi.  The direct sum's terms decay like exp(-Re lam d^2/2) and
    the dual's like exp(-2 pi^2 Re(1/lam) k^2); while the dual decays faster
    (|lam|^2 < 2 pi^2) the Poisson identity

        theta_q(Q) = sqrt(2 pi/lam) e^(b^2/(2 lam)) theta_q~(Q~),
        lam~ = 4 pi^2/lam,   log Q~ = -(2 pi i b + 2 pi^2)/lam,   b = log Q + lam/2,

    replaces the problem by one whose Im(log q/(2 pi i)) is more than twice as
    large.  For q in (0, 1) one such step is the whole reduction, and the
    defining sum of lam~ is the plain dual sum.  The direct sum that ends the
    recursion has Re lam >= pi, so a few terms carry it and it cancels only
    near the zeros of theta; this covers q near every root of unity, where
    neither the direct nor the plain dual sum can be summed in double
    precision.
    """
    lam = complex(lam.real, lam.imag - TWO_PI * round(lam.imag / TWO_PI))
    if abs(lam) ** 2 >= 2 * math.pi**2:
        return _log_theta_short(-lam, lQ)
    b = lQ + lam / 2
    prefactor = 0.5 * cmath.log(TWO_PI / lam) + b * b / (2 * lam)
    log_value, scale, ratio = _log_theta_reduced(
        4 * math.pi**2 / lam, -(TWO_PI * 1j * b + TWO_PI * math.pi) / lam)
    return prefactor + log_value, prefactor.real + scale, -(b + TWO_PI * 1j * ratio) / lam


def _theta_parts(q: complex, Q: complex):
    if Q == 0:
        raise DomainError("theta has an essential singularity at Q = 0")
    return _log_theta_reduced(-cmath.log(q), cmath.log(Q))


def log_theta(q, Q: complex) -> complex:
    """A complex logarithm of theta_q(Q); exponentials of differences are exact."""
    return _theta_parts(_as_q(q), Q)[0]


def theta(q, Q: complex) -> complex:
    """theta_q(Q) = sum_{d in Z} q^(d(d-1)/2) Q^d."""
    log_value, _, _ = _theta_parts(_as_q(q), Q)
    if log_value.real > 700:
        raise QonfError("theta magnitude overflows double precision; use log_theta")
    return cmath.exp(log_value)


def theta_residual_scale(q, Q: complex) -> float:
    """|theta| relative to its dominant term: ~1 generically, ~0 at the zeros -q^Z."""
    q = _as_q(q)
    log_value, scale, _ = _theta_parts(q, Q)
    return math.exp(log_value.real - scale)


def jacobi_triple_product_check(q, Q: complex, tol: float = 1e-12) -> float:
    """Relative residual of theta_q(Q) = (q;q)_inf (-Q;q)_inf (-q/Q;q)_inf."""
    q = _as_q(q)
    log_value, scale, _ = _theta_parts(q, Q)
    lhs = cmath.exp(log_value - scale)
    rhs_log = (
        log_qpoch_infinite(q, q, tol)
        + log_qpoch_infinite(-Q, q, tol)
        + log_qpoch_infinite(-q / Q, q, tol)
    )
    rhs = 0j if rhs_log == complex("-inf") else cmath.exp(rhs_log - scale)
    if abs(lhs) < 1e-12 and abs(rhs) < 1e-12:
        return 0.0
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


# ---------------------------------------------------------------- characters and q-log


_POLE_TOL = 1e-8  # relative distance to -q^Z below which characters and q-logs refuse


def on_q_lattice(x: complex, q: complex, tol: float) -> bool:
    """Whether x is within relative tol of q^k for some integer k; False at x = 0.

    Only the k next to log|x|/log|q| can be that close, so five are tried.
    """
    if abs(q) == 1:
        raise DomainError(f"the lattice q^Z needs |q| != 1, got q = {q}")
    if x == 0:
        return False
    k0 = math.floor(math.log(abs(x)) / math.log(abs(q)))
    for k in range(k0 - 2, k0 + 3):
        p = q**k
        if abs(x - p) < tol * abs(p):
            return True
    return False


def q_character(lam: complex, q, Q: complex) -> complex:
    """e_{q,lam}(Q) = theta_q(Q)/theta_q(lam Q): solves f(qQ) = lam f(Q)."""
    q = _as_q(q)
    if lam == 0 or Q == 0:
        raise DomainError("lam and Q must be nonzero")
    if on_q_lattice(-lam * Q, q, _POLE_TOL):
        raise PoleProximityError(f"lam*Q = {lam * Q} is within {_POLE_TOL} of the pole spiral")
    return cmath.exp(log_theta(q, Q) - log_theta(q, lam * Q))


def q_log(q, Q: complex) -> complex:
    """qlog(Q) = -Q theta'_q(Q)/theta_q(Q): solves f(qQ) = f(Q) + 1."""
    q = _as_q(q)
    if Q == 0:
        raise DomainError("Q must be nonzero")
    if on_q_lattice(-Q, q, _POLE_TOL):
        raise PoleProximityError(f"Q = {Q} is within {_POLE_TOL} of the pole spiral")
    return _theta_parts(q, Q)[2]


# ---------------------------------------------------------------- spirals and branches


def spiral_contains(nu: complex, q0: complex, Q: complex, tol: float = 1e-8) -> bool:
    """Whether Q lies on the continuous spiral nu * q0^R (within angular tol)."""
    if nu == 0 or Q == 0:
        raise DomainError("nu and Q must be nonzero")
    if not 0 < abs(q0) < 1:
        raise DomainError("need 0 < |q0| < 1")
    w = Q / nu
    s = math.log(abs(w)) / math.log(abs(q0))
    residual = cmath.phase(w) - s * cmath.phase(q0)
    residual = (residual + math.pi) % TWO_PI - math.pi
    return abs(residual) < tol


def spiral_log(w: complex, q0: complex) -> complex:
    """Logarithm with branch cut along the spiral (-1) q0^R.

    For q0 on (0, 1) this is the principal logarithm; in general the cut is
    rotated onto the spiral through -1, so that the branch is continuous on
    the complement used by the confluence limit theorems.
    """
    if w == 0:
        raise DomainError("log of zero")
    s = math.log(abs(w)) / math.log(abs(q0))
    cut_angle = math.pi + s * cmath.phase(q0)
    base = cmath.phase(w)
    angle = cut_angle - ((cut_angle - base) % TWO_PI)
    # representative in (cut_angle - 2 pi, cut_angle]
    return complex(math.log(abs(w)), angle)


def char_power(base: complex, exponent: complex, q0: complex) -> complex:
    """base**exponent using the spiral-cut logarithm of :func:`spiral_log`."""
    return cmath.exp(exponent * spiral_log(base, q0))
