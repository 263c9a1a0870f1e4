"""The floating q-special functions against independent mpmath references.

theta, q_log and q_character are checked on a grid of complex q reaching
|q| = 0.999 and arg q = pi - 0.05, including q next to the roots of unity
i, e^(2 pi i/3) and -1, and at real q in (0, 1) and (-1, 0), against the
defining bilateral sum summed in high precision.  log_qpoch_infinite is
checked against the sum of principal logs of its factors, the package
dilogarithm against mpmath.polylog, and the Euler-Maclaurin evaluation near
q = 1 against the direct sum.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest

from qonf.qspecial import (
    _log_qpoch_direct,
    _log_qpoch_euler_maclaurin,
    li2,
    log_qpoch_infinite,
    q_character,
    q_log,
    qpoch_infinite,
    theta,
)

ABS_Q = (0.5, 0.9, 0.99, 0.999)
ARG_Q = (0.4, math.pi / 2, 2 * math.pi / 3, 2.5, math.pi - 0.05)
POINTS = (0.7 + 0.4j, -1.5 - 0.3j)
LAM = 0.8 + 0.3j


def grid_tolerance(q):
    # rounding q and Q moves log theta by about eps * d^2 over the d ~ (1 - |q|)^-1/2 terms
    return 1e-12 / (1 - abs(q))


def _bilateral_sum(q, Q, dps):
    with mpmath.workdps(dps):
        q, Q = mpmath.mpc(q), mpmath.mpc(Q)
        lq, lQ = mpmath.log(q), mpmath.log(Q)
        center = 0.5 - float(lQ.real / lq.real)
        # beyond the window the terms are below 10^-dps times the largest one
        half = math.sqrt(2 * dps * math.log(10) / -float(lq.real)) + 2
        d = math.floor(center - half)
        t = mpmath.exp(d * (d - 1) / 2 * lq + d * lQ)  # q^(d(d-1)/2) Q^d
        step = mpmath.exp(d * lq) * Q  # t_(d+1)/t_d = q^d Q
        s = ds = mpmath.mpc(0)
        while d <= center + half:
            s += t
            ds += d * t
            t *= step
            step *= q
            d += 1
        return s, -ds / s


def theta_reference(q, Q):
    """theta_q(Q) and -Q theta'/theta, doubling the precision until two agree:
    near the roots of unity the sum is many orders below its largest term."""
    dps = 30
    prev = _bilateral_sum(q, Q, dps)
    while dps < 1000:
        dps *= 2
        cur = _bilateral_sum(q, Q, dps)
        agree = (abs(cur[0] - prev[0]) <= 1e-16 * abs(cur[0])
                 and abs(cur[1] - prev[1]) <= 1e-16 * max(1, abs(cur[1])))
        if agree:
            return complex(cur[0]), complex(cur[1])
        prev = cur
    raise AssertionError("reference sum did not converge")


def log_qpoch_reference(a, q, dps=20):
    """Sum of the principal logs of 1 - q^r a: term by term while |q^r a| >= 1/20,
    then -sum_n x^n/(n (1 - q^n)) for the tail starting at x."""
    with mpmath.workdps(dps):
        x, q = mpmath.mpc(a), mpmath.mpc(q)
        total = mpmath.mpc(0)
        while abs(x) >= 0.05:
            total += mpmath.log(1 - x)
            x *= q
        n, xn, qn = 1, x, q
        while abs(xn) > mpmath.mpf(10) ** (-dps - 2):
            total -= xn / (n * (1 - qn))
            n, xn, qn = n + 1, xn * x, qn * q
        return complex(total)


def rel(value, ref):
    return abs(value - ref) / abs(ref)


def check_theta_qlog_character(q):
    for Q in POINTS:
        th, ql = theta_reference(q, Q)
        th_lam, _ = theta_reference(q, LAM * Q)
        assert rel(theta(q, Q), th) < grid_tolerance(q)
        assert abs(q_log(q, Q) - ql) / max(1.0, abs(ql)) < grid_tolerance(q)
        assert rel(q_character(LAM, q, Q), th / th_lam) < grid_tolerance(q)


@pytest.mark.parametrize("arg", ARG_Q)
@pytest.mark.parametrize("r", ABS_Q)
class TestComplexQGrid:
    def test_theta_qlog_character(self, r, arg):
        check_theta_qlog_character(cmath.rect(r, arg))

    def test_log_qpoch_infinite(self, r, arg):
        q = cmath.rect(r, arg)
        a = 0.6 + 0.5j if arg < 2 else -1.7 + 0.4j
        ref = log_qpoch_reference(a, q)
        # tol bounds the truncation; rounding r log q in the float sum adds about eps/(1 - |q|)
        assert abs(log_qpoch_infinite(a, q) - ref) < 1e-12 + 1e-13 / (1 - r)


# across (0, 1), and on both sides of e^(-pi sqrt 2) ~ 0.0118, where real q
# switches from the Poisson dual to the defining sum
@pytest.mark.parametrize("q", [0.0106, 0.0117, 0.0118, 0.0129,
                               0.03, 0.1, 0.3, 0.49, 0.5, 0.7, 0.9, 0.99])
def test_theta_qlog_character_at_positive_real_q(q):
    check_theta_qlog_character(q)


@pytest.mark.parametrize("q", [-0.5, -0.9, -0.99])
def test_theta_at_negative_real_q(q):
    for Q in POINTS:
        th, ql = theta_reference(q, Q)
        assert rel(theta(q, Q), th) < grid_tolerance(q)
        assert abs(q_log(q, Q) - ql) / max(1.0, abs(ql)) < grid_tolerance(q)


class TestDilogarithm:
    def check(self, x):
        ref = complex(mpmath.polylog(2, x))
        assert abs(li2(x) - ref) <= 4e-15 * max(abs(ref), 1e-300)

    def test_random_points(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            self.check(cmath.rect(10 ** rng.uniform(-6, 6), rng.uniform(-math.pi, math.pi)))

    @pytest.mark.parametrize("phi", np.linspace(-math.pi, math.pi, 13))
    def test_unit_circle(self, phi):
        self.check(cmath.exp(1j * phi))

    @pytest.mark.parametrize("x", [1.0, 1 - 1e-12, 1 + 1e-9j, 1 - 1e-9j, 0.999 + 0.001j, 1.001,
                                   0.5, -1.0, 1e-300, 1e-9j])
    def test_near_one_and_special_points(self, x):
        self.check(x)

    @pytest.mark.parametrize("x", [1.5, 2.0, 10.0, 1e5])
    def test_both_sides_of_the_cut(self, x):
        above, below = li2(complex(x, 1e-14)), li2(complex(x, -1e-14))
        self.check(complex(x, 1e-14))
        self.check(complex(x, -1e-14))
        assert above.imag == pytest.approx(math.pi * math.log(x), rel=1e-12)
        assert below == pytest.approx(above.conjugate(), rel=1e-14)
        # on the cut itself: the limit from below, as for the principal log(1 - x)
        self.check(x)
        assert li2(x) == pytest.approx(below, rel=1e-12)


NEAR1_A = [0.3, 0.4 * cmath.exp(0.9j), -0.95, 0.99 * cmath.exp(0.2j),
           1.7 * cmath.exp(0.6j), -5.0, 3 * cmath.exp(-2.5j), 40 * cmath.exp(0.2j)]


class TestEulerMaclaurin:
    @pytest.mark.parametrize("a", NEAR1_A)
    @pytest.mark.parametrize("k", [3, 6, 10])
    def test_agrees_with_direct_sum(self, a, k):
        # includes |a| > 1: the expansion is the sum of principal logs, not just its exponential
        q = 0.8 ** (2.0**-k)
        em = _log_qpoch_euler_maclaurin(complex(a), -math.log(q), 1e-12)
        assert em is not None
        direct = _log_qpoch_direct(a, complex(q), 1e-12)
        assert abs(em - direct) < 1e-11 + 1e-13 * abs(direct)
        assert log_qpoch_infinite(a, q) == em

    @pytest.mark.parametrize("a, k", [(1.0 + 1e-9j, 6), (2.0, 6), (5 * cmath.exp(1e-6j), 6),
                                      (40 * cmath.exp(0.05j), 3)])
    def test_cut_falls_back_to_direct_sum(self, a, k):
        # on the cut, or close to it compared with -log q
        q = 0.8 ** (2.0**-k)
        assert _log_qpoch_euler_maclaurin(complex(a), -math.log(q), 1e-12) is None
        assert log_qpoch_infinite(a, q) == _log_qpoch_direct(a, complex(q), 1e-12)

    def test_matches_principal_log_sum_for_large_a(self):
        q = 0.97
        for a in (-3 + 2j, 2.5 * cmath.exp(-0.8j), -8.0):
            assert abs(log_qpoch_infinite(a, q) - log_qpoch_reference(a, q)) < 1e-12

    @pytest.mark.parametrize("k", [4, 10, 14])
    def test_vanishing_factor_near_one(self, k):
        q = 0.8 ** (2.0**-k)
        for n in (0, 1, 2, 5, 17):
            assert log_qpoch_infinite(q**-n, q) == complex("-inf")
        assert qpoch_infinite(q**-2, q) == 0
        qc = 0.99 * cmath.exp(0.3j)
        assert log_qpoch_infinite(qc**-7, qc) == complex("-inf")

    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_tolerance_is_honoured(self, tol):
        cases = [(0.9, 0.5 + 0.5j), (0.95, -2 + 1j), (0.98, 0.9 * cmath.exp(0.4j)),
                 (0.9 * cmath.exp(0.5j), 0.7 - 0.2j)]
        for q, a in cases:
            if isinstance(q, float):
                assert _log_qpoch_euler_maclaurin(complex(a), -math.log(q), tol) is not None
            ref = log_qpoch_reference(a, q)
            assert abs(log_qpoch_infinite(a, q, tol) - ref) <= tol + 1e-14 * max(1.0, abs(ref))
