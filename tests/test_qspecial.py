import cmath
import math

import mpmath
import numpy as np
import pytest

from qonf.qspecial import (
    DomainError,
    PoleProximityError,
    QValue,
    char_power,
    jacobi_triple_product_check,
    log_qpoch_infinite,
    on_q_lattice,
    q_character,
    q_log,
    qpoch_finite,
    qpoch_infinite,
    spiral_contains,
    spiral_log,
    theta,
    theta_residual_scale,
)

QGRID = [0.15, 0.35, 0.55, 0.75, 0.9]
QPOINTS = [0.7 + 0.4j, 1.3 - 0.2j, -0.6 + 0.9j, 2.1 + 0.7j, 0.45 - 1.1j]


def theta_oracle(q, Q):
    """Independent evaluation via the classical theta3 with nome sqrt(q)."""
    z = cmath.log(Q / cmath.sqrt(q)) / 2j
    return complex(mpmath.jtheta(3, z, cmath.sqrt(q)))


class TestPochhammer:
    def test_empty_product(self):
        assert qpoch_finite(0.7 + 0.2j, 0.5, 0) == 1

    def test_direct_product(self):
        assert qpoch_finite(0.5, 0.5, 2) == pytest.approx((1 - 0.5) * (1 - 0.25))
        q = 0.3
        assert qpoch_finite(q, q, 3) == pytest.approx((1 - 0.3) * (1 - 0.09) * (1 - 0.027))

    def test_infinite_at_zero_argument(self):
        assert qpoch_infinite(0.0, 0.5) == 1

    def test_euler_value(self):
        assert qpoch_infinite(0.5, 0.5, 1e-12) == pytest.approx(0.2887880950866, abs=1e-11)

    def test_recursion(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            q = rng.uniform(0.1, 0.8)
            lhs = (1 - a) * qpoch_infinite(q * a, q)
            assert lhs == pytest.approx(qpoch_infinite(a, q), rel=1e-10)

    def test_zero_factor_gives_zero(self):
        q = 0.5
        assert qpoch_infinite(1.0, q) == 0
        assert log_qpoch_infinite(1.0, q) == complex("-inf")


class TestTheta:
    def test_reference_value(self):
        # sum over d in Z of 0.1^(d(d-1)/2): 2*(1 + 0.1 + 0.001 + 1e-6 + ...)
        assert theta(0.1, 1.0) == pytest.approx(2.2020020002, abs=1e-9)

    @pytest.mark.parametrize("q", QGRID)
    @pytest.mark.parametrize("Q", QPOINTS)
    def test_matches_classical_theta(self, q, Q):
        assert theta(q, Q) == pytest.approx(theta_oracle(q, Q), rel=1e-10)

    @pytest.mark.parametrize("q", QGRID)
    @pytest.mark.parametrize("Q", QPOINTS)
    def test_functional_equation(self, q, Q):
        lhs = theta(q, q * Q) * Q
        assert abs(lhs - theta(q, Q)) <= 1e-10 * abs(theta(q, Q))

    def test_index_symmetry(self):
        for q in (0.2, 0.6):
            for Q in QPOINTS:
                assert theta(q, Q) == pytest.approx(Q * theta(q, 1 / Q), rel=1e-10)

    @pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
    def test_zeros_on_negative_spiral(self, k):
        for q in (0.35, 0.8):
            assert theta_residual_scale(q, -(q**k)) < 1e-8

    def test_essential_singularity_rejected(self):
        with pytest.raises(DomainError):
            theta(0.5, 0.0)

    def test_residual_scale_and_triple_product_reject_zero_Q(self):
        with pytest.raises(DomainError):
            theta_residual_scale(0.5, 0)
        with pytest.raises(DomainError):
            jacobi_triple_product_check(0.5, 0)

    def test_modular_and_direct_agree_across_threshold(self):
        # -log q near 0.7: each takes one Poisson-dual step of the reduction
        for q in (0.49, 0.50, 0.51, 0.52):
            for Q in QPOINTS:
                assert theta(q, Q) == pytest.approx(theta_oracle(q, Q), rel=1e-9)


def lattice_scan(x, q, tol):
    return any(abs(x - q**k) < tol * abs(q**k) for k in range(-8, 9))


class TestQLattice:
    @pytest.mark.parametrize("q", [0.35, 0.9, 0.5 * cmath.exp(2j), -0.6])
    def test_agrees_with_scan(self, q):
        for k in range(-5, 6):
            x = q**k
            assert on_q_lattice(x, q, 1e-9)
            assert not on_q_lattice(x * (1 + 1e-7), q, 1e-9)
            for y in (x, -x, x * (1 + 1e-7), x * (1 + 1e-7j)):
                assert on_q_lattice(y, q, 1e-9) == lattice_scan(y, q, 1e-9)

    def test_zero_is_off_the_lattice(self):
        assert not on_q_lattice(0, 0.5, 1e-9)


class TestTripleProduct:
    def test_reference_points(self):
        assert jacobi_triple_product_check(0.3, 1.0) < 1e-10
        assert jacobi_triple_product_check(0.5, -2 + 1j) < 1e-10

    def test_ten_sample_points(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            q = rng.uniform(0.05, 0.9)
            Q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(Q) < 0.1:
                Q += 0.5
            assert jacobi_triple_product_check(q, Q) < 1e-10

    def test_zero_of_theta(self):
        assert jacobi_triple_product_check(0.4, -1.0) == 0.0


class TestCharacterAndQLog:
    @pytest.mark.parametrize("q", QGRID)
    @pytest.mark.parametrize("Q", QPOINTS)
    def test_character_shift_law(self, q, Q):
        lam = 0.8 + 0.3j
        lhs = q_character(lam, q, q * Q)
        rhs = lam * q_character(lam, q, Q)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_character_at_unit(self):
        assert q_character(1.0, 0.5, 0.3 + 0.2j) == pytest.approx(1.0)

    def test_character_multiplicativity_is_q_invariant(self):
        q, Q = 0.45, 0.8 + 0.5j
        lam, mu = 1.3 + 0.2j, 0.6 - 0.1j
        f = lambda x: q_character(lam, q, x) * q_character(mu, q, x) / q_character(lam * mu, q, x)
        assert f(q * Q) == pytest.approx(f(Q), rel=1e-10)

    @pytest.mark.parametrize("q", QGRID)
    @pytest.mark.parametrize("Q", QPOINTS)
    def test_qlog_shift_law(self, q, Q):
        assert q_log(q, q * Q) - q_log(q, Q) == pytest.approx(1.0, abs=1e-9)

    def test_qlog_reference_via_series(self):
        # direct ratio of the series and its termwise derivative
        q, Q = 0.2, 1.0
        ds = range(-40, 41)
        th = sum(q ** (d * (d - 1) / 2) * Q**d for d in ds)
        thp = sum(d * q ** (d * (d - 1) / 2) * Q ** (d - 1) for d in ds)
        assert q_log(q, Q) == pytest.approx(-Q * thp / th, rel=1e-12)

    def test_pole_proximity_raises(self):
        q = 0.5
        with pytest.raises(PoleProximityError):
            q_log(q, -(q**3) * (1 + 1e-12))
        with pytest.raises(PoleProximityError):
            q_character(2.0, q, -(q**2) / 2 * (1 + 1e-12))

    def test_scaled_qlog_tends_to_log(self):
        # (q-1) qlog(Q) -> log Q along q = q0^t, linear rate in t
        q0, Q = 0.8, 2.0
        errs = []
        for t in (2**-8, 2**-9, 2**-10):
            q = q0**t
            errs.append(abs((q - 1) * q_log(q, Q) - math.log(Q)))
        ratio = errs[1] / errs[0]
        assert 0.35 < ratio < 0.65
        ratio = errs[2] / errs[1]
        assert 0.35 < ratio < 0.65


class TestSpirals:
    def test_integer_power_on_spiral(self):
        q0 = 0.5
        assert spiral_contains(1.0, q0, q0**3)

    def test_off_spiral(self):
        assert not spiral_contains(1.0, 0.5, 1j)

    def test_constructed_point(self):
        q0 = 0.5 * cmath.exp(0.1j)
        nu = 1j
        Q = nu * q0**2.5
        assert spiral_contains(nu, q0, Q)

    def test_spiral_log_is_principal_for_real_q0(self):
        for w in (2.0, -1 + 1j, -3j, 0.5 + 0.1j):
            assert spiral_log(w, 0.5) == pytest.approx(cmath.log(w))

    def test_char_power(self):
        assert char_power(4.0, 0.5, 0.5) == pytest.approx(2.0)


class TestValueObjects:
    def test_qvalue_validation(self):
        with pytest.raises(DomainError):
            QValue(1.2)
