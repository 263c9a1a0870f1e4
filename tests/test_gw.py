import hashlib
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qonf.gw import (
    EquivariantSpec,
    JFunctionK,
    _inverse_power,
    _lift,
    _q_inverse_power,
    _times_one_minus_q_power,
    confluence_compare,
    equivariant_confluence_compare,
    equivariant_operator_residual,
    gw_potential_p2,
    jcoh_modified,
    jcoh_ode_residual,
    jcoh_residual_is_zero,
    jcoh_series,
    jk_closed_formula,
    jk_equivariant,
    jk_modified,
    jk_qde_residual,
    jk_series,
    nd_recursion,
    perturbed_nd,
    qpoch_exact,
    quantum_reduce,
    small_quantum_ring_checks,
    wdvv_residual_p2,
)
from qonf.qdiff import casoratian
from qonf.rings import (
    LogSeries,
    NilpotentElement,
    Poly,
    RationalFunctionQ as R,
    ipoly_mul,
    nil_binomial_power,
    nil_inv,
    nil_mul,
    series_to_json,
    zero_like,
)

REFERENCE_ND = (1, 1, 12, 620, 87304, 26312976, 14616808192, 13525751027392)


class TestNdRecursion:
    def test_reference_sequence(self):
        t0 = time.time()
        nd = nd_recursion(8)
        assert nd.values == REFERENCE_ND
        assert time.time() - t0 < 1.0

    def test_entries_are_positive_integers(self):
        nd = nd_recursion(10)
        assert all(isinstance(v, int) and v > 0 for v in nd.values)

    def test_csv(self):
        text = nd_recursion(3).to_csv()
        assert text.splitlines()[0] == "d,N_d"
        assert text.splitlines()[3] == "3,12"


class TestPotential:
    def test_classical_coefficients(self):
        F_pot = gw_potential_p2(2)
        assert F_pot.terms.get((1, 2, 0, 0), 0) == F(1, 2)
        assert F_pot.terms.get((2, 0, 0, 1), 0) == F(1, 2)

    def test_quantum_coefficients(self):
        F_pot = gw_potential_p2(2)
        assert F_pot.terms.get((0, 0, 1, 2), 0) == F(1, 2)  # N_1/2!
        assert F_pot.terms.get((0, 0, 2, 5), 0) == F(1, 120)  # N_2/5!


class TestWDVV:
    def test_residual_vanishes_completely(self):
        assert wdvv_residual_p2(4).is_zero

    def test_order_one_is_trivially_zero(self):
        assert wdvv_residual_p2(1).is_zero

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_perturbation_breaks_at_first_dependent_order(self, d):
        nd = perturbed_nd(nd_recursion(4), d, nd_recursion(4)[d] + 1)
        res = wdvv_residual_p2(4, nd)
        assert not res.is_zero
        assert res.min_e_degree() == max(d, 2)

    def test_specific_break_location(self):
        res = wdvv_residual_p2(4, perturbed_nd(nd_recursion(4), 2, 2))
        assert res.terms.get((0, 0, 2, 2), 0) != 0


class TestJkSeries:
    def test_degree_zero(self):
        jk = jk_series(3, 0)
        assert jk.coefficient(0, 0) == R.one()
        assert all(jk.coefficient(0, i).is_zero for i in range(1, 4))

    def test_p2_degree_one(self):
        jk = jk_series(2, 1)
        q = R.q()
        assert jk.coefficient(1, 0) == 1 / (1 - q) ** 3
        assert jk.coefficient(1, 1) == -3 * q / (1 - q) ** 4
        assert jk.coefficient(1, 2) == 6 * q**2 / (1 - q) ** 5

    def test_denominators_divide_pochhammer_power(self):
        # eps^i picks up i extra inverse factors beyond the (N+1) of the
        # unit part, so (q;q)_d^(N+1+i) clears the denominator of c_(d,i)
        N, D = 3, 5
        jk = jk_series(N, D)
        for d in range(D + 1):
            for i in range(N + 1):
                clear = qpoch_exact(d) ** (N + 1 + i)
                assert len((clear * jk.coefficient(d, i)).den) == 1


def linear(N, a, b):
    """a + b eps in the truncated ring of order N."""
    return NilpotentElement(N, ([a, b] + [zero_like(a)] * N)[:N + 1])


def reference_inverse_product_powers(N, D, factor, one):
    """The oracle's rows built the long way: the running product of the
    factors a_r + b_r eps, then its inverse, then the (N+1)-th power."""
    rows = [NilpotentElement.from_scalar(N, one).coeffs]
    prod = NilpotentElement.from_scalar(N, one)
    for d in range(1, D + 1):
        prod = nil_mul(prod, linear(N, *factor(d)))
        rows.append((nil_inv(prod) ** (N + 1)).coeffs)
    return tuple(rows)


def the_long_way(a, b, N):
    """(a + b eps)^-(N+1) by the geometric series and N+1 products."""
    return nil_inv(linear(N, a, b)) ** (N + 1)


nonzero_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)


class TestOracleConstruction:
    @pytest.mark.parametrize("N", range(5))
    def test_rows_equal_the_inverse_of_the_product(self, N):
        D = 6
        want_k = reference_inverse_product_powers(
            N, D, lambda r: (R.one_minus_q_pow(r), R.q_power(r)), R.one())
        want_coh = reference_inverse_product_powers(N, D, lambda r: (F(r), F(1)), F(1))
        for d in range(D + 1):
            got_k, got_coh = jk_series(N, d).coeffs, jcoh_series(N, d).coeffs
            assert got_k == want_k[:d + 1] and repr(got_k) == repr(want_k[:d + 1])
            assert got_coh == want_coh[:d + 1] and repr(got_coh) == repr(want_coh[:d + 1])

    @given(st.integers(0, 4), nonzero_fracs, nonzero_fracs)
    @settings(max_examples=60, deadline=None)
    def test_binomial_factor_over_fractions(self, N, a, b):
        got, want = _inverse_power(N, a, b), the_long_way(a, b, N)
        assert got == want and repr(got) == repr(want)

    @given(st.integers(0, 4), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_binomial_factor_over_q(self, N, r):
        a, b = R.one_minus_q_pow(r), R.q_power(r)
        got, want = _inverse_power(N, a, b), the_long_way(a, b, N)
        assert got == want and repr(got) == repr(want)


_q = R.q()
# Phi_1, ..., Phi_6
CYCLOTOMIC = [[1, -1], [1, 1], [1, 1, 1], [1, 0, 1], [1, 1, 1, 1, 1], [1, -1, 1]]
# the first: numerator content 6, denominator content 4, and (q - 1) three
# times in the denominator
SCALING_CASES = [
    6 * (_q + 2) / (4 * (_q - 1) ** 3 * (_q**2 + 1)),
    -(_q + 2) / ((1 - _q) ** 3 * (2 * _q + 3)),
    3 * (_q - 1) ** 2 / (5 * _q**2 + 1),  # (q - 1) only in the numerator
    R.from_fraction(F(-4, 9)),
    1 / (_q - 1),
    R.zero(),
]


class TestCanonicalFactors:
    """The closed-form factors written as canonical integer pairs equal the
    same factors built with **, * and gcds."""

    @pytest.mark.parametrize("N", range(5))
    @pytest.mark.parametrize("r", range(1, 9))
    def test_oracle_factor(self, N, r):
        a, b = R.one_minus_q_pow(r), R.q_power(r)
        got = _q_inverse_power(N, r)
        for want in (_inverse_power(N, a, b), the_long_way(a, b, N)):
            assert got == want and repr(got) == repr(want)
            assert [c.integer_pair() for c in got.coeffs] == [
                c.integer_pair() for c in want.coeffs]

    @pytest.mark.parametrize("c", SCALING_CASES, ids=range(len(SCALING_CASES)))
    @pytest.mark.parametrize("e", range(7))  # v < e, v = e and v > e
    def test_scaling_by_one_minus_q_power(self, c, e):
        got, want = _times_one_minus_q_power(c, e), (1 - R.q()) ** e * c
        assert got == want and repr(got) == repr(want)
        assert got.integer_pair() == want.integer_pair()

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(any),
           st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(any),
           st.integers(0, 4), st.integers(0, 6))
    @settings(max_examples=80, deadline=None)
    def test_scaling_of_random_pairs(self, num, den, j, e):
        c = R(num, den) / (R.q() - 1) ** j
        got, want = _times_one_minus_q_power(c, e), (1 - R.q()) ** e * c
        assert got.integer_pair() == want.integer_pair()

    @given(st.lists(st.integers(0, 3), min_size=len(CYCLOTOMIC), max_size=len(CYCLOTOMIC)),
           st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(any),
           st.integers(1, 6), st.integers(0, 9))
    @settings(max_examples=120, deadline=None)
    def test_scaling_over_cyclotomic_denominators(self, exps, num, content, e):
        # a product of cyclotomic polynomials is palindromic (antipalindromic
        # for an odd power of q - 1), so only the top half of each quotient
        # by q - 1 is computed; odd and even lengths, both signs, v < e,
        # v = e and v > e all occur
        den = [content]
        for factor, m in zip(CYCLOTOMIC, exps):
            for _ in range(m):
                den = ipoly_mul(den, factor)
        c = R(num, den)
        got, want = _times_one_minus_q_power(c, e), (1 - R.q()) ** e * c
        assert got == want and repr(got) == repr(want)
        assert got.integer_pair() == want.integer_pair()


class TestClosedFormula:
    def test_p2_degree_one_eps_one(self):
        jc = jk_closed_formula(2, 1)
        q = R.q()
        assert jc.coefficient(1, 1) == (-3 * q / (1 - q)) / qpoch_exact(1) ** 3

    def test_eps_zero_column(self):
        jc = jk_closed_formula(3, 4)
        for d in range(5):
            assert jc.coefficient(d, 0) == 1 / qpoch_exact(d) ** 4

    @pytest.mark.parametrize("N", [0, 1, 2, 3, 4])
    def test_oracle_equivalence(self, N):
        D = 8
        assert jk_closed_formula(N, D).coeffs == jk_series(N, D).coeffs


class TestModified:
    def test_eps_zero_column_has_no_log(self):
        jm = jk_modified(2, 4)
        jk = jk_series(2, 4)
        for d in range(5):
            lp = jm.coeffs[d].coeffs[0]
            assert lp.degree <= 0 or lp.is_zero
            assert lp.coeff(0) == jk.coefficient(d, 0)

    def test_eps_one_column(self):
        jm = jk_modified(2, 4)
        jk = jk_series(2, 4)
        for d in range(5):
            assert jm.coefficient(d, 1, 1) == -jk.coefficient(d, 0)
            assert jm.coefficient(d, 1, 0) == jk.coefficient(d, 1)

    def test_log_degree_bound(self):
        jm = jk_modified(3, 4)
        for d in range(5):
            for i in range(4):
                lp = jm.coeffs[d].coeffs[i]
                if not lp.is_zero:
                    assert lp.degree <= i

    @pytest.mark.parametrize("N", range(5))
    def test_equal_to_the_generic_prefactor_products(self, N):
        # (1 - eps)^L and exp(H L) times the lifted series through nil_mul:
        # equal values, equal JSON and equal scalar types, coefficient by
        # coefficient
        exp_hl = NilpotentElement(
            N, [Poly([0] * a + [F(1, math.factorial(a))], F(1)) for a in range(N + 1)])
        cases = ((jk_modified, nil_binomial_power(N, R.one()), jk_series),
                 (jcoh_modified, exp_hl, jcoh_series))

        def types(s):
            return [(type(lp.one), [type(c) for c in lp.coeffs])
                    for c in s.coeffs for lp in c.coeffs]

        for build, prefactor, series in cases:
            for D in range(7):
                got = build(N, D)
                want = LogSeries(D, [nil_mul(prefactor, c) for c in _lift(series(N, D)).coeffs])
                assert got == want
                assert series_to_json(got) == series_to_json(want)
                assert types(got) == types(want)


class TestFunctionalEquations:
    @pytest.mark.parametrize("N,D", [(0, 8), (1, 8), (2, 8), (3, 8), (4, 8)])
    def test_modified_residual_exactly_zero(self, N, D):
        assert jk_qde_residual(N, D).is_zero_through(D)

    @pytest.mark.parametrize("N", [0, 1, 2, 3])
    def test_twisted_residual_exactly_zero(self, N):
        assert jk_qde_residual(N, 6, modified=False).is_zero_through(6)

    def test_rank_one_case_is_pochhammer_series(self):
        jk = jk_series(0, 5)
        for d in range(6):
            assert jk.coefficient(d, 0) == 1 / qpoch_exact(d)


def bump_log_series(s: LogSeries, d: int, i: int) -> LogSeries:
    """s with 1 added to its Q^d eps^i coefficient."""
    coeffs = list(s.coeffs)
    lps = list(coeffs[d].coeffs)
    lps[i] = lps[i] + 1
    coeffs[d] = NilpotentElement(s.order, lps)
    return LogSeries(s.truncation, coeffs)


@pytest.mark.parametrize("d,i", [(2, 1), (3, 0)])
class TestResidualsDetectAWrongSeries:
    """A J series with one coefficient c_(d,i) changed, d >= 1: its residual
    is zero below Q-degree d and nonzero at d."""

    N, D = 2, 3

    def assert_first_break_at(self, residual, d):
        assert residual.is_zero_through(d - 1)
        assert not residual.coeffs[d].is_zero

    def test_sigma_on_jk_modified(self, monkeypatch, d, i):
        wrong = bump_log_series(jk_modified(self.N, self.D), d, i)
        monkeypatch.setattr("qonf.gw.jk_modified", lambda N, D: wrong)
        self.assert_first_break_at(jk_qde_residual(self.N, self.D), d)

    def patch_jk_series(self, monkeypatch, d, i):
        jk = jk_series(self.N, self.D)
        rows = [list(row) for row in jk.coeffs]
        rows[d][i] = rows[d][i] + 1
        wrong = JFunctionK(jk.N, jk.D, tuple(map(tuple, rows)))
        monkeypatch.setattr("qonf.gw.jk_series", lambda N, D: wrong)

    def test_twisted_sigma_on_jk_series(self, monkeypatch, d, i):
        self.patch_jk_series(monkeypatch, d, i)
        self.assert_first_break_at(jk_qde_residual(self.N, self.D, modified=False), d)

    def test_sigma_on_jk_modified_of_a_wrong_jk_series(self, monkeypatch, d, i):
        # jk_modified is built from the patched series, so both fused
        # residuals of the one wrong J break at Q^d
        self.patch_jk_series(monkeypatch, d, i)
        self.assert_first_break_at(jk_qde_residual(self.N, self.D), d)

    def test_theta_on_jcoh_modified(self, monkeypatch, d, i):
        wrong = bump_log_series(jcoh_modified(self.N, self.D), d, i)
        monkeypatch.setattr("qonf.gw.jcoh_modified", lambda N, D: wrong)
        self.assert_first_break_at(jcoh_ode_residual(self.N, self.D), d)


class TestJcoh:
    def test_p2_degree_one(self):
        jc = jcoh_series(2, 1)
        assert jc.coefficient(1, 0) == 1
        assert jc.coefficient(1, 1) == -3
        assert jc.coefficient(1, 2) == 6
        assert jc.z_exponent(1, 0) == -3
        assert jc.z_exponent(1, 1) == -4
        assert jc.z_exponent(1, 2) == -5

    def test_prefactor_expansion_rule(self):
        jm = jcoh_modified(3, 2)
        for a in range(4):
            assert jm.coefficient(0, a, a) == F(1, math.factorial(a))

    @pytest.mark.parametrize("N,D", [(0, 8), (2, 8), (4, 8)])
    def test_ode_residual_exactly_zero(self, N, D):
        assert jcoh_residual_is_zero(jcoh_ode_residual(N, D))


class TestComparison:
    def test_p2_degree_one_rows(self):
        rep = confluence_compare(2, 1)
        assert rep.all_equal
        by_key = {(r.d, r.i, r.m): r for r in rep.rows}
        assert by_key[(1, 0, 0)].limit == 1 and by_key[(1, 0, 0)].z_exponent == -3
        assert by_key[(1, 1, 0)].limit == -3 and by_key[(1, 1, 0)].z_exponent == -4
        assert by_key[(1, 2, 0)].limit == 6

    @pytest.mark.parametrize("N", [0, 1, 2, 3, 4])
    def test_full_grid(self, N):
        rep = confluence_compare(N, 6)
        assert rep.all_equal, rep.failures[:3]

    def test_p2_table_emitted(self):
        rep = confluence_compare(2, 3)
        table = rep.p2_table()
        assert "prefactor" in table[0]
        assert len(table) == 4
        assert all(e["equal"] for col in table[1:] for e in col["entries"])


class TestEquivariant:
    def test_degree_zero_term_is_prefactor_only(self):
        import cmath
        from qonf.qspecial import q_log

        spec = EquivariantSpec((0.0, 0.5), z=1.0)
        ev = jk_equivariant(spec, 0.5, 0)[1]
        Q = 0.3 + 0.1j
        want = cmath.exp(0.5 * cmath.log(0.5) * q_log(0.5, Q))
        assert ev.eval(Q) == pytest.approx(want, rel=1e-12)

    def test_random_nonresonant_residuals(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            lams = np.sort(rng.uniform(0, 0.9, size=3))
            while np.min(np.diff(lams)) < 0.05:
                lams = np.sort(rng.uniform(0, 0.9, size=3))
            spec = EquivariantSpec(tuple(lams), z=1.0)
            q = rng.uniform(0.3, 0.6)
            for ev in jk_equivariant(spec, q, 140):
                assert equivariant_operator_residual(spec, ev, 0.2 + 0.1j, q) < 1e-8

    def test_residual_reprs_are_pinned(self):
        # the reprs of 54 residuals, signed zeros and last bits included
        specs = [EquivariantSpec(lams, z=1.0)
                 for lams in ((0.0, 0.5), (0.0, 1.3, 2.7), (0.3 + 0.1j, -0.7, 1.25, 2.05))]
        reprs = [repr(equivariant_operator_residual(spec, ev, Q, q))
                 for spec in specs
                 for q in (0.5, 0.3 + 0.4j, 0.9)
                 for ev in jk_equivariant(spec, q, 40)
                 for Q in (0.2 + 0.1j, -0.3 + 0.05j)]
        assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == (
            "01ce9c28a5cbd77d29c9b76a8cc31a569112fba735ee0e31eac5a21eeaa528b4")

    def test_casoratian_nonzero(self):
        spec = EquivariantSpec((0.0, 0.45, 0.8), z=1.0)
        evs = jk_equivariant(spec, 0.5, 140)
        assert abs(casoratian(evs, 0.5, 0.15 + 0.1j)) > 1e-8

    def test_resonant_spec_rejected(self):
        from qonf.qspecial import DomainError

        with pytest.raises(DomainError):
            EquivariantSpec((0.0, 1.0), z=1.0)
        with pytest.raises(DomainError):  # (lambda_1 - lambda_0)/z = 2
            EquivariantSpec((0.1j, 2 + 0.7j), z=1 + 0.3j)
        # near misses: 1e-6 off an integer, and an imaginary part of 1e-9
        EquivariantSpec((0.0, 2 + 0.6j + 1e-6), z=1 + 0.3j)
        EquivariantSpec((0.0, 1.0 + 1e-9j), z=1.0)

    @pytest.mark.parametrize("lams", [(0.0, 0.5), (0.0, 0.4, 0.9)])
    def test_confluence_match(self, lams):
        spec = EquivariantSpec(lams, z=1.0)
        rep = equivariant_confluence_compare(spec, D=4)
        assert rep.max_error < 1e-4
        assert rep.orders_near_one()

    def test_confluence_match_complex_speed_and_weights(self):
        rep = equivariant_confluence_compare(
            EquivariantSpec((0.0, 0.5), z=1 + 0.3j), D=4, Q_samples=(0.2, 0.1 + 0.2j)
        )
        assert rep.max_error < 1e-4
        rep = equivariant_confluence_compare(
            EquivariantSpec((0.1 + 0.05j, 0.6), z=1.0), D=4, Q_samples=(0.2,)
        )
        assert rep.max_error < 1e-4

    def test_scaling_limit_from_the_proof(self):
        # lim (1-q)^(d(N+1)) / prod (1 - q^r Lam_j/Lam_i) = prod 1/(lam_i - lam_j + r z)
        spec = EquivariantSpec((0.0, 0.4, 0.9), z=1.0)
        q0, i, d = 0.8, 1, 2

        def lhs(t):
            q = q0**t
            Lam = [spec.Lambda(j, q) for j in range(3)]
            acc = (1 - q) ** (d * 3)
            for r in range(1, d + 1):
                for j in range(3):
                    acc /= 1 - q**r * Lam[j] / Lam[i]
            return acc

        vals = [lhs(2.0**-k) for k in (10, 11, 12)]
        rich = 2 * vals[-1] - vals[-2]
        prod = 1.0
        for r in range(1, d + 1):
            for j in range(3):
                prod *= spec.lambdas[i] - spec.lambdas[j] + r
        assert abs(rich - 1 / prod) < 1e-8

    @pytest.mark.parametrize("q", [0.5, 0.3 + 0.2j, 0.8 ** (2.0**-7)])
    def test_denominator_table_is_the_per_weight_loop(self, q):
        # the reference raises q to the d-th power once per weight
        def reference(ev, q):
            n = ev.spec.N + 1
            Lam = [ev.spec.Lambda(j, q) for j in range(n)]
            ratios = [Lam[j] / Lam[ev.index] for j in range(n)]
            dens = [1.0 + 0j]
            acc = 1.0 + 0j
            for d in range(1, ev.truncation + 1):
                for j in range(n):
                    acc *= 1.0 - q**d * ratios[j]
                dens.append(acc)
            return dens

        def bits(values):
            return [(z.real.hex(), z.imag.hex()) for z in values]

        spec = EquivariantSpec((0.0, 0.45, 0.8 + 0.1j), z=1 + 0.3j)
        other = 0.8 ** (2.0**-5)
        for ev in jk_equivariant(spec, q, 60):
            assert bits(ev.denominators) == bits(reference(ev, q))
            assert bits(ev.denominators_at(other)) == bits(reference(ev, other))
            Q = 0.2 + 0.1j
            assert ev.eval(Q, q=q) == ev.eval(Q)


class TestQuantumRings:
    def test_relation_degree(self):
        assert quantum_reduce(3, 2) == (1, 0)

    def test_iterate(self):
        assert quantum_reduce(6, 2) == (2, 0)

    def test_below_relation(self):
        assert quantum_reduce(2, 2) == (0, 2)

    @pytest.mark.parametrize("N", [0, 1, 2, 3])
    def test_all_checks_pass(self, N):
        assert all(ok for _, ok in small_quantum_ring_checks(N))
