import cmath
import math
from fractions import Fraction as F

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from qonf import qdiff
from qonf.confluence import (
    GaussianRational,
    MonodromyCubicExample,
    ODESystem,
    QI_I,
    QI_ONE,
    asymptotic_qpoch_ratio,
    asymptotic_qpoch_ratio_check,
    asymptotic_theta_ratio,
    asymptotic_theta_ratio_check,
    builtin_system,
    check_confluent,
    delta_form,
    limit_entry_q_to_1,
    limit_solution_along_path,
    ode_frobenius_solution,
    pn_j_system,
    root_taylor,
)
from qonf.polyq import MatrixSeries, Poly, RatFunc, parse_bivariate, ratfunc_matrix_series
from qonf.qdiff import (
    QDifferenceSystem,
    UnsupportedJordanError,
    frobenius_solution,
    gauge_residual,
    q_pullback,
    rank1_product_solution,
)
from qonf.qspecial import DomainError, q_character, q_log, qpoch_infinite
from qonf.rings import LimitUndefinedError, RationalFunctionQ as R, limit_q_to_1


Q0 = 0.8


def rf(text):
    return parse_bivariate(text)


class TestDeltaForm:
    def test_identity_gives_zero(self):
        sys = QDifferenceSystem(((rf("1"),),), R.q())
        df = delta_form(sys)
        assert df.B[0][0].is_zero

    def test_q_identity_gives_identity(self):
        sys = QDifferenceSystem(((rf("q"),),), R.q())
        df = delta_form(sys)
        assert df.B[0][0] == rf("1")

    def test_pochhammer_raw_delta(self):
        df = delta_form(builtin_system("pochhammer-raw"))
        assert df.B[0][0] == rf("-Q/(q-1)")

    def test_pole_location(self):
        df = delta_form(builtin_system("irregular-limit"))
        poles = df.poles_at(0.8)
        assert len(poles) == 1
        assert poles[0] == pytest.approx(1 - 0.8, abs=1e-12)


from hypothesis import given, settings
import hypothesis.strategies as st

small_fracs = st.fractions(min_value=-6, max_value=6, max_denominator=4)


class TestLimitEntry:
    def test_plain_limit(self):
        f = rf("(1-q)*Q/(1-q^2)")
        lim = limit_entry_q_to_1(f)
        assert lim == RatFunc(Poly([F(0), F(1, 2)], F(1)))

    @given(
        st.lists(small_fracs, min_size=1, max_size=3),
        st.lists(small_fracs, min_size=1, max_size=3),
        st.lists(small_fracs, min_size=1, max_size=3),
        st.lists(small_fracs, min_size=0, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_constructed_limit(self, num0, num1, den0, den1):
        # f = (N0(Q) + (q-1) N1(Q)) / (D0(Q) + (q-1) D1(Q)) with D0 != 0
        # has the exact limit N0/D0
        if not any(den0):
            return
        qm1 = R.q() - 1
        one = R.one()

        def lift(coeffs, scale):
            return Poly([R.from_fraction(c) * scale for c in coeffs], one)

        num = lift(num0, one) + lift(num1, qm1)
        den = lift(den0, one) + lift(den1, qm1)
        from qonf.polyq import RatFunc as RF

        f = RF(num, den)
        lim = limit_entry_q_to_1(f)
        want = RatFunc(Poly(num0, F(1)), Poly(den0, F(1)))
        assert lim == want

    # a coefficient (q-1)^v (a + b q)/(c + d q), as (v, a, b, c, d), or None for
    # zero; with a + b != 0 and c + d != 0 its order at q = 1 is exactly v
    planted = st.one_of(
        st.none(),
        st.tuples(st.integers(-2, 3), *[st.integers(-4, 4)] * 4).filter(
            lambda t: t[1] + t[2] != 0 and t[3] + t[4] != 0),
    )

    @given(st.lists(planted, min_size=1, max_size=3), st.lists(planted, min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_planted_multiplicities(self, num, den):
        if not any(den):
            return
        q = R.q()

        def lift(cs):
            return Poly([R.zero() if c is None
                         else (q - 1) ** c[0] * (c[1] + c[2] * q) / (c[3] + c[4] * q)
                         for c in cs], R.one())

        def leading(cs):
            v = min((c[0] for c in cs if c), default=None)
            return v, [F(c[1] + c[2], c[3] + c[4]) if c and c[0] == v else F(0) for c in cs]

        (v_num, num1), (v_den, den1) = leading(num), leading(den)
        f = RatFunc(lift(num), lift(den))
        if v_num is not None and v_num < v_den:
            with pytest.raises(LimitUndefinedError):
                limit_entry_q_to_1(f)
        elif v_num is None or v_num > v_den:
            assert limit_entry_q_to_1(f).is_zero
        else:
            assert limit_entry_q_to_1(f) == RatFunc(Poly(num1, F(1)), Poly(den1, F(1)))

    def test_divergent(self):
        with pytest.raises(LimitUndefinedError):
            limit_entry_q_to_1(rf("Q/(q-1)"))

    def test_vanishing(self):
        lim = limit_entry_q_to_1(rf("(q-1)*Q"))
        assert lim.is_zero

    def test_q_pole_moving_to_zero(self):
        lim = limit_entry_q_to_1(rf("1/(Q + (q-1))"))
        assert lim == RatFunc(Poly([F(1)], F(1)), Poly([F(0), F(1)], F(1)))


class TestVerdicts:
    def test_pochhammer_raw_fails_condition_2(self):
        rep = check_confluent(builtin_system("pochhammer-raw"), Q0)
        assert not rep.confluent
        assert rep.limit_exists.status == "fail"
        assert rep.spiral_separation.passed

    def test_pochhammer_scaled_is_confluent(self):
        rep = check_confluent(builtin_system("pochhammer-scaled"), Q0)
        assert rep.confluent
        # limit system Q df/dQ = Q f
        entry = rep.limit_system.B[0][0]
        assert entry == RatFunc(Poly([F(0), F(1)], F(1)))

    def test_irregular_limit_fails_condition_3(self):
        rep = check_confluent(builtin_system("irregular-limit"), Q0)
        assert not rep.confluent
        assert rep.limit_exists.passed
        assert rep.limit_regular_singular.status == "fail"

    def test_pn_j_is_confluent_with_cohomological_limit(self):
        rep = check_confluent(builtin_system("pn-j", N=3, z=F(1)), Q0)
        assert rep.confluent
        B = rep.limit_system.B
        for i in range(3):
            assert B[i][i + 1] == RatFunc(Poly([F(1)], F(1)))
        assert B[3][0] == RatFunc(Poly([F(0), F(1)], F(1)))

    def test_pn_j_raw_fails_condition_2(self):
        rep = check_confluent(q_pullback(pn_j_system(2), (1 - R.q()) ** 3), Q0)
        assert not rep.confluent
        assert rep.limit_exists.status == "fail"

    @staticmethod
    def q_dependent_system(entries):
        return QDifferenceSystem(tuple(tuple(rf(x) for x in row) for row in entries), R.q())

    def test_q_dependent_eigenbasis_converges(self):
        # B_q(0) depends on q, so condition 4 compares eigenvectors along the path
        sys = self.q_dependent_system([["1", "(q-1)*q"], ["0", "1 + (q-1)/2"]])
        rep = check_confluent(sys, Q0)
        cond = rep.jordan_basis_converges
        assert cond.status == "pass" and rep.confluent
        prefix = "eigenvector distance along path: "
        assert cond.detail.startswith(prefix)
        dists = [float(x) for x in cond.detail[len(prefix):].strip("[]").split(",")]
        assert dists == pytest.approx([1.7e-3, 2.2e-4, 2.7e-5], rel=0.05)

    def test_defective_limit_is_skipped(self):
        # the limit B(0) = [[0, 1], [0, 0]] has one eigenvector
        rep = check_confluent(self.q_dependent_system([["1", "(q-1)*q"], ["0", "1"]]), Q0)
        assert rep.jordan_basis_converges.status == "skipped"
        assert "defective" in rep.jordan_basis_converges.detail
        assert not rep.confluent

    def test_scalar_limit_compares_the_eigenbasis_along_the_path(self):
        # B_q(0) = [[0, q-1], [q-1, 0]] keeps the eigenbasis (1, +-1) while
        # its limit is 0, whose every basis is an eigenbasis
        sys = self.q_dependent_system([["1", "(q-1)^2"], ["(q-1)^2", "1"]])
        rep = check_confluent(sys, Q0)
        cond = rep.jordan_basis_converges
        assert cond.status == "pass" and rep.confluent
        prefix = "limit B(0) is scalar; eigenvector change along path: "
        assert cond.detail.startswith(prefix)
        dists = [float(x) for x in cond.detail[len(prefix):].strip("[]").split(",")]
        assert len(dists) == 2 and max(dists) < 1e-12

    def test_scalar_limit_of_a_defective_path_is_skipped(self):
        # B_q(0) = [[0, q-1], [0, 0]] has one eigenvector for every q
        rep = check_confluent(self.q_dependent_system([["1", "(q-1)^2"], ["0", "1"]]), Q0)
        assert rep.jordan_basis_converges.status == "skipped"
        assert "defective along the path" in rep.jordan_basis_converges.detail

    # Jordan blocks (eigenvalue, size), eigenvalues in (1/2)Z, at most 6 rows
    JORDAN = st.lists(st.tuples(st.integers(-4, 4).map(lambda k: F(k, 2)), st.integers(1, 3)),
                      min_size=1, max_size=3).filter(lambda bs: sum(s for _, s in bs) <= 6)
    # row operations (row r += c row s), whose product P has det 1
    ROW_OPS = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-2, 2)),
                       max_size=8)

    @given(JORDAN, ROW_OPS)
    @example([(F(0), 2), (F(1), 2)], [(3, 0, 1), (0, 1, 1), (1, 2, 1), (2, 3, 1)])
    @settings(max_examples=60, deadline=5000)
    def test_planted_jordan_form_resonance(self, blocks, ops):
        # B(0) = P J P^-1 in A = I + (q - 1) B: condition 3 fails exactly when
        # two planted eigenvalues differ by a positive integer, and names them
        n = sum(s for _, s in blocks)
        lams = [lam for lam, s in blocks for _ in range(s)]
        J = [[lams[i] if i == j else F(0) for j in range(n)] for i in range(n)]
        start = 0
        for _, s in blocks:
            for i in range(start, start + s - 1):
                J[i][i + 1] = F(1)
            start += s
        P = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        P_inv = [row[:] for row in P]
        for r, s, c in ops:
            r, s = r % n, s % n
            if r != s:  # P <- E P and P^-1 <- P^-1 E^-1 for E = I + c e_r e_s^T
                P[r] = [a + c * b for a, b in zip(P[r], P[s])]
                for row in P_inv:
                    row[s] -= c * row[r]

        def mul(X, Y):
            return [[sum(x * y for x, y in zip(row, col)) for col in zip(*Y)] for row in X]

        B = mul(mul(P, J), P_inv)
        qm1 = R.q() - 1
        A = tuple(tuple(RatFunc.const(R.from_fraction(F(int(i == j))) + R.from_fraction(b) * qm1,
                                      R.one())
                        for j, b in enumerate(row)) for i, row in enumerate(B))
        cond = check_confluent(QDifferenceSystem(A, R.q()), Q0).limit_regular_singular
        want = sorted({int(a - b) for a in lams for b in lams if a > b and (a - b).denominator == 1})
        if want:
            assert cond.status == "fail"
            assert cond.detail == f"integer eigenvalue differences {want}"
        else:
            assert cond.status == "pass"

    # a k-fold factor of a denominator is one pole, though its floating
    # roots scatter by about eps^(1/k)
    @pytest.mark.parametrize("entry, poles", [
        ("1 + (q-1)*Q/(Q-2)^2", 1),
        ("1 + (q-1)*Q/(Q-3)^3", 1),
        ("1 + (q-1)*Q/((Q-2)^2*(Q+5))", 2),
    ])
    def test_a_multiple_pole_counts_once(self, entry, poles):
        rep = check_confluent(self.q_dependent_system([[entry]]), Q0)
        assert rep.spiral_separation.detail == f"{poles} pole(s), pairwise spiral-separated"
        assert rep.confluent

    def test_a_pole_at_zero_is_not_paired(self):
        # no spiral passes through Q = 0; the pole there fails condition 3
        rep = check_confluent(self.q_dependent_system([["1 + (q-1)/(Q*(Q-2))"]]), Q0)
        assert rep.spiral_separation.detail == "2 pole(s), pairwise spiral-separated"
        assert rep.limit_regular_singular.status == "fail"
        assert "pole at Q = 0" in rep.limit_regular_singular.detail
        assert not rep.confluent

    @given(st.lists(st.tuples(st.integers(-6, 6).filter(bool), st.integers(1, 3)),
                    min_size=1, max_size=3, unique_by=lambda rk: rk[0]))
    @settings(max_examples=40, deadline=5000)
    def test_multiplicities_give_the_squarefree_verdict(self, factors):
        # 1 + (q-1) Q / prod (Q - r_i)^k_i has the poles and the condition-1
        # verdict of its squarefree twin, every k_i = 1
        def system(ks):
            den = "*".join(f"(Q - ({r}))^{k}" for (r, _), k in zip(factors, ks))
            return self.q_dependent_system([[f"1 + (q-1)*Q/({den})"]])

        got, twin = system([k for _, k in factors]), system([1] * len(factors))
        assert len(delta_form(got).poles_at(Q0)) == len(factors)
        assert (check_confluent(got, Q0).spiral_separation
                == check_confluent(twin, Q0).spiral_separation)

    def test_a_squarefree_denominator_takes_no_gcd_over_q_of_q(self, monkeypatch):
        # ten roots that move with q: the gcd of the denominator and its
        # derivative over Q(q) would take over a minute
        factors = ["(Q-3*q-1)", "(Q+2*q^2+1)", "(Q-5)", "(Q+7*q)", "(Q-11)", "(Q+q^3+4)",
                   "(Q-2*q+13)", "(Q+q^2-17)", "(Q-19*q)", "(Q+q^4+23)"]
        df = delta_form(self.q_dependent_system([[f"1 + (q-1)*Q/({'*'.join(factors)})"]]))
        gcd = Poly.gcd

        def exact_scalars_only(p, other):
            assert not isinstance(p.one, R), "gcd over Q(q)"
            return gcd(p, other)

        monkeypatch.setattr(Poly, "gcd", exact_scalars_only)
        assert len(df.poles_at(Q0)) == 10

    @pytest.mark.parametrize("entry", ["1 + (q-1)*Q/((Q-1)*(Q - 1/(3*q-2)))",
                                       "1 + (q-1)*Q/((Q-1)^2*(Q - 1/(3*q-2)))"])
    def test_a_coefficient_pole_at_the_test_point_takes_the_gcd(self, entry):
        # 1/(3q - 2) has its pole at q = 2/3: the poles are still 1 and 1/(3 q0 - 2)
        poles = sorted(delta_form(self.q_dependent_system([[entry]])).poles_at(Q0), key=abs)
        assert poles == [pytest.approx(1, abs=1e-12), pytest.approx(1 / (3 * Q0 - 2), abs=1e-12)]

    def test_report_serializes(self):
        import json

        rep = check_confluent(builtin_system("pochhammer-scaled"), Q0)
        doc = json.loads(json.dumps(rep.to_json()))
        assert doc["confluent"] is True
        assert doc["conditions"]["limit_exists"]["status"] == "pass"


class TestOdeFrobenius:
    def test_scalar_power(self):
        mu = F(2, 3)
        ode = ODESystem(((RatFunc(Poly([mu], F(1))),),))
        sol = ode_frobenius_solution(ode, 4)
        for Q in (0.5, 2.0):
            assert sol.eval(Q)[0][0] == pytest.approx(Q ** float(mu), rel=1e-12)

    def test_log_block(self):
        z, o = RatFunc(Poly([], F(1)), Poly([F(1)], F(1))), RatFunc(Poly([F(1)], F(1)))
        ode = ODESystem(((z, z), (o, z)))
        sol = ode_frobenius_solution(ode, 3)
        X = sol.eval(0.7)
        assert X[0][0] == pytest.approx(1.0)
        assert X[0][1] == pytest.approx(0.0)
        assert X[1][0] == pytest.approx(math.log(0.7))
        assert X[1][1] == pytest.approx(1.0)

    def test_gauge_residual_and_derivative(self):
        one = F(1)
        B = (
            (RatFunc(Poly([F(0), F(1)], one)), RatFunc(Poly([F(1)], one))),
            (RatFunc(Poly([F(0), F(2)], one)), RatFunc(Poly([F(0), F(-1)], one))),
        )
        # eigenvalues of B(0) are 0 and 0 -> nilpotent single-eigenvalue case
        ode = ODESystem(B)
        Bser = ratfunc_matrix_series([list(r) for r in B], 8)
        B0 = Bser.terms[0]
        right = lambda m: [[B0[i][j] + (m if i == j else 0) for j in range(2)] for i in range(2)]
        assert gauge_residual(Bser, ode_frobenius_solution(ode, 8).gauge, right).is_zero()
        sol = ode_frobenius_solution(ode, 25)
        assert sol.derivative_residual(0.08) < 1e-6

    def test_unsupported_exact_jordan_is_decided_before_solving(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a Sylvester solve ran before the Jordan check")

        monkeypatch.setattr(qdiff, "solve_sylvester", refuse)
        monkeypatch.setattr(qdiff, "lin_solve", refuse)
        one = F(1)
        # B(0) = diag(0, 1/2): two eigenvalues, unsupported in exact mode
        B = (
            (RatFunc(Poly([F(0), F(1)], one)), RatFunc(Poly([F(0), F(3)], one))),
            (RatFunc(Poly([F(0), F(2)], one)), RatFunc(Poly([F(1, 2)], one))),
        )
        with pytest.raises(UnsupportedJordanError):
            ode_frobenius_solution(ODESystem(B), 12)

    def test_floating_entries_are_refused(self):
        ode = ODESystem(((RatFunc(Poly([0.5], 1.0)),),))
        with pytest.raises(DomainError, match="exact"):
            ode_frobenius_solution(ode, 4)

    def test_gauge_converted_to_complex_once_per_q(self, monkeypatch):
        calls = []
        map_entries = MatrixSeries.map_entries

        def spy(self, fn, one=None):
            calls.append(self)
            return map_entries(self, fn, one)

        ode = check_confluent(pn_j_system(2, F(1)), Q0).limit_system
        sol = ode_frobenius_solution(ode, 10)
        monkeypatch.setattr(MatrixSeries, "map_entries", spy)
        first = sol.eval(0.2)
        assert np.array_equal(sol.eval(0.2), first)
        sol.eval(0.1 + 0.1j)
        assert sol.derivative_residual(0.08) < 1e-6
        assert calls == [sol.gauge]
        sol.eval(0.2, q_num=0.25)
        assert calls == [sol.gauge, sol.gauge]


SCHEDULE = tuple(2.0**-j for j in range(4, 15))


class TestPathLimits:
    def test_exponential_limit(self):
        def ev(q, Q):
            return 1 / qpoch_infinite((1 - q) * Q, q, 1e-13)

        for Qv in (0.1, 0.3, 0.5):
            res = limit_solution_along_path(ev, Q0, Qv, SCHEDULE)
            assert abs(res.value - math.exp(Qv)) < 1e-6
            assert abs(res.observed_order - 1) < 0.3

    def test_scaled_qlog_limit(self):
        res = limit_solution_along_path(
            lambda q, Q: (q - 1) * q_log(q, Q), Q0, 2.0, SCHEDULE, excluded_spirals=(-1.0,)
        )
        assert abs(res.value - math.log(2)) < 1e-4

    @pytest.mark.parametrize("mu", [0.5, -1.0, 2 + 1j])
    def test_character_limit(self, mu):
        def ev(q, Q):
            return q_character(q**mu, q, Q)

        res = limit_solution_along_path(ev, Q0, 3.0, SCHEDULE, excluded_spirals=(-1.0,))
        assert abs(res.value - 3.0**mu) < 1e-4

    def test_excluded_spiral_rejected(self):
        with pytest.raises(DomainError):
            limit_solution_along_path(lambda q, Q: 1.0, Q0, -2.0, SCHEDULE,
                                      excluded_spirals=(-1.0,))


class TestAsymptoticRatios:
    def test_equal_exponents(self):
        assert asymptotic_qpoch_ratio(2 + 1j, 0.3, 0.3, Q0) == 1
        assert asymptotic_theta_ratio(2 + 1j, -0.5, -0.5, Q0) == 1

    def test_qpoch_against_path(self):
        for base in (2 + 1j, -0.7 + 0.2j, -3.0):
            err = asymptotic_qpoch_ratio_check(base, 0.1 + 0.2j, -0.4, Q0, t=2.0**-14)
            assert err < 1e-4

    def test_theta_against_path(self):
        for base in (2 + 1j, -0.7 + 0.2j, 1.5j):
            err = asymptotic_theta_ratio_check(base, 0.1 + 0.2j, -0.4, Q0, t=2.0**-14)
            assert err < 1e-4

    def test_theta_at_unit_base(self):
        assert asymptotic_theta_ratio(1.0, 0.0, 2.0, Q0) == pytest.approx(1.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            asymptotic_qpoch_ratio(2.0, 0, 1, Q0)  # on q0^R
        with pytest.raises(DomainError):
            asymptotic_theta_ratio(-2.0, 0, 1, Q0)  # on -q0^R


FRACTIONS = st.fractions(min_value=-50, max_value=50, max_denominator=60)
PAIRS = st.tuples(FRACTIONS, FRACTIONS)


def pair_ops(x, y):
    """+, -, * and / of complex rationals kept as (re, im) Fraction pairs."""
    (a, b), (c, d) = x, y
    out = [(a + c, b + d), (a - c, b - d), (a * c - b * d, a * d + b * c)]
    n = c * c + d * d
    out.append(((a * c + b * d) / n, (b * c - a * d) / n) if n else None)
    return out


def check_against_pair(got, want):
    re, im = want
    assert (got.re, got.im) == want
    assert got == GaussianRational(re, im)
    assert hash(got) == hash(want)
    m = math.lcm(re.denominator, im.denominator)
    assert (got.a, got.b, got.m) == (re * m, im * m, m)
    assert math.gcd(got.a, got.b, got.m) == 1 and got.m > 0
    assert complex(got) == complex(float(re), float(im))
    assert repr(got) == f"({re}{'+' if im >= 0 else ''}{im}i)"


class TestGaussianRational:
    @given(PAIRS, PAIRS)
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_fraction_pairs(self, x, y):
        gx = GaussianRational(*x)
        # y as a GaussianRational, and when it is real as a Fraction and an int
        others = [GaussianRational(*y)]
        if y[1] == 0:
            others.append(y[0])
            if y[0].denominator == 1:
                others.append(int(y[0]))
        for other in others:
            got = [gx + other, gx - other, gx * other]
            if y != (0, 0):
                got.append(gx / other)
            else:
                with pytest.raises(ZeroDivisionError):
                    gx / other
            for g, want in zip(got, pair_ops(x, y)):
                check_against_pair(g, want)
        for other in others[1:]:  # reflected: the Fraction or int on the left
            got = [other + gx, other - gx, other * gx]
            if x != (0, 0):
                got.append(other / gx)
            for g, want in zip(got, pair_ops(y, x)):
                check_against_pair(g, want)

    @given(PAIRS)
    @settings(max_examples=100, deadline=None)
    def test_zero_division_and_equality(self, x):
        gx = GaussianRational(*x)
        for zero in (0, F(0), GaussianRational(0, 0), gx - gx):
            with pytest.raises(ZeroDivisionError):
                gx / zero
        if x == (0, 0):
            with pytest.raises(ZeroDivisionError):
                1 / gx
        assert gx == GaussianRational(*x) and not gx != GaussianRational(*x)
        assert (gx == x[0]) == (x[1] == 0)
        assert gx != complex(gx) and gx != 1.5


class TestRootTaylor:
    def test_reference_root_data(self):
        ex = MonodromyCubicExample()
        data = ex.root_taylor_data()
        # Q_1 = 1 - (q-1)/(2(1-i)) = 1 - (1+i)/4 (q-1)
        assert data[0][1] == -QI_ONE / (2 * (QI_ONE - QI_I))
        assert data[0][1] == GaussianRational(F(-1, 4), F(-1, 4))
        # Q_i = i + (i/2)(q-1)
        assert data[1][1] == QI_I / 2
        # Q_{-1} = -1 + (q-1)/(2(1+i))
        assert data[2][1] == QI_ONE / (2 * (QI_ONE + QI_I))

    def test_alpha_expansions(self):
        ex = MonodromyCubicExample()
        alphas = ex.alpha_taylor_data()
        # alpha_1 = 1 + (1+i)/4 (q-1)
        assert alphas[0] == (QI_ONE, (QI_ONE + QI_I) / 4)
        # alpha_2 = -i + (i/2)(q-1)
        assert alphas[1] == (-QI_I, QI_I / 2)
        # alpha_3 = -1 - (1-i)/4 (q-1)
        assert alphas[2] == (-QI_ONE, -(QI_ONE - QI_I) / 4)

    def test_q_independent_polynomial(self):
        one = F(1)
        fam = [Poly([F(-2), F(1)], one)]  # Q - 2, no q dependence
        r0, r1 = root_taylor(fam, F(2))
        assert r1 == 0

    def test_multiple_root_rejected(self):
        one = F(1)
        fam = [Poly([F(1), F(-2), F(1)], one), Poly([F(0), F(1)], one)]  # (Q-1)^2
        with pytest.raises(DomainError):
            root_taylor(fam, F(1))


class TestMonodromyExample:
    def test_birkhoff_theta_form_identity(self):
        ex = MonodromyCubicExample()
        q = 0.55
        for Qv in (0.7 + 1.1j, -0.4 - 0.9j):
            at_inf = rank1_product_solution(1, [q * c for c in (1, 1j, -1)],
                                            [q * r for r in ex.roots_at(q)], q)
            direct = ex.solution_at_0(q, Qv) / at_inf.eval(1 / Qv)
            theta_form = ex.birkhoff_theta_form(q, Qv)
            assert direct == pytest.approx(theta_form, rel=1e-9)

    def test_birkhoff_q_constancy(self):
        ex = MonodromyCubicExample()
        q = 0.55
        Qv = 0.7 + 1.1j
        P1 = ex.birkhoff_theta_form(q, Qv)
        P2 = ex.birkhoff_theta_form(q, q * Qv)
        assert abs(P2 - P1) < 1e-8 * abs(P1)

    def test_solution_limit_matches_closed_form(self):
        ex = MonodromyCubicExample()
        sched = tuple(2.0**-j for j in range(6, 12))
        for Qv in (1 + 2j, -3j):
            res = limit_solution_along_path(
                ex.solution_at_0, ex.q0, Qv, sched, excluded_spirals=ex.excluded_spirals
            )
            want = ex.solution_limit_closed_form(Qv)
            assert abs(res.value - want) < 1e-5 * abs(want)

    def test_birkhoff_limit_matches_closed_form(self):
        ex = MonodromyCubicExample()
        sched = tuple(2.0**-j for j in range(8, 13))
        for Qv in (1 + 2j, -1 + 2j, -3j):
            res = limit_solution_along_path(
                ex.birkhoff_theta_form, ex.q0, Qv, sched, excluded_spirals=ex.excluded_spirals
            )
            want = ex.birkhoff_limit_closed_form(Qv)
            assert abs(res.value - want) < 1e-4 * abs(want)

    def test_birkhoff_limit_locally_constant(self):
        ex = MonodromyCubicExample()
        # two points in the same component give the same closed-form constant
        a = ex.birkhoff_limit_closed_form(1 + 2j)
        b = ex.birkhoff_limit_closed_form(2 + 1j)
        assert a == pytest.approx(b, rel=1e-12)


def cubic_roots_reference(q):
    """The roots of the worked example's cubic nearest 1, i, -1, by np.roots."""
    rs = np.roots(np.array([1, -1j, q - 2, 1j], dtype=complex))
    return [complex(rs[np.argmin(np.abs(rs - b))]) for b in (1, 1j, -1)]


class TestCubicRoots:
    def check(self, q):
        got = MonodromyCubicExample().roots_at(q)
        want = cubic_roots_reference(q)
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-13, q

    @pytest.mark.parametrize("q1", [0.8, 0.5])
    def test_real_path_to_one(self, q1):
        for j in range(15):
            self.check(q1 ** (2.0**-j))

    def test_complex_q_near_one(self):
        for r in (1 - 1e-3, 1 - 1e-6, 1 - 1e-10):
            for arg in (1e-6, 1e-3, -0.01, 0.2):
                self.check(cmath.rect(r, arg))

    def test_random_q_in_the_disk(self):
        rng = np.random.default_rng(21)
        radii = np.sqrt(rng.uniform(0, 1, 1200))
        for r, arg in zip(radii, rng.uniform(-math.pi, math.pi, 1200)):
            self.check(cmath.rect(r, arg))

    def test_the_double_root_side_of_the_disk(self):
        # the nearest double root is at q ~ 0.5696 + 0.9605i, |q| ~ 1.117
        arg = math.atan2(0.9605225582665823, 0.5696406933619815)
        for r in (0.9, 0.99, 1 - 1e-9):
            for d in (-0.01, 0.0, 0.01):
                self.check(cmath.rect(r, arg + d))

    @pytest.mark.parametrize("q", [0, 1, 1.5, 0.5696406933619815 + 0.9605225582665823j, 4.61],
                             ids=["0", "1", "1.5", "double-root", "4.61"])
    def test_q_outside_the_disk_is_rejected(self, q):
        with pytest.raises(DomainError, match="need 0 < \\|q\\| < 1"):
            MonodromyCubicExample().roots_at(q)

    def test_no_numpy_call(self, monkeypatch):
        import qonf.confluence as cfl

        monkeypatch.setattr(cfl, "np", None)
        assert len(MonodromyCubicExample().roots_at(0.8 ** (2.0**-10))) == 3


class TestFundamentalSolutionConfluence:
    """Confluence of the Frobenius solutions for the J-function pullback."""

    @pytest.mark.parametrize("N", [1, 2])
    def test_exact_coefficientwise_gauge_limit(self, N):
        D = 6
        qsys = pn_j_system(N, F(1))
        qsol = frobenius_solution(qsys, D)
        rep = check_confluent(qsys, Q0)
        assert rep.confluent
        osol = ode_frobenius_solution(rep.limit_system, D)
        ode_gauge = osol.gauge
        for m in range(D + 1):
            for i in range(N + 1):
                for j in range(N + 1):
                    got = limit_q_to_1(qsol.gauge.terms[m][i][j])
                    assert got == ode_gauge.terms[m][i][j]

    def test_numeric_path_convergence(self):
        N, D = 2, 8
        qsys = pn_j_system(N, F(1))
        qsol = frobenius_solution(qsys, D)
        rep = check_confluent(qsys, Q0)
        osol = ode_frobenius_solution(rep.limit_system, D, q0=Q0)
        Qv = 0.2
        target = osol.eval(Qv)
        errs = []
        for t in (2.0**-7, 2.0**-8, 2.0**-9):
            X = qsol.eval(Qv, q_num=Q0**t)
            errs.append(float(np.abs(np.array(X) - target).max()))
        assert errs[-1] < 1e-2
        for a, b in zip(errs, errs[1:]):
            assert 0.35 < b / a < 0.65  # linear decay in t
