import math
from fractions import Fraction as F

import numpy as np
import pytest

from qonf import qdiff
from qonf.confluence import builtin_system
from qonf.gw import pn_operator, qpoch_exact
from qonf.polyq import (
    MatrixSeries,
    RatFunc,
    SingularMatrixError,
    mat_add,
    mat_eye,
    mat_inv,
    mat_mul,
    mat_scale,
    mat_zero,
    parse_bivariate,
    ratfunc_matrix_series,
)
from qonf.qdiff import (
    ConstantPart,
    DegenerateOperatorError,
    QDifferenceSystem,
    QHypergeometricSpec,
    ResonanceError,
    ScalarQOperator,
    UnsupportedJordanError,
    casoratian,
    companion_system,
    frobenius_log_solutions,
    frobenius_solution,
    gauge_residual,
    gauge_residual_series,
    gauge_transform,
    is_regular_singular_at_0,
    normalize_to_constant,
    operator_residual,
    q_pullback,
    qhg_bases,
    qhg_coefficients,
    qhg_operator,
    rank1_product_solution,
    solve_scalar_series,
    solve_sylvester,
    system_from_json,
)
from qonf.qspecial import PoleProximityError, q_character, q_log, qpoch_finite
from qonf.rings import Poly, RationalFunctionQ as R, apply_operator, sigma_weight


Q_SYM = R.q()
ONE = R.one()


def rf(text):
    return parse_bivariate(text)


# ---------------------------------------------------------------- companion / criterion


class TestCompanion:
    def test_rank_one(self):
        op = ScalarQOperator((rf("1"), rf("-1")), Q_SYM)
        sys = companion_system(op)
        assert sys.n == 1
        assert sys.A[0][0] == rf("1")

    def test_p2_system(self):
        sys = companion_system(pn_operator(2))
        assert sys.n == 3
        assert sys.A[0][1] == rf("1") and sys.A[0][0].is_zero
        assert sys.A[2][0] == rf("1 - Q")
        assert sys.A[2][1] == rf("-3")
        assert sys.A[2][2] == rf("3")

    def test_generic_order_two(self):
        a0, a1 = rf("q*Q + 2"), rf("1 - Q^2")
        op = ScalarQOperator((a0, a1, rf("1")), Q_SYM)
        sys = companion_system(op)
        assert sys.A[1][0] == -a0
        assert sys.A[1][1] == -a1

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateOperatorError):
            ScalarQOperator((rf("1"), rf("0")), Q_SYM)


class TestRegularSingularCriterion:
    def test_pn_equation_is_regular_singular(self):
        assert is_regular_singular_at_0(pn_operator(2))

    def test_w_transform_is_not(self):
        # q^(N+1) W (sigma - 1)^(N+1) - sigma^(N+1) at N = 2
        coeffs = (
            rf("-q^3*Q"),
            rf("3*q^3*Q"),
            rf("-3*q^3*Q"),
            rf("q^3*Q - 1"),
        )
        assert not is_regular_singular_at_0(ScalarQOperator(coeffs, Q_SYM))

    def test_constant_coefficients(self):
        assert is_regular_singular_at_0(ScalarQOperator((rf("1"), rf("-1")), Q_SYM))


# ---------------------------------------------------------------- gauge transforms


class TestGauge:
    def test_identity_gauge(self):
        sys = companion_system(pn_operator(1))
        eye = [
            [rf("1") if i == j else rf("0") for j in range(2)]
            for i in range(2)
        ]
        out = gauge_transform(eye, sys)
        for i in range(2):
            for j in range(2):
                assert out.A[i][j] == sys.A[i][j]

    def test_scalar_rescale_fixes_system(self):
        sys = companion_system(pn_operator(1))
        c = rf("5")
        P = [[c if i == j else rf("0") for j in range(2)] for i in range(2)]
        out = gauge_transform(P, sys)
        for i in range(2):
            for j in range(2):
                assert out.A[i][j] == sys.A[i][j]

    def test_euler_series_gauge_to_constant(self):
        # A = q (1 - Q): normalization gauge is the Euler series (Q;q)_inf
        sys = QDifferenceSystem(((rf("q") * rf("1 - Q"),),), Q_SYM)
        Fser, A0 = normalize_to_constant(sys, 8)
        assert A0[0][0] == R.q()
        assert gauge_residual_series(sys, Fser, A0).is_zero()
        for m in range(9):
            expect = ((-1) ** m) * R.q_power(m * (m - 1) // 2) / qpoch_exact(m)
            assert Fser.terms[m][0][0] == expect

    def test_pullback(self):
        sys = QDifferenceSystem(((rf("1 - Q"),),), Q_SYM)
        same = q_pullback(sys, ONE)
        assert same.A[0][0] == sys.A[0][0]
        scaled = q_pullback(sys, 1 / (1 - R.q()))
        assert scaled.A[0][0] == rf("1 - (1-q)*Q")


class TestNormalize:
    def test_constant_matrix_gives_identity_gauge(self):
        sys = QDifferenceSystem(((rf("2"), rf("0")), (rf("0"), rf("q"))), Q_SYM)
        Fser, A0 = normalize_to_constant(sys, 4)
        identity = MatrixSeries([mat_eye(2, ONE)] + [mat_zero(2, ONE) for _ in range(4)], ONE)
        assert Fser.terms == identity.terms

    def test_two_by_two_sylvester_degree_one(self):
        # A = diag(1, mu) + Q * offdiag: F_1 solves q F_1 D - D F_1 = -A_1, uniquely
        mu = rf("3")
        A = ((rf("1"), rf("Q")), (rf("2*Q"), mu))
        sys = QDifferenceSystem(A, Q_SYM)
        Fser, A0 = normalize_to_constant(sys, 1)
        F1 = Fser.terms[1]
        q = R.q()
        # check the Sylvester identity entrywise
        D = [[ONE, R.zero()], [R.zero(), 3 * ONE]]
        lhs = [[q * sum(F1[i][k] * D[k][j] for k in range(2)) -
                sum(D[i][k] * F1[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
        A1 = [[R.zero(), ONE], [2 * ONE, R.zero()]]
        for i in range(2):
            for j in range(2):
                assert lhs[i][j] == -A1[i][j]
        assert gauge_residual_series(sys, Fser, A0).is_zero()

    def test_resonance_detected(self):
        # eigenvalues 1 and q: ratio in q^Z -> the degree-1 Sylvester solve is singular
        A = ((rf("1"), rf("Q")), (rf("0"), rf("q")))
        sys = QDifferenceSystem(A, Q_SYM)
        with pytest.raises(ResonanceError) as err:
            normalize_to_constant(sys, 3)
        assert err.value.degree == 1


from hypothesis import given, settings
import hypothesis.strategies as st

small_ints = st.integers(min_value=-4, max_value=4)


class TestNormalizeProperty:
    @given(
        st.integers(min_value=2, max_value=7),
        small_ints, small_ints, small_ints, small_ints,
    )
    @settings(max_examples=25, deadline=None)
    def test_gauge_round_trip_on_random_systems(self, lam2, a, b, c, d):
        # diag(1, lam2) + Q * (random integer matrix): non-resonant since the
        # eigenvalue ratio of A(0) is a plain integer >= 2, never in q^Z
        A = (
            (rf("1") + rf("Q") * a, rf("Q") * b),
            (rf("Q") * c, rf(str(lam2)) + rf("Q") * d),
        )
        sys = QDifferenceSystem(A, Q_SYM)
        Fser, A0 = normalize_to_constant(sys, 4)
        assert gauge_residual_series(sys, Fser, A0).is_zero()


# ---------------------------------------------------------------- fundamental solutions


class TestFrobenius:
    def test_rank_one_constant_is_character(self):
        lam = 0.7 + 0.3j
        q = 0.4
        sys = QDifferenceSystem(((RatFunc.const(lam, 1 + 0j),),), q)
        sol = frobenius_solution(sys, 10)
        assert sol.kind == "diagonalizable"
        for Q in (0.3, 0.2 + 0.5j):
            assert sol.eval(Q)[0][0] == pytest.approx(q_character(lam, q, Q), rel=1e-10)

    def test_unipotent_two_by_two(self):
        q = 0.45
        one = 1 + 0j
        u, z = RatFunc.const(one, one), RatFunc.const(0j, one)
        sys = QDifferenceSystem(((u, z), (u, u)), q)
        sol = frobenius_solution(sys, 4)
        assert sol.kind == "unipotent"
        X = sol.eval(0.3)
        ell = q_log(q, 0.3)
        assert X[0][0] == pytest.approx(1.0)
        assert X[1][0] == pytest.approx(ell, rel=1e-12)
        assert X[1][1] == pytest.approx(1.0)
        assert sol.shift_residual(0.3) < 1e-12

    @staticmethod
    def uncached_eval(sol, Q, q_num=None):
        """eval with the gauge and the nilpotent log converted afresh per call."""
        q = q_num if q_num is not None else sol.q
        G = sol.gauge.map_entries(lambda c: qdiff._to_complex(c, q), 1 + 0j).evaluate(complex(Q))
        if sol.kind == "diagonalizable":
            V = sol.basis
            chars = np.diag([sol.character(lam, q, Q) for lam in sol.eigenvalues])
            E = V @ chars @ np.linalg.inv(V)
        else:
            Nm = np.array(
                [[qdiff._to_complex(x, q) for x in row] for row in sol.nilpotent_log], dtype=complex
            )
            E = qdiff._nilpotent_exp(sol.logarithm(q, Q) * Nm)
            if sol.kind == "nilpotent":
                E = sol.character(sol.eigenvalues[0], q, Q) * E
        return np.array(G, dtype=complex) @ E

    def test_eval_converts_once_per_q_with_unchanged_bits(self, monkeypatch):
        from qonf.confluence import check_confluent, ode_frobenius_solution, pn_j_system

        qsys = pn_j_system(2)
        osys = check_confluent(qsys, 0.8).limit_system
        numeric = system_from_json({"n": 2, "q": [0.41, 0.37], "entries": [
            {"i": 0, "j": 0, "entry": "1.25 + Q/(3 + Q)"},
            {"i": 1, "j": 1, "entry": "2.2 + Q/(4 + Q)"}]})
        qsol = frobenius_solution(qsys, 6)
        cases = [  # (solution, q_num): unipotent at two q, nilpotent, diagonalizable
            (qsol, 0.5), (qsol, 0.3 + 0.4j),
            (ode_frobenius_solution(osys, 6), None), (frobenius_solution(numeric, 8), None),
        ]
        calls = []
        convert = qdiff._to_complex
        monkeypatch.setattr(qdiff, "_to_complex", lambda c, q: calls.append(c) or convert(c, q))
        for sol, q_num in cases:
            calls.clear()
            sol.eval(0.1, q_num)
            assert len(calls) > len(sol.eigenvalues)  # a new q is converted ...
            for Q in (0.3, 0.2 - 0.5j, -0.7 + 0.1j):
                calls.clear()
                got = sol.eval(Q, q_num)
                # ... once: later calls convert only the eigenvalues of the characters
                assert all(any(c is lam for lam in sol.eigenvalues) for c in calls)
                want = self.uncached_eval(sol, Q, q_num)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_pochhammer_equation_exact_series(self):
        # A(Q) = 1 - Q: normalized solution is sum Q^d/(q;q)_d
        sys = QDifferenceSystem(((rf("1 - Q"),),), Q_SYM)
        sol = frobenius_solution(sys, 8)
        assert sol.kind == "unipotent"
        for d in range(9):
            assert sol.gauge.terms[d][0][0] == 1 / qpoch_exact(d)
        Aser = ratfunc_matrix_series([[rf("1 - Q")]], 8)
        assert gauge_residual(Aser, sol.gauge, lambda m: [[Q_SYM**m]]).is_zero()

    def test_numeric_shift_residuals_companion(self):
        q = 0.35
        spec = QHypergeometricSpec((0.3 + 0.1j, 1.7 - 0.4j), (0.9 + 0.6j,))
        op = qhg_operator(spec, q)
        sys = companion_system(op)
        sol = frobenius_solution(sys, 40)
        for Q in (0.05, 0.03 + 0.04j):
            assert sol.shift_residual(Q) < 1e-8

    def test_unsupported_jordan_exact(self):
        A = ((rf("2"), rf("1")), (rf("0"), rf("2")))
        with pytest.raises(UnsupportedJordanError):
            frobenius_solution(QDifferenceSystem(A, Q_SYM), 3)


# ---------------------------------------------------------------- the Sylvester solver


def _unimodular(draw, n):
    # unit lower times unit upper triangular integer matrices: determinant 1
    ints = st.integers(min_value=-2, max_value=2)
    L = [[F(1) if i == j else (F(draw(ints)) if j < i else F(0)) for j in range(n)]
         for i in range(n)]
    U = [[F(1) if i == j else (F(draw(ints)) if j > i else F(0)) for j in range(n)]
         for i in range(n)]
    return mat_mul(L, U)


@st.composite
def scalar_plus_nilpotent(draw, scalar):
    """(lam, Nil, R): Nil = U T U^-1 with T strictly upper triangular and U
    unimodular, so Nil has any nilpotency index up to n <= 4."""
    n = draw(st.integers(min_value=1, max_value=4))
    U = _unimodular(draw, n)
    T = [[scalar(draw) if j > i else scalar(None) for j in range(n)] for i in range(n)]
    Uinv = [[scalar(None) + x for x in row] for row in mat_inv(U)]
    Uc = [[scalar(None) + x for x in row] for row in U]
    nil = mat_mul(mat_mul(Uc, T), Uinv)
    lam = scalar(draw)
    if lam == 0 * lam:
        lam = lam + 1
    R_ = [[scalar(draw) for _ in range(n)] for _ in range(n)]
    return lam, nil, R_


def _q_scalar(draw):
    # a + b q over Q(q); draw=None gives zero
    if draw is None:
        return R.zero()
    a, b = draw(small_ints), draw(small_ints)
    return R.from_fraction(F(a)) + R.from_fraction(F(b)) * Q_SYM


def _fraction_scalar(draw):
    if draw is None:
        return F(0)
    return F(draw(small_ints), draw(st.integers(min_value=1, max_value=3)))


@st.composite
def scalar_plus_permuted_triangular(draw, scalar):
    """(lam, Nil, R): Nil = P T P^-1 with T strictly upper triangular and P a
    random permutation, so Nil's nonzero pattern is acyclic, n <= 4."""
    n = draw(st.integers(min_value=1, max_value=4))
    perm = draw(st.permutations(range(n)))
    nil = [[scalar(None)] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            nil[perm[a]][perm[b]] = scalar(draw)
    lam = scalar(draw)
    if lam == 0 * lam:
        lam = lam + 1
    R_ = [[scalar(draw) for _ in range(n)] for _ in range(n)]
    return lam, nil, R_


def _sylvester_lhs(c, s, nil, X):
    XN, NX = mat_mul(X, nil), mat_mul(nil, X)
    return [[c * x + s * a - b for x, a, b in zip(rx, ra, rb)]
            for rx, ra, rb in zip(X, XN, NX)]


def _pattern_is_acyclic(nil):
    # the boolean pattern matrix is nilpotent exactly when its graph has no cycle
    n = len(nil)
    P = [[x != 0 * x for x in row] for row in nil]
    power = P
    for _ in range(n):
        power = [[any(power[i][k] and P[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
    return not any(any(row) for row in power)


def _strictly_upper(M, order):
    return all(M[order[a]][order[b]] == 0 * M[0][0]
               for a in range(len(M)) for b in range(a + 1))


def _check_sylvester(part, nil, c, s, R_, one):
    eye = mat_eye(len(nil), one)
    X = solve_sylvester(c, s, part, [(R_, eye)])
    assert X == solve_sylvester(c, s, ConstantPart(part.lam, nil, False), [(R_, eye)])
    assert _sylvester_lhs(c, s, nil, X) == R_
    # two pairs sum to the same right-hand side
    half = mat_scale(R_, one / 2)
    assert solve_sylvester(c, s, part, [(half, eye), (eye, half)]) == X


class TestSylvesterSolver:
    @given(scalar_plus_nilpotent(_q_scalar), st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_unimodular_conjugate_matches_gauss_jordan_q_side(self, data, m):
        lam, nil, R_ = data
        n = len(nil)
        part = ConstantPart.of(mat_add(mat_scale(mat_eye(n, ONE), lam), nil), ONE)
        assert part.nilpotent and part.lam == lam and part.N == nil
        qm = Q_SYM**m
        c, s = lam * (qm - 1), qm
        X = solve_sylvester(c, s, part, [(R_, mat_eye(n, ONE))])
        assert X == solve_sylvester(c, s, ConstantPart(lam, nil, False), [(R_, mat_eye(n, ONE))])
        assert _sylvester_lhs(c, s, nil, X) == R_

    @given(scalar_plus_nilpotent(_fraction_scalar), st.integers(min_value=1, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_unimodular_conjugate_matches_gauss_jordan_ode_side(self, data, m):
        mu, nil, R_ = data
        n = len(nil)
        part = ConstantPart.of(mat_add(mat_scale(mat_eye(n, F(1)), mu), nil), F(1))
        assert part.nilpotent and part.lam == mu and part.N == nil
        c, s = F(m), F(1)
        X = solve_sylvester(c, s, part, [(R_, mat_eye(n, F(1)))])
        assert X == solve_sylvester(c, s, ConstantPart(F(0), nil, False), [(R_, mat_eye(n, F(1)))])
        assert _sylvester_lhs(c, s, nil, X) == R_

    @given(scalar_plus_permuted_triangular(_q_scalar), st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_permuted_triangular_matches_gauss_jordan_q_side(self, data, m):
        lam, nil, R_ = data
        n = len(nil)
        part = ConstantPart.of(mat_add(mat_scale(mat_eye(n, ONE), lam), nil), ONE)
        assert part.nilpotent and part.lam == lam and part.N == nil
        assert part.order is not None and part.basis is None
        qm = Q_SYM**m
        _check_sylvester(part, nil, lam * (qm - 1), qm, R_, ONE)

    @given(scalar_plus_permuted_triangular(_fraction_scalar), st.integers(min_value=1, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_permuted_triangular_matches_gauss_jordan_ode_side(self, data, m):
        mu, nil, R_ = data
        n = len(nil)
        part = ConstantPart.of(mat_add(mat_scale(mat_eye(n, F(1)), mu), nil), F(1))
        assert part.nilpotent and part.lam == mu and part.N == nil
        assert part.order is not None and part.basis is None
        _check_sylvester(part, nil, F(m), F(1), R_, F(1))

    @given(st.one_of(scalar_plus_nilpotent(_fraction_scalar),
                     scalar_plus_permuted_triangular(_fraction_scalar)))
    @settings(max_examples=30, deadline=None)
    def test_order_is_a_permutation_exactly_when_the_pattern_is_acyclic(self, data):
        mu, nil, _ = data
        n = len(nil)
        part = ConstantPart.of(mat_add(mat_scale(mat_eye(n, F(1)), mu), nil), F(1))
        assert (part.order is not None) == _pattern_is_acyclic(nil)
        if part.order is not None:
            assert sorted(part.order) == list(range(n)) and part.basis is None
            assert _strictly_upper(nil, part.order)
        else:
            U, Uinv, T = part.basis
            assert mat_mul(Uinv, U) == mat_eye(n, F(1))
            assert mat_mul(mat_mul(Uinv, nil), U) == T
            assert _strictly_upper(T, range(n))

    def test_cyclic_pattern_is_conjugated(self):
        # N = (q-1)[[1, 1], [-1, -1]]: every entry nonzero, N^2 = 0
        q1 = Q_SYM - 1
        nil = [[q1, q1], [-q1, -q1]]
        part = ConstantPart.of(mat_add(mat_eye(2, ONE), nil), ONE)
        assert part.nilpotent and part.order is None and part.basis is not None
        R_ = [[ONE, Q_SYM], [2 * ONE, R.zero()]]
        _check_sylvester(part, nil, Q_SYM**3 - 1, Q_SYM**3, R_, ONE)

    def test_several_eigenvalues_are_not_split(self):
        part = ConstantPart.of([[ONE, ONE], [R.zero(), 2 * ONE]], ONE)
        assert not part.nilpotent and part.lam == R.zero()
        assert not ConstantPart.of([[1 + 0j, 1 + 0j], [0j, 1 + 0j]], 1 + 0j).nilpotent

    def test_zero_c_with_nilpotent_part_is_singular(self):
        part = ConstantPart.of([[ONE, ONE], [R.zero(), ONE]], ONE)
        with pytest.raises(SingularMatrixError):
            solve_sylvester(R.zero(), ONE, part, [([[ONE, ONE], [ONE, ONE]], mat_eye(2, ONE))])

    def test_unsupported_exact_jordan_is_decided_before_solving(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a Sylvester solve ran before the Jordan check")

        monkeypatch.setattr(qdiff, "solve_sylvester", refuse, raising=False)
        monkeypatch.setattr(qdiff, "lin_solve", refuse)
        # A(0) = diag(1, 2): two eigenvalues, unsupported in exact mode
        A = ((rf("1 + Q"), rf("Q")), (rf("2*Q"), rf("2")))
        with pytest.raises(UnsupportedJordanError):
            frobenius_solution(QDifferenceSystem(A, Q_SYM), 12)


def _rank2_unipotent_json():
    # A = I + (q-1) B with B(0) nilpotent; q-denominators 2q^2+q+3, 3q+2 are
    # not cyclotomic
    return system_from_json({"n": 2, "q": "q", "entries": [
        {"i": 0, "j": 0, "entry": "1 + (q-1)*(2*Q)/(2*q^2 + q + 3)"},
        {"i": 0, "j": 1, "entry": "(q-1)*(1 + Q/(3*q + 2))"},
        {"i": 1, "j": 0, "entry": "(q-1)*Q*(q + 5)/(2*q^2 + q + 3 + Q)"},
        {"i": 1, "j": 1, "entry": "1"},
    ]})


class TestGaugeIsInverseOfNormalization:
    @pytest.mark.parametrize(
        "make, D",
        [
            (lambda: builtin_system("pochhammer-raw"), 10),
            (lambda: builtin_system("pochhammer-scaled"), 10),
            (lambda: builtin_system("irregular-limit"), 8),
            (lambda: builtin_system("pn-j", N=2), 5),
            (_rank2_unipotent_json, 5),
        ],
        ids=["pochhammer-raw", "pochhammer-scaled", "irregular-limit", "pn-j", "rank-2-json"],
    )
    def test_gauge_times_normalizer_is_identity(self, make, D):
        sys = make()
        G = frobenius_solution(sys, D).gauge
        F_ser, _ = normalize_to_constant(sys, D)
        identity = MatrixSeries([mat_eye(sys.n, ONE)] + [mat_zero(sys.n, ONE) for _ in range(D)], ONE)
        assert G.mul(F_ser).terms == identity.terms


# ---------------------------------------------------------------- scalar series solutions


class TestScalarSeries:
    def test_trvial_operator(self):
        op = ScalarQOperator((rf("1"), rf("-1")), Q_SYM)
        sol = solve_scalar_series(op, 5)
        assert sol.coefficient(0, 0, 0) == ONE
        assert all(sol.coefficient(d, 0, 0).is_zero for d in range(1, 6))

    def test_p2_series(self):
        sol = solve_scalar_series(pn_operator(2), 6)
        for d in range(7):
            assert sol.coefficient(d, 0, 0) == 1 / qpoch_exact(d) ** 3

    def test_rank_one_series(self):
        sol = solve_scalar_series(pn_operator(0), 6)
        for d in range(7):
            assert sol.coefficient(d, 0, 0) == 1 / qpoch_exact(d)

    def test_vanishing_indicial_factor(self):
        # sigma f = q f has indicial factor 1 - q^(d-1), vanishing at d = 1
        op = ScalarQOperator((rf("q"), rf("-1")), Q_SYM)
        with pytest.raises(ResonanceError) as err:
            solve_scalar_series(op, 3)
        assert err.value.degree == 1


class TestLogSolutions:
    def test_trivial(self):
        op = ScalarQOperator((rf("1"), rf("-1")), Q_SYM)
        (sol,) = frobenius_log_solutions(op, 4)
        assert sol.coefficient(0, 0, 0) == ONE
        assert sol.logdegree == 0

    def test_order_two_correction(self):
        # (1 - sigma)^2 f = Q f: second solution h_d (L + a_d) with
        # a_d - a_{d-1} = 2 q^d/(1 - q^d)
        sols = frobenius_log_solutions(pn_operator(1), 6)
        assert len(sols) == 2
        s1 = sols[1]
        a = R.zero()
        for d in range(7):
            h = 1 / qpoch_exact(d) ** 2
            if d:
                a = a + 2 * R.q_power(d) / R.one_minus_q_pow(d)
            assert s1.coefficient(d, 0, 1) == h
            assert s1.coefficient(d, 0, 0) == h * a

    def test_order_three_correction(self):
        # (1 - sigma)^3 f = Q f: second solution h_d (L + sum 3 q^k/(1-q^k))
        sols = frobenius_log_solutions(pn_operator(2), 6)
        s1 = sols[1]
        a = R.zero()
        for d in range(7):
            h = 1 / qpoch_exact(d) ** 3
            if d:
                a = a + 3 * R.q_power(d) / R.one_minus_q_pow(d)
            assert s1.coefficient(d, 0, 1) == h
            assert s1.coefficient(d, 0, 0) == h * a

    def test_solutions_annihilated_exactly(self):
        op = pn_operator(2)
        for s in frobenius_log_solutions(op, 6):
            ser = qdiff._operator_series(op, s.truncation)
            assert apply_operator(ser, sigma_weight, op.q, s).is_zero_through(6)

    def test_leading_L_coefficient_is_taylor_solution(self):
        op = pn_operator(2)
        sols = frobenius_log_solutions(op, 5)
        taylor = solve_scalar_series(op, 5)
        for m, s in enumerate(sols):
            assert s.logdegree == m
            for d in range(6):
                assert s.coefficient(d, 0, m) == taylor.coefficient(d, 0, 0)

    def test_numeric_oracle_second_solution(self):
        # evaluate with the true q-logarithm and apply the operator pointwise
        q, Q, D = 0.4, 0.15 + 0.1j, 40
        h = [1.0]
        a = [0.0]
        for d in range(1, D + 1):
            h.append(h[-1] / (1 - q**d) ** 3)
            a.append(a[-1] + 3 * q**d / (1 - q**d))

        def f(x):
            ell = q_log(q, x)
            return sum(h[d] * x**d * (ell + a[d]) for d in range(D + 1))

        vals = [f(q**k * Q) for k in range(4)]
        residual = vals[0] - 3 * vals[1] + 3 * vals[2] - vals[3] - Q * f(Q)
        assert abs(residual) < 1e-12

    def test_mixed_roots_rejected(self):
        op = ScalarQOperator((rf("2 - Q"), rf("-3"), rf("1")), Q_SYM)
        with pytest.raises(UnsupportedJordanError):
            frobenius_log_solutions(op, 3)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_maximal_unipotent_operators(self, data):
        # a_k(Q) = c (-1)^k C(n, k) + b_k1 Q + b_k2 Q^2 with q-dependent b_ki,
        # so the indicial polynomial is c (1 - x)^n
        n = data.draw(st.integers(min_value=0, max_value=3), label="order")
        D = data.draw(st.integers(min_value=0, max_value=5), label="D")
        c = data.draw(st.sampled_from(["1", "-2", "3/5"]), label="c")
        extra = st.sampled_from(["0", "1", "-3", "q", "2*q^2 - 1", "1/(1 + q)", "q/(2 - q)"])
        coeffs = []
        for k in range(n + 1):
            b1, b2 = data.draw(extra, label=f"b{k}1"), data.draw(extra, label=f"b{k}2")
            coeffs.append(rf(f"({c})*({(-1) ** k * math.comb(n, k)}) + ({b1})*Q + ({b2})*Q^2"))
        op = ScalarQOperator(tuple(coeffs), Q_SYM)
        sols = frobenius_log_solutions(op, D)
        taylor = solve_scalar_series(op, D)
        ser = qdiff._operator_series(op, D)
        assert len(sols) == n
        for m, s in enumerate(sols):
            assert apply_operator(ser, sigma_weight, op.q, s).is_zero_through(D)
            assert s.coeffs[0].coeffs[0] == Poly([R.zero()] * m + [ONE], ONE)
            assert s.logdegree == m
            for d in range(D + 1):
                assert s.coefficient(d, 0, m) == taylor.coefficient(d, 0, 0)

    @pytest.mark.parametrize("one, q", [(1.0, 0.5), (1 + 0j, 0.5 + 0j)])
    def test_float_and_complex_rings_classify_alike(self, one, q):
        # (1 - Q) - (2 + 4e-16) sigma + sigma^2: maximal unipotent within the
        # floating tolerance, whichever floating type carries the scalars
        def poly(*cs):
            return RatFunc(Poly([x * one for x in cs], one))

        op = ScalarQOperator((poly(1, -1), poly(-(2 + 4e-16)), poly(1)), q)
        sols = frobenius_log_solutions(op, 4)
        assert [s.logdegree for s in sols] == [0, 1]
        assert sols[1].coefficient(1, 0, 0) == pytest.approx(8.0)


# ---------------------------------------------------------------- q-hypergeometric


class TestQHypergeometric:
    def test_degree_zero_coefficient(self):
        spec = QHypergeometricSpec((0.3,), (0.7,))
        assert qhg_coefficients(spec, 0.5, 3)[0] == 1

    def test_zero_upper_parameter_gives_pochhammer_series(self):
        spec = QHypergeometricSpec((0,), ())
        q = 0.5
        c = qhg_coefficients(spec, q, 6)
        acc = 1.0
        for d in range(1, 7):
            acc /= 1 - q**d
            assert c[d] == pytest.approx(acc)

    def test_empty_parameters_euler_series(self):
        q = 0.5
        c = qhg_coefficients(QHypergeometricSpec((), ()), q, 6)
        import math

        for d in range(7):
            want = (-1) ** d * q ** (d * (d - 1) / 2)
            want /= math.prod(1 - q**r for r in range(1, d + 1))
            assert c[d] == pytest.approx(want)

    def test_series_solves_equation(self):
        spec = QHypergeometricSpec((0.3 + 0.1j, 1.7 - 0.4j), (0.9 + 0.6j,))
        q = 0.35
        op = qhg_operator(spec, q)
        base0, _ = qhg_bases(spec, q, 200)
        assert operator_residual(op, base0[0], 0.3 + 0.2j) < 1e-10

    def test_bases_have_stated_sizes_and_solve(self):
        spec = QHypergeometricSpec((0.3 + 0.1j, 1.7 - 0.4j), (0.9 + 0.6j,))
        q = 0.35
        base0, base_inf = qhg_bases(spec, q, 220)
        assert len(base0) == spec.r and len(base_inf) == spec.r
        op = qhg_operator(spec, q)
        for y in base0:
            assert operator_residual(op, y, 0.4 + 0.2j) < 1e-8
        for y in base_inf:
            assert operator_residual(op, y, 9 - 4j) < 1e-8
        assert abs(casoratian(base0, q, 0.4 + 0.2j)) > 1e-6
        assert abs(casoratian(base_inf, q, 9 - 4j)) > 1e-6

    def test_first_basis_element_is_the_series(self):
        spec = QHypergeometricSpec((0.3 + 0.1j, 1.7 - 0.4j), (0.9 + 0.6j,))
        q = 0.35
        base0, _ = qhg_bases(spec, q, 150)
        coeffs = qhg_coefficients(spec, q, 150)
        Qpt = 0.3 + 0.1j
        direct = sum(coeffs[d] * Qpt**d for d in range(151))
        assert base0[0].eval(Qpt) == pytest.approx(direct, rel=1e-12)
        # the coefficients against the product form
        # prod (a;q)_d / ((q;q)_d prod (b;q)_d) ((-1)^d q^(d(d-1)/2))^(1+s-r)
        e = 1 + spec.s - spec.r
        for d, c in enumerate(coeffs):
            want = qpoch_finite(q, q, d) ** -1 * ((-1) ** d * q ** (d * (d - 1) / 2)) ** e
            for a in spec.upper:
                want *= qpoch_finite(a, q, d)
            for b in spec.lower:
                want /= qpoch_finite(b, q, d)
            assert c == pytest.approx(want, rel=1e-12)

    def test_resonant_parameters_rejected(self):
        q = 0.35
        with pytest.raises(ResonanceError):
            qhg_bases(QHypergeometricSpec((0.3, 0.3 * q**2), (0.9,)), q, 10)

    def test_resonant_parameters_rejected_at_complex_q(self):
        # the ratio q^3 wraps past the principal branch of log q
        q = 0.5 * np.exp(2j)
        a = 0.3 + 0.1j
        with pytest.raises(ResonanceError):
            qhg_bases(QHypergeometricSpec((a, a * q**3), (0.9,)), q, 10)

    def test_lower_parameter_on_lattice_rejected(self):
        q = 0.35
        with pytest.raises(PoleProximityError):
            qhg_coefficients(QHypergeometricSpec((0.3,), (q**-2,)), q, 10)


# ---------------------------------------------------------------- rank 1 and Birkhoff


class TestRankOne:
    def test_trivial(self):
        sol = rank1_product_solution(1.0, (), (), 0.5)
        assert sol.eval(0.3 + 0.2j) == 1

    def test_pochhammer_inverse(self):
        q = 0.45
        sol = rank1_product_solution(1.0, (1.0,), (), q)
        from qonf.qspecial import qpoch_infinite

        Q = 0.3 + 0.1j
        assert sol.eval(Q) == pytest.approx(1 / qpoch_infinite(Q, q), rel=1e-11)
        # shift law: f(qQ) = (1 - Q) f(Q)
        assert sol.eval(q * Q) == pytest.approx((1 - Q) * sol.eval(Q), rel=1e-11)

    def test_general_shift_law(self):
        q = 0.4
        lam, alphas, betas = 1.3 - 0.2j, (0.8, 1.1j), (0.5 + 0.3j, 2.0)
        sol = rank1_product_solution(lam, alphas, betas, q)
        Q = 0.25 + 0.15j
        factor = lam
        for a in alphas:
            factor *= 1 - a * Q
        for b in betas:
            factor /= 1 - b * Q
        assert sol.eval(q * Q) == pytest.approx(factor * sol.eval(Q), rel=1e-10)

    def test_pole_raises(self):
        q = 0.5
        sol = rank1_product_solution(1.0, (1.0,), (), q)
        with pytest.raises(PoleProximityError):
            sol.eval(q**-3)


class TestBirkhoff:
    def test_consistent_pair_gives_q_constant_one(self):
        q = 0.4
        f = rank1_product_solution(1.0, (0.7,), (1.3,), q)
        finf = lambda W: f.eval(1 / W)
        Q = 0.5 + 0.8j
        P = f.eval(Q) / finf(1 / Q)
        assert P == pytest.approx(1.0)

    def test_q_constancy(self):
        # X0 and Xinf for sigma f = lam (1-aQ)/(1-bQ) f
        q = 0.4
        lam, a, b = 1.0, 1.4 + 0.2j, 0.6 - 0.5j
        f0 = rank1_product_solution(lam, (a,), (b,), q)
        # at infinity (W = 1/Q): sigma_W g = (b/(a lam)) (1 - qW/b)/(1 - qW/a) g
        ginf = rank1_product_solution(b / (a * lam), (q / b,), (q / a,), q)
        Q = 0.7 + 1.1j
        P1 = f0.eval(Q) / ginf.eval(1 / Q)
        P2 = f0.eval(q * Q) / ginf.eval(1 / (q * Q))
        assert abs(P2 - P1) < 1e-8 * abs(P1)


# ---------------------------------------------------------------- interchange


class TestSystemJson:
    def test_round_trip_exact(self):
        # the companion system of pn_operator(2), written out
        doc = {"n": 3, "q": "q", "entries": [
            {"i": 0, "j": 1, "entry": "(1)"},
            {"i": 1, "j": 2, "entry": "(1)"},
            {"i": 2, "j": 0, "entry": "(1) + (-1)*Q"},
            {"i": 2, "j": 1, "entry": "(-3)"},
            {"i": 2, "j": 2, "entry": "(3)"},
        ]}
        sys = companion_system(pn_operator(2))
        back = system_from_json(doc)
        assert back.is_exact
        for i in range(3):
            for j in range(3):
                assert back.A[i][j] == sys.A[i][j]

    def test_numeric_q_specialization(self):
        # the companion system of pn_operator(1), at q = 0.5
        doc = {"n": 2, "q": [0.5, 0.0], "entries": [
            {"i": 0, "j": 1, "entry": "(1)"},
            {"i": 1, "j": 0, "entry": "(-1) + (1)*Q"},
            {"i": 1, "j": 1, "entry": "(2)"},
        ]}
        num = system_from_json(doc)
        assert not num.is_exact
        M = num.matrix_at(0.3)
        assert M[1][0] == pytest.approx(0.3 - 1)
        assert M[1][1] == pytest.approx(2.0)
