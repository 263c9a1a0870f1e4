"""The gauge residual of :func:`qonf.qdiff.gauge_residual` as a contract.

Each exact Frobenius solver either raises a :class:`QonfError` subclass or
returns a gauge with G(0) = I whose residual is exactly zero through its
truncation: on the q side A G = (sigma G) A(0), on the ODE side
B P = Q P' + P B(0).  The residual in turn rejects a gauge with one wrong
entry at any degree.
"""

from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from qonf.confluence import ODESystem, builtin_system, ode_frobenius_solution
from qonf.polyq import (
    MatrixSeries,
    NotAnalyticError,
    Poly,
    RatFunc,
    mat_add,
    mat_eye,
    mat_scale,
    parse_bivariate,
    ratfunc_matrix_series,
)
from qonf.qdiff import (
    QDifferenceSystem,
    ResonanceError,
    frobenius_solution,
    gauge_residual,
    system_from_json,
)
from qonf.qspecial import DomainError
from qonf.rings import QonfError, RationalFunctionQ as R

CONTRACT = settings(max_examples=100, deadline=5000, derandomize=True, database=None)


def q_residual(sys, G):
    """A G - (sigma G) A(0), W_m = q^m A(0)."""
    Aser = ratfunc_matrix_series([list(r) for r in sys.A], G.truncation)
    return gauge_residual(Aser, G, lambda m: mat_scale(Aser.terms[0], sys.q**m))


def ode_residual(ode, P):
    """B P - Q P' - P B(0), W_m = m I + B(0)."""
    Bser = ratfunc_matrix_series([list(r) for r in ode.B], P.truncation)
    eye = mat_eye(ode.n, Bser.one)
    return gauge_residual(Bser, P, lambda m: mat_add(Bser.terms[0], mat_scale(eye, m)))


# ---------------------------------------------------------------- planted errors


@pytest.mark.parametrize(
    "name, N, D",
    [("pochhammer-raw", 2, 12), ("pochhammer-scaled", 2, 12), ("irregular-limit", 2, 12),
     ("pn-j", 1, 12), ("pn-j", 2, 10)],
    ids=["pochhammer-raw", "pochhammer-scaled", "irregular-limit", "pn-j N=1", "pn-j N=2"],
)
def test_every_planted_error_is_rejected(name, N, D):
    sys = builtin_system(name, N=N)
    G = frobenius_solution(sys, D).gauge
    assert q_residual(sys, G).is_zero()
    n = sys.n
    for m in range(1, D + 1):
        i, j = divmod(m % (n * n), n)
        wrong = [list(row) for row in G.terms[m]]
        wrong[i][j] = wrong[i][j] + 1
        planted = MatrixSeries(G.terms[:m] + [wrong] + G.terms[m + 1:], G.one)
        assert not q_residual(sys, planted).is_zero(), f"plant at degree {m} accepted"


# ---------------------------------------------------------------- the solvers' contract


# a q-dependent pool; b(0) = 1/(1-q) on the diagonal makes A(0) singular
Q_POOL = ["0", "0", "1", "-1", "2", "-1/2", "q", "-q", "1/q", "q^2", "1/(1+q)", "(q+2)/3",
          "1/(1-q)"]
# denominators of Q-degree <= 2, one with a pole at Q = 0
Q_DENOMINATORS = ["1", "1", "1", "1 - Q", "1 + q*Q^2", "Q"]


@st.composite
def q_systems(draw):
    """A = I + (q - 1) B(Q), B(0) either free or strictly lower triangular."""
    n = draw(st.integers(1, 3))
    nilpotent = draw(st.booleans())
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            c0, c1, c2 = (draw(st.sampled_from(Q_POOL)) for _ in range(3))
            if nilpotent and j >= i:
                c0 = "0"
            den = draw(st.sampled_from(Q_DENOMINATORS))
            b = f"(({c0}) + ({c1})*Q + ({c2})*Q^2)/({den})"
            row.append(parse_bivariate(f"{int(i == j)} + (q-1)*{b}"))
        rows.append(tuple(row))
    return QDifferenceSystem(tuple(rows), R.q())


@CONTRACT
@given(sys=q_systems(), D=st.integers(1, 5))
def test_frobenius_solution_solves_or_raises(sys, D):
    try:
        G = frobenius_solution(sys, D).gauge
    except QonfError:
        return
    assert G.terms[0] == mat_eye(sys.n, R.one())
    assert q_residual(sys, G).is_zero()


F_POOL = [F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-3, 2)]
F_DENOMINATORS = [(F(1),), (F(1),), (F(1),), (F(1), F(-1)), (F(1), F(0), F(2)), (F(0), F(1))]


@st.composite
def ode_systems(draw):
    """B(Q) over Fractions, B(0) free, strictly lower triangular, or a
    multiple of I plus a strictly lower triangular part."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["free", "nilpotent", "single eigenvalue"]))
    mu = draw(st.sampled_from(F_POOL))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            coeffs = [draw(st.sampled_from(F_POOL)) for _ in range(3)]
            if kind != "free" and j >= i:
                coeffs[0] = mu if kind == "single eigenvalue" and i == j else F(0)
            den = draw(st.sampled_from(F_DENOMINATORS))
            row.append(RatFunc(Poly(coeffs, F(1)), Poly(list(den), F(1))))
        rows.append(tuple(row))
    return ODESystem(tuple(rows))


@CONTRACT
@given(ode=ode_systems(), D=st.integers(1, 5))
def test_ode_frobenius_solution_solves_or_raises(ode, D):
    try:
        P = ode_frobenius_solution(ode, D).gauge
    except QonfError:
        return
    assert P.terms[0] == mat_eye(ode.n, F(1))
    assert ode_residual(ode, P).is_zero()


# ---------------------------------------------------------------- rows with Q-denominators


# nonzero at Q = 0, and q-dependent
DEN_HEADS = ["1", "2", "-3", "q", "1 + q", "1/(2 + q)", "-q^2", "(3 + 4*q)/5"]
DEN_TAIL = ["0", "0", "1", "-1", "q", "2*q + 1", "1/q", "-q^2/(1 + q)"]


@st.composite
def rational_q_systems(draw):
    """A = I + (q - 1) B, each row over its own denominator of Q-degree <= 2
    with q-dependent coefficients (or none), B(0) strictly lower triangular
    when n > 1, so A(0) is unipotent and every draw has a gauge."""
    n = draw(st.integers(1, 3))
    rows = []
    for i in range(n):
        den = "1"
        if draw(st.booleans()):
            e0, e1, e2 = draw(st.sampled_from(DEN_HEADS)), *(draw(st.sampled_from(DEN_TAIL))
                                                             for _ in range(2))
            den = f"({e0}) + ({e1})*Q + ({e2})*Q^2"
        row = []
        for j in range(n):
            c0, c1, c2 = (draw(st.sampled_from(Q_POOL[:-1])) for _ in range(3))
            if n > 1 and j >= i:
                c0 = "0"
            # an entry keeps the row's denominator, or has none of its own
            own = den if draw(st.booleans()) else "1"
            row.append(parse_bivariate(
                f"{int(i == j)} + (q-1)*(({c0}) + ({c1})*Q + ({c2})*Q^2)/({own})"))
        rows.append(tuple(row))
    return QDifferenceSystem(tuple(rows), R.q())


@CONTRACT
@given(sys=rational_q_systems(), D=st.integers(1, 6))
def test_frobenius_solution_with_row_denominators(sys, D):
    G = frobenius_solution(sys, D).gauge
    assert G.terms[0] == mat_eye(sys.n, R.one())
    assert q_residual(sys, G).is_zero()


F_DEN_HEADS = [F(1), F(2), F(-1, 3), F(5, 2)]
F_DEN_TAIL = [F(0), F(0), F(1), F(-1), F(3, 4), F(-2)]


@st.composite
def rational_ode_systems(draw):
    """B(Q) over Fractions, each row over its own denominator of Q-degree
    <= 2 (or none), B(0) a multiple of I plus a strictly lower triangular
    part."""
    n = draw(st.integers(1, 3))
    mu = draw(st.sampled_from(F_POOL))
    rows = []
    for i in range(n):
        den = [F(1)]
        if draw(st.booleans()):
            den = [draw(st.sampled_from(F_DEN_HEADS))] + [draw(st.sampled_from(F_DEN_TAIL))
                                                          for _ in range(2)]
        row = []
        for j in range(n):
            coeffs = [draw(st.sampled_from(F_POOL)) for _ in range(3)]
            own = den if draw(st.booleans()) else [F(1)]
            if j >= i:  # B(0)_ij = coeffs[0] / own[0]
                coeffs[0] = mu * own[0] if i == j else F(0)
            row.append(RatFunc(Poly(coeffs, F(1)), Poly(own, F(1))))
        rows.append(tuple(row))
    return ODESystem(tuple(rows))


@CONTRACT
@given(ode=rational_ode_systems(), D=st.integers(1, 6))
def test_ode_frobenius_solution_with_row_denominators(ode, D):
    P = ode_frobenius_solution(ode, D).gauge
    assert P.terms[0] == mat_eye(ode.n, F(1))
    assert ode_residual(ode, P).is_zero()


@pytest.mark.parametrize("D", [0, 3, 12])
def test_pole_at_zero_in_a_rational_row_raises(D):
    sys = QDifferenceSystem(((parse_bivariate("1 + (q-1)*(2 + Q)/(Q*(1 + q*Q))"),),), R.q())
    with pytest.raises(NotAnalyticError, match="not analytic at 0"):
        frobenius_solution(sys, D)
    ode = ODESystem(((RatFunc(Poly([F(1)], F(1)), Poly([F(0), F(1), F(1)], F(1))),),))
    with pytest.raises(NotAnalyticError, match="not analytic at 0"):
        ode_frobenius_solution(ode, D)


@pytest.mark.parametrize("D", [4, 12])
def test_singular_a0_in_a_rational_row_raises(D):
    sys = QDifferenceSystem(((parse_bivariate("1 + (q-1)*(1/(1-q) + Q/(2 + q*Q))"),),), R.q())
    with pytest.raises(DomainError, match="A\\(0\\) is not invertible"):
        frobenius_solution(sys, D)


def test_resonance_in_rational_rows_names_the_degree():
    """Eigenvalues 1 and q of A(0) at numeric q: the degree-1 solve is singular."""
    sys = system_from_json({"n": 2, "q": 0.5, "entries": [
        {"i": 0, "j": 0, "entry": "1 + Q/(2 + Q)"},
        {"i": 0, "j": 1, "entry": "Q/(3 + q*Q)"},
        {"i": 1, "j": 1, "entry": "q + Q^2/(1 - Q)"},
    ]})
    with pytest.raises(ResonanceError, match="resonant exponent at degree 1") as err:
        frobenius_solution(sys, 4)
    assert err.value.degree == 1
