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
    Poly,
    RatFunc,
    mat_add,
    mat_eye,
    mat_scale,
    parse_bivariate,
    ratfunc_matrix_series,
)
from qonf.qdiff import QDifferenceSystem, frobenius_solution, gauge_residual
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
