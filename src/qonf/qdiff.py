"""q-difference systems and scalar q-difference operators.

A system is the functional equation X(qQ) = A(Q) X(Q) for a square matrix A
of rational functions of Q.  The module covers vectorization of scalar
operators, the valuation criterion for regular-singularity at Q = 0, gauge
transforms, normalization to a constant matrix by a degreewise Sylvester
recursion, Frobenius-type fundamental solutions built from the q-characters
and the q-logarithm, Taylor and log-series solutions of scalar operators,
q-hypergeometric series with their solution bases at 0 and infinity, and
rank-1 Birkhoff connection values.

The series solutions of a scalar operator come from one recursion over
R[eps]/(eps^n): the eps-deformation that makes the J-function the
generating function of the Frobenius solutions
(:func:`frobenius_log_solutions`).

Two coefficient modes coexist: exact (entries rational in a symbolic q,
scalars :class:`~qonf.rings.RationalFunctionQ`) for theorem-grade identities,
and complex floats for special-function evaluation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from .polyq import (
    MatrixSeries,
    Poly,
    RatFunc,
    SingularMatrixError,
    _is_exact,
    lin_solve,
    mat_add,
    mat_dot,
    mat_eye,
    mat_inv,
    mat_is_zero,
    mat_map,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_zero,
    parse_bivariate,
    ratfunc_matrix_series,
)
from .qspecial import (
    DomainError,
    PoleProximityError,
    log_qpoch_infinite,
    log_theta,
    on_q_lattice,
    q_character,
    q_log,
)
from .rings import (
    LogSeries,
    NilpotentElement,
    QonfError,
    RationalFunctionQ,
    one_like,
    rfq_dot,
    scalar_is_zero,
    zero_like,
)


class DegenerateOperatorError(QonfError):
    """The leading coefficient of a scalar operator vanishes identically."""


class ResonanceError(QonfError):
    """Eigenvalue ratios in q^Z obstruct the Frobenius construction."""

    def __init__(self, message, degree=None):
        super().__init__(message)
        self.degree = degree


class UnsupportedJordanError(QonfError):
    """A(0) is neither diagonalizable-non-resonant nor maximally unipotent."""


# ---------------------------------------------------------------- operators and systems


@dataclass(frozen=True)
class ScalarQOperator:
    """sum_k a_k(Q) sigma^k with rational-function coefficients a_0 .. a_n."""

    coeffs: tuple
    q: object

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1].is_zero:
            raise DegenerateOperatorError("leading coefficient vanishes identically")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def one(self):
        return self.coeffs[0].one


@dataclass(frozen=True)
class QDifferenceSystem:
    """X(qQ) = A(Q) X(Q) with A square over rational functions of Q."""

    A: tuple
    q: object

    @property
    def n(self) -> int:
        return len(self.A)

    @property
    def is_exact(self) -> bool:
        return isinstance(self.q, RationalFunctionQ)

    def matrix_at(self, Q: complex, q_num: complex | None = None):
        """Complex matrix A(Q), with exact q-entries specialized at q_num."""
        q = q_num if q_num is not None else self.q
        return [[_entry_at(a, Q, q) for a in row] for row in self.A]


def _entry_at(entry: RatFunc, Q: complex, q_num) -> complex:
    den = _poly_at(entry.den, Q, q_num)
    if not den:
        raise PoleProximityError(f"Q = {Q} is a pole of an entry at q = {q_num}")
    return _poly_at(entry.num, Q, q_num) / den


def _poly_at(p: Poly, Q: complex, q_num) -> complex:
    """sum_k c_k Q^k, added left to right from the int 0 as sum() adds."""
    acc = 0
    for k, c in enumerate(p.coeffs):
        acc += _to_complex(c, q_num) * Q**k
    return acc


def _to_complex(x, q_num) -> complex:
    """A scalar as a complex number, with an exact q specialized at q_num."""
    if isinstance(x, RationalFunctionQ):
        return x.evaluate_complex(q_num)
    return complex(x)


def companion_system(op: ScalarQOperator) -> QDifferenceSystem:
    """Vectorize a scalar operator: unknowns (f, sigma f, ..., sigma^(n-1) f)."""
    n = op.order
    if n == 0:
        raise DegenerateOperatorError("order-zero operator has no companion system")
    one = op.one
    zero = RatFunc.const(zero_like(one), one)
    unit = RatFunc.const(one, one)
    rows = []
    for i in range(n - 1):
        rows.append([unit if j == i + 1 else zero for j in range(n)])
    an = op.coeffs[n]
    rows.append([-(op.coeffs[k] / an) for k in range(n)])
    return QDifferenceSystem(tuple(tuple(r) for r in rows), op.q)


def is_regular_singular_at_0(op: ScalarQOperator) -> bool:
    """Valuation criterion: val(a_0) = val(a_n) and val(a_k) >= val(a_n)."""
    vn = op.coeffs[-1].valuation_at_0
    v0 = op.coeffs[0].valuation_at_0
    if v0 is None or v0 != vn:
        return False
    for a in op.coeffs[1:-1]:
        v = a.valuation_at_0
        if v is not None and v < vn:
            return False
    return True


def gauge_transform(P, sys: QDifferenceSystem) -> QDifferenceSystem:
    """(sigma P) A P^{-1}: solutions transform as X -> P X."""
    sigP = mat_map(P, lambda f: f.scale_argument(sys.q))  # Q -> qQ
    try:
        Pinv = mat_inv(P)
    except SingularMatrixError as exc:
        raise SingularMatrixError("gauge matrix is singular") from exc
    B = mat_mul(mat_mul(sigP, [list(row) for row in sys.A]), Pinv)
    return QDifferenceSystem(tuple(tuple(r) for r in B), sys.q)


def q_pullback(sys: QDifferenceSystem, c) -> QDifferenceSystem:
    """Pullback along Q -> c Q: the matrix becomes A(Q/c)."""
    inv = one_like(c) / c
    B = mat_map(sys.A, lambda f: f.scale_argument(inv))
    return QDifferenceSystem(tuple(tuple(r) for r in B), sys.q)


# ---------------------------------------------------------------- normalization


@dataclass(frozen=True)
class ConstantPart:
    """The constant matrix M0 of a system, split once as lam I + N.

    ``nilpotent`` holds when the scalars are exact and N = M0 - lam I is
    nilpotent, with lam = trace(M0)/n the single eigenvalue.  ``order`` is
    then an index order in which N is strictly upper triangular, a
    topological order of N's nonzero pattern (the graph l -> j for
    N[l][j] != 0), when that pattern has no cycle, which is so for every
    builtin system; a cyclic pattern is nilpotent with ``order`` None.

    Otherwise (floating scalars, or several eigenvalues) lam = 0, N = M0.
    A 1 x 1 exact M0 is always nilpotent with N = 0.
    """

    lam: object
    N: list
    nilpotent: bool
    order: tuple | None = None

    @classmethod
    def of(cls, M0, one) -> "ConstantPart":
        n = len(M0)
        if _is_exact(one):
            trace = M0[0][0]
            for i in range(1, n):
                trace = trace + M0[i][i]
            lam = trace / (n * one)
            N = [[x - lam if i == j else x for j, x in enumerate(row)] for i, row in enumerate(M0)]
            order = _triangular_order(N)
            if order is not None:
                return cls(lam, N, True, order=order)
            power = N
            for _ in range(n - 1):
                power = mat_mul(power, N)
            if mat_is_zero(power):
                return cls(lam, N, True)
        return cls(zero_like(one), M0, False)


def _triangular_order(N):
    """A topological order of the graph l -> j, N[l][j] != 0 (each step takes
    the first index with no edge from the indices left), or None when the
    graph has a cycle."""
    order, left = [], list(range(len(N)))
    while left:
        j = next((j for j in left if all(scalar_is_zero(N[l][j]) for l in left)), None)
        if j is None:
            return None
        order.append(j)
        left.remove(j)
    return tuple(order)


def solve_sylvester(c, s, part: ConstantPart, pairs):
    """The matrix X with c X + s X N - N X = R, for N = ``part.N`` and
    R = sum_k A_k B_k over the matrix pairs (A_k, B_k), as in :func:`mat_dot`.

    Both normalizers solve one such equation per degree m: the q side's
    q^m X A0 - A0 X has c = lam (q^m - 1), s = q^m, and the ODE side's
    m X + X B0 - B0 X has c = m, s = 1 (lam cancels there).

    When N has an ``order``, the solve is the triangular back-substitution
    of Bartels and Stewart (*Comm. ACM* 15, 1972).  In that order, N is
    strictly upper triangular, so entry (i, j) of the equation reads

        c X_ij = R_ij - sum_{l before j} X_il (s N_lj) + sum_{l after i} N_il X_lj,

    and taking the columns j in that order and, within a column, the rows i
    in reverse order finds every X on the right already solved.  Each entry
    is then one :func:`rfq_dot` over R's pairs and the nonzero N terms,
    divided by c: one reduction, not one per ``+``.  The canonical pair is
    unique, so the entry equals any other exact evaluation of the same
    sum.  Any other N (floating, several eigenvalues, or a cyclic nilpotent
    pattern) goes through Gauss-Jordan on the vectorized n^2 x n^2 system,
    with R formed by :func:`mat_dot`.  A singular operator raises
    :class:`SingularMatrixError`.
    """
    n, N = len(part.N), part.N
    if part.order is None:
        R = mat_dot(pairs, n, one_like(c))
        zero = zero_like(R[0][0])
        big = [[zero] * (n * n) for _ in range(n * n)]
        for i in range(n):
            for j in range(n):
                row = i * n + j
                big[row][row] = big[row][row] + c
                for k in range(n):
                    big[row][i * n + k] = big[row][i * n + k] + s * N[k][j]
                    big[row][k * n + j] = big[row][k * n + j] - N[i][k]
        sol = lin_solve(big, [[x for row in R for x in row]])[0]
        return [sol[i * n:(i + 1) * n] for i in range(n)]
    if scalar_is_zero(c):
        raise SingularMatrixError("c = 0 with a nilpotent N")
    into = [[] for _ in range(n)]  # into[j]: (l, -s N_lj), l before j
    out_of = [[] for _ in range(n)]  # out_of[i]: (l, N_il), l after i
    for l, row in enumerate(N):
        for j, v in enumerate(row):
            if not scalar_is_zero(v):
                into[j].append((l, -(s * v)))
                out_of[l].append((j, v))
    cols = [list(zip(*B)) for _, B in pairs]
    X = [[zero_like(c)] * n for _ in range(n)]
    for j in part.order:
        for i in reversed(part.order):
            terms = [t for (A, _), cB in zip(pairs, cols) for t in zip(A[i], cB[j])]
            terms += [(X[i][l], w) for l, w in into[j]]
            terms += [(v, X[l][j]) for l, v in out_of[i]]
            if terms:
                X[i][j] = rfq_dot(terms) / c
    return X


def _series_at_0(sys: QDifferenceSystem, D: int):
    """A as a matrix series through Q^D, and A(0) split by
    :meth:`ConstantPart.of` and checked invertible: lam I + N with N
    nilpotent is invertible exactly when lam != 0, and any other A(0) is
    inverted to find out."""
    Aser = ratfunc_matrix_series([list(r) for r in sys.A], D)
    part = ConstantPart.of(Aser.terms[0], Aser.one)
    try:
        if not part.nilpotent:
            mat_inv(Aser.terms[0])
        elif scalar_is_zero(part.lam):
            raise SingularMatrixError("lam = 0")
    except SingularMatrixError as exc:
        raise DomainError("A(0) is not invertible") from exc
    return Aser, part


def _q_coeffs(part: ConstantPart, q):
    """(c, s) of degree m on the q side: q^m X A0 - A0 X for A0 = lam I + N."""

    def coeffs(m):
        qm = q**m
        return part.lam * (qm - one_like(qm)), qm

    return coeffs


def solve_gauge(Mser: MatrixSeries, part: ConstantPart, D: int, coeffs,
                what: str) -> MatrixSeries:
    """The series X with X(0) = I and, for m = 1..D,
    c X_m + s X_m N - N X_m = sum_{k=1..m} M_k X_{m-k}, (c, s) = coeffs(m).

    ``part`` splits M_0; zero terms M_k are skipped.  Degree m hands the
    products (M_k, X_{m-k}) to :func:`solve_sylvester` unsummed, so each
    entry of X_m is one reduced sum over them and the solved entries.  The
    q side's inverse gauge and the ODE side's gauge are both this
    recursion.  A singular degree raises :class:`ResonanceError`
    ("<what> at degree m").
    """
    one = Mser.one
    n = Mser.dim
    nonzero = [k for k in Mser.nonzero_degrees() if 1 <= k <= D]
    X = [mat_eye(n, one)]
    for m in range(1, D + 1):
        c, s = coeffs(m)
        try:
            X.append(solve_sylvester(c, s, part, [(Mser.terms[k], X[m - k])
                                                  for k in nonzero if k <= m]))
        except SingularMatrixError as exc:
            raise ResonanceError(f"{what} at degree {m}", degree=m) from exc
    return MatrixSeries(X, one)


def gauge_residual(Mser: MatrixSeries, X: MatrixSeries, right) -> MatrixSeries:
    """sum_{k=0..m} M_k X_{m-k} - X_m W_m, W_m = right(m), for each degree m
    of X: one :func:`mat_dot` each, zero when X solves its gauge equation.

    The q side's A G = (sigma G) A0 has W_m = q^m A0, the ODE side's
    B P = Q P' + P B0 has W_m = m I + B0; callers build W_m from M_0, not
    from the solver's :class:`ConstantPart`.  No series inverse is needed:
    modulo Q^(D+1), with G(0) = I and F = G^{-1}, R_G = A G - (sigma G) A0
    and the F-form R_F = (sigma F) A - A0 F of :func:`gauge_residual_series`
    satisfy R_G = (sigma G) R_F G and R_F = (sigma F) R_G F, so one is zero
    exactly when the other is.
    """
    nonzero = Mser.nonzero_degrees()
    return MatrixSeries(
        [mat_dot([(Mser.terms[k], X.terms[m - k]) for k in nonzero if k <= m]
                 + [(X.terms[m], mat_map(right(m), lambda x: -x))], X.dim, X.one)
         for m in range(X.truncation + 1)],
        X.one)


def normalize_to_constant(sys: QDifferenceSystem, D: int):
    """Gauge F with F(0) = I and (sigma F) A F^{-1} = A(0) + O(Q^(D+1)).

    Returns (F, A(0)).  F takes solutions X of the system to solutions F X
    of the constant system A(0).  Degree m of F solves
    q^m F_m A0 - A0 F_m = -sum_{k<m} q^k F_k A_{m-k} by
    :func:`solve_sylvester`; a singular solve means a resonant exponent and
    raises :class:`ResonanceError` naming the degree.
    :func:`frobenius_solution` solves for F^{-1} on its own, so F is the
    tests' independent reference for that gauge.
    """
    n = sys.n
    one = sys.A[0][0].one
    Aser, part = _series_at_0(sys, D)
    coeffs = _q_coeffs(part, sys.q)
    nonzero = set(Aser.nonzero_degrees())
    F = [mat_eye(n, one)]
    scaled = []  # -q^k F_k, formed once for every later degree
    qk = -one
    for m in range(1, D + 1):
        scaled.append(mat_scale(F[m - 1], qk))
        qk = qk * sys.q
        c, s = coeffs(m)
        try:
            F.append(solve_sylvester(c, s, part, [(scaled[k], Aser.terms[m - k])
                                                  for k in range(m) if m - k in nonzero]))
        except SingularMatrixError as exc:
            raise ResonanceError(f"resonant exponent at degree {m}", degree=m) from exc
    return MatrixSeries(F, one), Aser.terms[0]


def gauge_residual_series(sys: QDifferenceSystem, F: MatrixSeries, A0) -> MatrixSeries:
    """(sigma F) A - A0 F as a matrix series (zero through the truncation).

    Degree m is one :func:`mat_dot`: the products (sigma F)_k A_{m-k} over
    the nonzero A_{m-k}, then (-A0) F_m.
    """
    D = F.truncation
    Aser = ratfunc_matrix_series([list(r) for r in sys.A], D)
    nonzero = set(Aser.nonzero_degrees())
    sF = F.sigma(sys.q)
    neg_A0 = mat_map(A0, lambda x: -x)
    return MatrixSeries(
        [mat_dot([(sF.terms[k], Aser.terms[m - k]) for k in range(m + 1) if m - k in nonzero]
                 + [(neg_A0, F.terms[m])], F.dim, F.one)
         for m in range(D + 1)],
        F.one)


# ---------------------------------------------------------------- fundamental solutions


def _q_character(lam, q, Q: complex) -> complex:
    return q_character(_to_complex(lam, q), q, Q)


@dataclass
class FundamentalSolutionAt0:
    """Structured solution X = G(Q) * (character part) * exp(log(Q) N).

    ``gauge`` is the series G with G(0) = I.  The constant factor is
    V diag(character(lam_i)) V^{-1} for kind "diagonalizable",
    exp(log(Q) N) for "unipotent" (A(0) = exp N), and
    character(lam) exp(log(Q) N) for "nilpotent" (lam I + N), with
    N = ``nilpotent_log``.  Each side of the confluence supplies its scalar
    pair, called as ``character(lam, q, Q)`` and ``logarithm(q, Q)``: the q
    side's e_{q,lam} and qlog, or the ODE side's Q^lam and log Q cut along
    the spiral (-1) q^R (:func:`qonf.confluence.ode_frobenius_solution`).
    ``q`` is the numeric q that ``eval`` uses when none is given; the gauge
    and the nilpotent log are converted to complex once per q.
    """

    sys: object  # QDifferenceSystem, or a confluence.ODESystem
    gauge: MatrixSeries
    kind: str  # "diagonalizable" | "unipotent" | "nilpotent"
    eigenvalues: list
    q: object
    basis: object = None  # numpy array for the diagonalizable case
    nilpotent_log: object = None  # matrix N for the unipotent and nilpotent cases
    character: object = _q_character
    logarithm: object = q_log
    _numeric_cache: dict = field(default_factory=dict, repr=False)

    def _numeric(self, q_num: complex) -> tuple:
        """The gauge and the nilpotent log (None for "diagonalizable") at q_num."""
        if q_num not in self._numeric_cache:
            gauge = self.gauge.map_entries(lambda c: _to_complex(c, q_num), 1 + 0j)
            log = None if self.nilpotent_log is None else np.array(
                [[_to_complex(x, q_num) for x in row] for row in self.nilpotent_log],
                dtype=complex)
            self._numeric_cache[q_num] = gauge, log
        return self._numeric_cache[q_num]

    def eval(self, Q: complex, q_num: complex | None = None):
        """Complex value of the fundamental solution matrix at Q."""
        q = q_num if q_num is not None else self.q
        if isinstance(q, RationalFunctionQ):
            raise DomainError("numeric evaluation of an exact system needs q_num")
        gauge, Nm = self._numeric(q)
        G = gauge.evaluate(complex(Q))
        if self.kind == "diagonalizable":
            V = self.basis
            chars = np.diag([self.character(lam, q, Q) for lam in self.eigenvalues])
            E = V @ chars @ np.linalg.inv(V)
        else:
            E = _nilpotent_exp(self.logarithm(q, Q) * Nm)
            if self.kind == "nilpotent":
                E = self.character(self.eigenvalues[0], q, Q) * E
        return np.array(G, dtype=complex) @ E

    def shift_residual(self, Q: complex, q_num: complex | None = None) -> float:
        """max-norm of X(qQ) - A(Q) X(Q), relative to the size of X (q side)."""
        q = q_num if q_num is not None else self.q
        X = self.eval(Q, q_num)
        Xq = self.eval(q * Q, q_num)
        A = np.array(self.sys.matrix_at(Q, q_num), dtype=complex)
        return float(np.abs(Xq - A @ X).max() / max(np.abs(X).max(), 1e-300))

    def derivative_residual(self, Q: complex) -> float:
        """|Q X'(Q) - B(Q) X(Q)| by central differences, relative (ODE side)."""
        h = 1e-6
        Xp = (self.eval(Q * (1 + h)) - self.eval(Q * (1 - h))) / (2 * h)
        X = self.eval(Q)
        B = np.array(self.sys.matrix_at(Q), dtype=complex)
        return float(np.abs(Xp - B @ X).max() / max(np.abs(X).max(), 1e-300))


def _nilpotent_exp(N: np.ndarray) -> np.ndarray:
    n = N.shape[0]
    out = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, n):
        term = term @ N / k
        out = out + term
    return out


def _matrix_log_unipotent(A0, one):
    """log of a unipotent matrix via the terminating Mercator series."""
    n = len(A0)
    U = mat_sub(A0, mat_eye(n, one))
    out = mat_zero(n, one)
    power = mat_eye(n, one)
    for k in range(1, n):
        power = mat_mul(power, U)
        coeff = one / k
        sign = coeff if k % 2 == 1 else -coeff
        out = mat_add(out, mat_scale(power, sign))
    return out


def frobenius_solution(sys: QDifferenceSystem, D: int) -> FundamentalSolutionAt0:
    """Fundamental solution at 0 for the supported Jordan structures of A(0).

    Supported: (a) A(0) diagonalizable with non-resonant eigenvalues, and
    (b) A(0) with the single eigenvalue 1 (maximal unipotent).  Anything else
    raises :class:`UnsupportedJordanError`; an exact A(0) is classified
    before any degree is solved.  The gauge is G = F^{-1} for the F of
    :func:`normalize_to_constant`, but F is never inverted: (sigma F) A = A0 F
    gives (sigma G) A0 = A G, so degree m of G solves
    q^m G_m A0 - A0 G_m = sum_{k=1..m} A_k G_{m-k} (F's operator, with a
    right-hand side free of q-powers), and G(0) = I makes it unique.
    :func:`gauge_residual` checks G with no inverse either.
    """
    Aser, part = _series_at_0(sys, D)
    A0, one = Aser.terms[0], Aser.one
    unipotent = part.nilpotent and part.lam == one_like(one)  # never for numeric q
    if sys.is_exact and not unipotent and sys.n > 1:
        raise UnsupportedJordanError(
            "exact mode handles the maximal-unipotent case (or rank 1); "
            "use a numeric q for the diagonalizable case"
        )
    G = solve_gauge(Aser, part, D, _q_coeffs(part, sys.q), "resonant exponent")
    solution = partial(FundamentalSolutionAt0, sys, G, q=sys.q)
    if not sys.is_exact:
        lams, V = np.linalg.eig(np.array([[complex(x) for x in row] for row in A0], dtype=complex))
        unipotent = np.all(np.abs(lams - 1.0) < 1e-10 * max(np.abs(lams).max(), 1.0))
    if unipotent:  # a numeric one is 1+0j
        return solution("unipotent", [one_like(one)] * sys.n,
                        nilpotent_log=_matrix_log_unipotent(A0, one))
    if sys.is_exact:  # rank 1
        return solution("diagonalizable", [A0[0][0]], basis=np.array([[1.0 + 0j]]))
    _check_nonresonant_eigs(lams, sys.q)
    if numerically_defective(V):
        raise UnsupportedJordanError("A(0) is numerically defective")
    return solution("diagonalizable", list(lams), basis=V)


def numerically_defective(V) -> bool:
    """Whether an eigenvector matrix V is too ill-conditioned to diagonalize
    with: cond(V) > 1e8."""
    return np.linalg.cond(V) > 1e8


def _check_nonresonant_eigs(lams, q: complex):
    logq = cmath.log(q)
    for i, a in enumerate(lams):
        for j, b in enumerate(lams):
            if i == j:
                continue
            if abs(a) < 1e-300 or abs(b) < 1e-300:
                raise DomainError("A(0) has a numerically zero eigenvalue")
            w = cmath.log(a / b) / logq
            if abs(w.imag) < 1e-8 and abs(w.real - round(w.real)) < 1e-10:
                raise ResonanceError(
                    f"eigenvalue ratio {a / b} lies in q^Z (exponent {round(w.real)})"
                )


# ---------------------------------------------------------------- scalar solutions


def _operator_series(op: ScalarQOperator, D: int):
    return [a.series(D) for a in op.coeffs]


def _eps_solutions(op: ScalarQOperator, ser, D: int, n: int) -> list[LogSeries]:
    """The solutions m! [eps^m] e^(eps L) F, m < n, of ``op`` (coefficient
    series ``ser``; see :func:`frobenius_log_solutions`).

    With P_i(x) = sum_k a_(k,i) x^k and z_j = q^j e^eps, the Q^d coefficient
    of the twisted operator gives u_d = -(sum_(i>=1) P_i(z_(d-i)) u_(d-i)) /
    P_0(z_d); each eps^s coefficient of P_i(z_j) is one dot product
    sum_k a_(k,i) q^(kj) k^s/s!, and the division is solved for
    eps^0, eps^1, ... in turn.  Where the constant term of P_0(z_d)
    vanishes, :class:`ResonanceError` names the degree d.
    """
    one = op.one
    powers = [one]  # q^0 .. q^(order D)
    for _ in range(op.order * D):
        powers.append(powers[-1] * op.q)
    # a_(k,i) k^s/s!: the eps^s coefficients of a_(k,i) e^(k eps), a_(k,i) != 0
    columns = [[(k, [ak[i] * Fraction(k**s, math.factorial(s)) for s in range(n)])
                for k, ak in enumerate(ser) if not scalar_is_zero(ak[i])] for i in range(D + 1)]

    def at(i, j):  # P_i(q^j e^eps)
        return NilpotentElement(n - 1, [rfq_dot([(cs[s], powers[k * j]) for k, cs in columns[i]])
                                        for s in range(n)])

    u = [NilpotentElement.from_scalar(n - 1, one)]
    for d in range(1, D + 1):
        p = at(0, d).coeffs
        if scalar_is_zero(p[0]):
            raise ResonanceError(f"vanishing indicial factor at degree {d}", degree=d)
        rhs = NilpotentElement.from_scalar(n - 1, zero_like(one))
        for i in range(1, d + 1):
            if columns[i]:
                rhs = rhs + at(i, d - i) * u[d - i]
        ud = []
        for t in range(n):
            pairs = [(one, rhs.coeffs[t])] + [(p[s], ud[t - s]) for s in range(1, t + 1)]
            ud.append(-rfq_dot(pairs) / p[0])
        u.append(NilpotentElement(n - 1, ud))
    solutions = []
    for m in range(n):
        weights = [math.factorial(m) // math.factorial(j) for j in range(m + 1)]
        solutions.append(LogSeries(D, [
            NilpotentElement(0, [Poly([ud.coeffs[m - j] * w for j, w in enumerate(weights)], one)])
            for ud in u]))
    return solutions


def solve_scalar_series(op: ScalarQOperator, D: int) -> LogSeries:
    """Unique Taylor solution with f_0 = 1 through order D, as a
    :class:`LogSeries` of nilpotent order 0 and L-degree 0.

    It is the eps-recursion of :func:`frobenius_log_solutions` over
    R[eps]/(eps): f_d = -(sum_(i>=1) P_i(q^(d-i)) f_(d-i)) / P_0(q^d).
    Raises :class:`ResonanceError` naming the degree if the indicial factor
    P_0(q^d) vanishes at some 1 <= d <= D, and naming degree 0 if it does not
    vanish at d = 0: the Q^0 equation P_0(1) f_0 = sum_k a_k(0) f_0 = 0 then
    has no solution with f_0 = 1.
    """
    ser = _operator_series(op, D)
    (solution,) = _eps_solutions(op, ser, D, 1)
    if not scalar_is_zero(sum((ak[0] for ak in ser[1:]), ser[0][0])):
        raise ResonanceError("nonzero indicial factor at degree 0: no Taylor solution has f_0 = 1",
                             degree=0)
    return solution


def _indicial_is_maximal_unipotent(op_series, one, order) -> bool:
    """Whether the indicial polynomial is c (1 - x)^n, i.e. all roots are 1."""
    iota = [ak[0] for ak in op_series]
    c = iota[0]
    if scalar_is_zero(c):
        return False
    for k, ik in enumerate(iota):
        want = c * (math.comb(order, k) * (-1) ** k)
        if not _is_exact(one):
            if abs(ik - want) > 1e-10 * max(abs(c), 1.0):
                return False
        elif ik != want:
            return False
    return True


def frobenius_log_solutions(op: ScalarQOperator, D: int) -> list[LogSeries]:
    """The n log-series solutions of a maximal-unipotent scalar operator.

    sigma sends e^(eps L) to e^eps e^(eps L), so when F = sum_d u_d(eps) Q^d,
    u_0 = 1, solves the twisted operator sum_k a_k(Q) (e^eps sigma)^k over
    R[eps]/(eps^n), one recursion in d, each eps-coefficient of e^(eps L) F
    solves the operator.  Solution m is m! [eps^m] e^(eps L) F =
    sum_(j<=m) (m!/j!) u_(m-j)(Q) L^j: L-degree m, Q^0 part L^m, and
    leading L-coefficient u_0, the Taylor solution.  Mixed indicial roots
    are not handled here; use :func:`frobenius_solution` on the companion
    system instead.
    """
    ser = _operator_series(op, D)
    if not is_regular_singular_at_0(op):
        raise DomainError("operator is not regular singular at 0")
    if not _indicial_is_maximal_unipotent(ser, op.one, op.order):
        raise UnsupportedJordanError("indicial roots are not all equal to 1")
    return _eps_solutions(op, ser, D, op.order) if op.order else []


# ---------------------------------------------------------------- q-hypergeometric


@dataclass(frozen=True)
class QHypergeometricSpec:
    """Parameter lists (a_1..a_r; b_1..b_s) of a q-hypergeometric series."""

    upper: tuple
    lower: tuple

    @property
    def r(self) -> int:
        return len(self.upper)

    @property
    def s(self) -> int:
        return len(self.lower)


def qhg_coefficients(spec: QHypergeometricSpec, q: complex, D: int) -> list[complex]:
    """Taylor coefficients via the term ratio

    f_{d+1}/f_d = (-q^d)^(1+s-r) prod(1 - a_i q^d) / ((1 - q^(d+1)) prod(1 - b_j q^d)).
    """
    e = 1 + spec.s - spec.r
    for b in spec.lower:
        if on_q_lattice(b, q, 1e-9) and abs(b) >= 1 - 1e-12:
            raise PoleProximityError(f"lower parameter {b} lies in q^(Z<=0)")
    out = [1.0 + 0j]
    qd = 1.0 + 0j
    for d in range(D):
        num = 1.0 + 0j
        for a in spec.upper:
            num *= 1.0 - a * qd
        den = 1.0 - q * qd
        for b in spec.lower:
            den *= 1.0 - b * qd
        if den == 0:
            raise PoleProximityError(f"vanishing denominator at degree {d + 1}")
        if e < 0:
            den *= (-qd) ** (-e)
            if den == 0:  # q^d underflowed: the coefficient is past the largest float
                raise OverflowError(f"the coefficient of degree {d + 1}")
        ratio = (-qd) ** e * num / den if e >= 0 else num / den
        out.append(out[-1] * ratio)
        qd *= q
    return out


def qhg_operator(spec: QHypergeometricSpec, q: complex) -> ScalarQOperator:
    """The q-difference operator annihilating the series (needs r <= s+1):

    Q (-sigma)^(1+s-r) prod(1 - a_i sigma) - (1 - sigma) prod(1 - (b_j/q) sigma).
    """
    e = 1 + spec.s - spec.r
    if e < 0:
        raise DomainError("operator form requires r <= s + 1")
    one = 1.0 + 0j
    t1 = Poly([0j] * e + [(-1.0 + 0j) ** e], one)
    for a in spec.upper:
        t1 = t1 * Poly([one, -a], one)
    t2 = Poly([one, -one], one)
    for b in spec.lower:
        t2 = t2 * Poly([one, -b / q], one)
    Qvar = Poly.variable(one)
    # both products have degree e + r = 1 + s before zero parameters strip any
    # top coefficient, so the order does not depend on the parameter values
    return ScalarQOperator(
        tuple(RatFunc(Qvar * t1.coeff(k) - Poly.const(t2.coeff(k), one))
              for k in range(spec.s + 2)),
        q,
    )


@dataclass
class QHGSolution:
    """Numerically evaluable basis solution: theta prefactor times a series.

    The value is theta_q(mu Q)/theta_q(nu Q) * series(argument), where the
    argument is Q itself or c/Q for the basis at infinity.
    """

    spec: QHypergeometricSpec
    q: complex
    truncation: int
    prefactor: tuple | None  # (mu, nu) or None
    reciprocal_coefficient: complex | None  # None => argument is Q
    label: str
    _coeffs: list = None

    def __post_init__(self):
        if self._coeffs is None:
            self._coeffs = qhg_coefficients(self.spec, self.q, self.truncation)

    def series_value(self, w: complex) -> complex:
        if abs(w) > 0.95:
            raise DomainError(f"series argument |{w}| too close to the unit circle")
        acc = 0j
        for c in reversed(self._coeffs):
            acc = acc * w + c
        return acc

    def eval(self, Q: complex) -> complex:
        w = Q if self.reciprocal_coefficient is None else self.reciprocal_coefficient / Q
        val = self.series_value(w)
        if self.prefactor is not None:
            mu, nu = self.prefactor
            val *= cmath.exp(log_theta(self.q, mu * Q) - log_theta(self.q, nu * Q))
        return val

    def __call__(self, Q: complex) -> complex:
        return self.eval(Q)


def qhg_bases(spec: QHypergeometricSpec, q: complex, D: int):
    """Solution bases at 0 and at infinity for the regular-singular case r = s+1.

    Each entry evaluates numerically; the first element of the basis at 0 is
    the plain q-hypergeometric series.
    """
    if spec.r != spec.s + 1:
        raise DomainError("regular-singular bases require r = s + 1")
    if any(x == 0 for x in spec.upper + spec.lower):
        raise DomainError("basis construction requires nonzero parameters")
    for name, params in (("upper", spec.upper), ("lower", spec.lower)):
        for i, x in enumerate(params):
            for y in params[i + 1 :]:
                if on_q_lattice(x / y, q, 1e-9):
                    raise ResonanceError(f"{name} parameter ratio {x / y} lies in q^Z")
    for b in spec.lower:
        if on_q_lattice(b, q, 1e-9):
            raise ResonanceError(f"lower parameter {b} lies in q^Z")

    basis0 = [QHGSolution(spec, q, D, None, None, "series")]
    for j, bj in enumerate(spec.lower):
        upper = tuple(q * a / bj for a in spec.upper)
        lower = (q * q / bj,) + tuple(q * b / bj for k, b in enumerate(spec.lower) if k != j)
        basis0.append(
            QHGSolution(
                QHypergeometricSpec(upper, lower), q, D,
                (-bj / q, -1.0 + 0j), None, f"theta[{j}]",
            )
        )
    arg = q
    for b in spec.lower:
        arg *= b
    for a in spec.upper:
        arg /= a
    basis_inf = []
    for i, ai in enumerate(spec.upper):
        upper = (ai,) + tuple(ai * q / b for b in spec.lower)
        lower = tuple(ai * q / a for k, a in enumerate(spec.upper) if k != i)
        basis_inf.append(
            QHGSolution(
                QHypergeometricSpec(upper, lower), q, D,
                (-ai, -1.0 + 0j), arg, f"inf[{i}]",
            )
        )
    return basis0, basis_inf


def operator_residual(op: ScalarQOperator, f, Q: complex, q_num: complex | None = None) -> float:
    """Relative residual |sum a_k(Q) f(q^k Q)| at a sample point."""
    q = q_num if q_num is not None else op.q
    return _residual([_entry_at(a, Q, q) for a in op.coeffs], f, Q, q)


def _residual(values, f, Q: complex, q: complex) -> float:
    """|sum_k c_k f(q^k Q)| over max_k |c_k f(q^k Q)|, for the values c_k of
    an operator's coefficients at Q."""
    acc = 0j
    scale = 0.0
    arg = complex(Q)
    for c in values:
        v = f(arg)
        acc += c * v
        scale = max(scale, abs(c) * abs(v))
        arg *= q
    return abs(acc) / max(scale, 1e-300)


def casoratian(evaluators, q: complex, Q: complex) -> complex:
    """det [f_j(q^k Q)]: nonzero iff the solutions are independent over q-constants."""
    n = len(evaluators)
    M = np.empty((n, n), dtype=complex)
    arg = complex(Q)
    for k in range(n):
        for j, f in enumerate(evaluators):
            M[k, j] = f(arg)
        arg *= q
    return complex(np.linalg.det(M))


# ---------------------------------------------------------------- rank 1 and Birkhoff


@dataclass
class Rank1ProductSolution:
    """e_{q,lam}(Q) prod (beta_i Q;q)_inf / prod (alpha_i Q;q)_inf.

    Solves f(qQ) = lam prod(1 - alpha_i Q)/prod(1 - beta_i Q) f(Q).
    """

    lam: complex
    alphas: tuple
    betas: tuple
    q: complex

    def log_eval(self, Q: complex) -> complex:
        if Q == 0:
            raise DomainError("Q must be nonzero")
        total = 0j
        if self.lam != 1:
            total += log_theta(self.q, Q) - log_theta(self.q, self.lam * Q)
        for b in self.betas:
            total += log_qpoch_infinite(b * Q, self.q, 1e-13)
        for a in self.alphas:
            la = log_qpoch_infinite(a * Q, self.q, 1e-13)
            if la == complex("-inf"):
                raise PoleProximityError(f"pole: {a}*Q hits q^(-N)")
            total -= la
        return total

    def eval(self, Q: complex) -> complex:
        return cmath.exp(self.log_eval(Q))

    def __call__(self, Q: complex) -> complex:
        return self.eval(Q)


def rank1_product_solution(lam, alphas, betas, q) -> Rank1ProductSolution:
    if any(a == 0 for a in alphas) or any(b == 0 for b in betas):
        raise DomainError("parameters must be nonzero")
    return Rank1ProductSolution(complex(lam), tuple(alphas), tuple(betas), complex(q))


# ---------------------------------------------------------------- JSON interchange


def _json_index(value, what: str) -> int:
    # bool is an int subclass, and int() would truncate 1.5 or parse "1"
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def system_from_json(doc: dict, max_exponents: tuple[int, int] | None = None,
                     max_n: int | None = None) -> QDifferenceSystem:
    """The system of a JSON document; ``max_exponents`` caps the powers in
    its entries as in :func:`qonf.polyq.parse_bivariate`, and ``max_n`` caps
    the size n before the n x n matrix is built.  A ValueError names the
    field at fault; a document of the wrong shape raises KeyError or
    TypeError."""
    n = _json_index(doc["n"], "system size n")
    if n < 1:
        raise ValueError(f"system size n = {n} must be at least 1")
    if max_n is not None and n > max_n:
        raise ValueError(f"system size n = {n} exceeds the limit {max_n}")
    one = RationalFunctionQ.one()
    zero = RatFunc.const(RationalFunctionQ.zero(), one)
    A = [[zero for _ in range(n)] for _ in range(n)]
    for k, e in enumerate(doc["entries"]):
        i, j = _json_index(e["i"], "entry index i"), _json_index(e["j"], "entry index j")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"entry index ({i}, {j}) outside 0..{n - 1}")
        f = None
        for name in ("entry",) if "entry" in e else ("num", "den"):
            text = e.get(name)
            try:
                if not isinstance(text, str):
                    raise ValueError(f"expected a string, got {text!r}" if name in e else "missing")
                g = parse_bivariate(text, max_exponents)
                f = g if f is None else f / g
            except (ValueError, ZeroDivisionError, RecursionError) as exc:
                raise ValueError(f'entry {k} (i = {i}, j = {j}), field "{name}": {exc}') from None
        A[i][j] = f
    qdoc = doc["q"]
    if qdoc == "q":
        return QDifferenceSystem(tuple(tuple(r) for r in A), RationalFunctionQ.q())
    try:
        q_num = complex(*qdoc) if isinstance(qdoc, list) and len(qdoc) == 2 else complex(qdoc)
    except ValueError:
        raise ValueError(f'"q" must be "q", a number or [re, im], got {qdoc!r}') from None
    B = mat_map(
        A, lambda f: f.map_coeffs(lambda c: c.evaluate_complex(q_num), 1 + 0j)
    )
    return QDifferenceSystem(tuple(tuple(r) for r in B), q_num)
