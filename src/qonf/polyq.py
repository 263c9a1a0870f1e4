"""Rational functions in the equation variable Q.

Numerators and denominators are :class:`qonf.rings.Poly` over duck-typed
scalars from any of the package's rings (Fraction, RationalFunctionQ,
complex); each container carries a ring unit so that zeros and ones of the
right type can be produced.  Exact scalar types get eager gcd reduction of
rational functions; floating scalars skip reduction (degrees stay small in
every numeric code path).

Also provides the little dense linear algebra used by the solvers: generic
matrix products, Gauss-Jordan inversion, and linear solves over any field of
scalars, plus truncated matrix power series.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .rings import Poly, QonfError, RationalFunctionQ, one_like, rfq_dot, scalar_is_zero, zero_like


_ZERO_DIVISOR = "division by the zero rational function"


def _is_exact(one) -> bool:
    return not isinstance(one, (float, complex))


class RatFunc:
    """Quotient of two :class:`Poly`; reduced eagerly over exact scalar rings."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None, *, _canonical=False):
        if den is None:
            den = Poly([num.one], num.one)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if not _canonical:
            if num.is_zero:
                den = Poly([num.one], num.one)
            elif _is_exact(num.one):
                # against a constant the gcd is a constant: nothing cancels
                if num.degree and den.degree:
                    g = num.gcd(den)
                    if g.degree > 0:
                        num = num.divmod(g)[0]
                        den = den.divmod(g)[0]
                lc = den.coeffs[-1]
                if lc != one_like(lc):
                    inv = one_like(lc) / lc
                    num, den = num * inv, den * inv
        self.num, self.den = num, den

    @classmethod
    def const(cls, c, one=None) -> "RatFunc":
        one = one if one is not None else one_like(c)
        return cls(Poly([c], one), Poly([one], one), _canonical=True)

    @classmethod
    def variable(cls, one) -> "RatFunc":
        return cls(Poly.variable(one), Poly([one], one), _canonical=True)

    @property
    def one(self):
        return self.num.one

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def _coerce(self, other) -> "RatFunc":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, Poly):
            return RatFunc(other)
        return RatFunc.const(other * self.one, self.one)

    def _exact_scalar(self, other):
        """other as a scalar of this exact ring when it is an exact constant
        (an int, Fraction, RationalFunctionQ or constant RatFunc), else None.

        Adding such a c, or multiplying or dividing by a nonzero one, keeps
        gcd(num, den) = 1 and the monic denominator, so the result is
        written as its canonical pair with no gcd.  Floating rings keep the
        general path, whose products fix the signs of their zeros.
        """
        if not _is_exact(self.one):
            return None
        if isinstance(other, RatFunc):
            # a constant canonical RatFunc has the denominator 1
            return other.num.coeff(0) if other.num.degree < 1 and not other.den.degree else None
        if isinstance(other, (int, Fraction, RationalFunctionQ)):
            return other * self.one
        return None

    def __add__(self, other):
        c = self._exact_scalar(other)
        if c is not None:
            return RatFunc(self.num + self.den * c, self.den, _canonical=True)
        other = self._coerce(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        c = self._exact_scalar(other)
        if c is not None:
            return RatFunc(self.num - self.den * c, self.den, _canonical=True)
        other = self._coerce(other)
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RatFunc(-self.num, self.den, _canonical=True)

    def __mul__(self, other):
        c = self._exact_scalar(other)
        if c is not None and not scalar_is_zero(c):
            return RatFunc(self.num * c, self.den, _canonical=True)
        other = self._coerce(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = self._exact_scalar(other)
        if c is not None and not scalar_is_zero(c):
            return RatFunc(self.num * (one_like(c) / c), self.den, _canonical=True)
        other = self._coerce(other)
        if other.num.is_zero:
            raise ZeroDivisionError(_ZERO_DIVISOR)
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __eq__(self, other):
        other = self._coerce(other)
        return (self.num * other.den) == (other.num * self.den)

    @property
    def valuation_at_0(self) -> int | None:
        """Q-adic valuation; None for the zero function."""
        if self.num.is_zero:
            return None
        return self.num.valuation - self.den.valuation

    def series(self, D: int) -> list:
        """Taylor coefficients at 0 through order D (needs den(0) != 0).

        Over exact scalars coefficient k is one :func:`qonf.rings.rfq_dot`
        of num_k and the earlier coefficients against den_0^-1 and
        -den_j den_0^-1.  Floating scalars keep the recurrence
        acc - den_j out_{k-j}, padded zeros included, in the same order.
        """
        zero, one = zero_like(self.one), one_like(self.one)
        d0 = self.den.evaluate(zero)
        if scalar_is_zero(d0):
            raise NotAnalyticError("not analytic at 0")
        inv = one / d0
        num = (list(self.num.coeffs) + [zero] * (D + 1))[:D + 1]
        if self.den.degree == 0:
            if _is_exact(one) and inv == one:
                return num
            return [c * inv for c in num]
        if _is_exact(one):
            tail = [-c * inv for c in self.den.coeffs[1:]]
            out = []
            for k in range(D + 1):
                terms = [(c, out[k - 1 - j]) for j, c in enumerate(tail[:k])]
                out.append(rfq_dot([(num[k], inv)] + terms))
            return out
        den = (list(self.den.coeffs) + [zero] * (D + 1))[:D + 1]
        out = []
        for k in range(D + 1):
            acc = num[k]
            for j in range(1, k + 1):
                acc = acc - den[j] * out[k - j]
            out.append(acc * inv)
        return out

    def scale_argument(self, c) -> "RatFunc":
        return RatFunc(self.num.scale_argument(c), self.den.scale_argument(c))

    def map_coeffs(self, fn, one=None) -> "RatFunc":
        return RatFunc(self.num.map_coeffs(fn, one), self.den.map_coeffs(fn, one))

    def __repr__(self):
        return f"RatFunc({self.num!r} / {self.den!r})"


# ---------------------------------------------------------------- matrices


def mat_eye(n: int, one):
    z = zero_like(one)
    return [[one if i == j else z for j in range(n)] for i in range(n)]


def mat_zero(n: int, one):
    z = zero_like(one)
    return [[z for _ in range(n)] for _ in range(n)]


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, s):
    return [[a * s for a in row] for row in A]


def _float_dot(row, col):
    """row . col summed left to right, the rounding every float product keeps."""
    acc = row[0] * col[0]
    for k in range(1, len(col)):
        acc = acc + row[k] * col[k]
    return acc


def mat_mul(A, B):
    """A B; over exact scalars each entry is one :func:`qonf.rings.rfq_dot`."""
    cols = list(zip(*B))
    if _is_exact(A[0][0]):
        return [[rfq_dot(list(zip(row, col))) for col in cols] for row in A]
    return [[_float_dot(row, col) for col in cols] for row in A]


def mat_is_zero(A) -> bool:
    return all(scalar_is_zero(x) for row in A for x in row)


def mat_dot(pairs, n: int, one):
    """sum_k A_k B_k over the n x n matrix pairs (A_k, B_k).

    Over exact scalars each entry is one :func:`qonf.rings.rfq_dot` over
    every k and inner index.  Floating scalars add the products' entries
    in k order, ((A_0 B_0 + A_1 B_1) + A_2 B_2) + ..., the rounding of the
    ``mat_add`` chain of :func:`mat_mul` products, with no matrix in
    between.  An empty sum is the zero matrix.
    """
    if not pairs:
        return mat_zero(n, one)
    cols = [list(zip(*B)) for _, B in pairs]
    if _is_exact(one):
        return [[rfq_dot([t for (A, _), cB in zip(pairs, cols) for t in zip(A[i], cB[j])])
                 for j in range(n)] for i in range(n)]
    rows = [A for A, _ in pairs]
    out = []
    for i in range(n):
        out_row = []
        for j in range(n):
            acc = _float_dot(rows[0][i], cols[0][j])
            for A, cB in zip(rows[1:], cols[1:]):
                acc = acc + _float_dot(A[i], cB[j])
            out_row.append(acc)
        out.append(out_row)
    return out


def mat_map(A, fn):
    return [[fn(a) for a in row] for row in A]


class SingularMatrixError(ZeroDivisionError):
    pass


class NotAnalyticError(QonfError, ZeroDivisionError):
    """A series at Q = 0 of a function with a pole there."""


def _pivot_index(col, start, exact):
    if exact:
        for i in range(start, len(col)):
            if not scalar_is_zero(col[i]):
                return i
        return None
    best, mag = None, 0.0
    for i in range(start, len(col)):
        m = abs(col[i])
        if m > mag:
            best, mag = i, m
    return best if mag > 1e-13 else None


def lin_solve(A, rhs_cols):
    """Solve A X = B by Gauss-Jordan over any field of scalars.

    ``rhs_cols`` is a list of right-hand-side columns; returns the solution
    columns.  Raises :class:`SingularMatrixError` when A is singular.
    """
    n = len(A)
    one = one_like(A[0][0])
    exact = _is_exact(one)
    M = [list(row) + [col[i] for col in rhs_cols] for i, row in enumerate(A)]
    width = n + len(rhs_cols)
    for j in range(n):
        p = _pivot_index([M[i][j] for i in range(n)], j, exact)
        if p is None:
            raise SingularMatrixError(f"singular at column {j}")
        M[j], M[p] = M[p], M[j]
        inv = one / M[j][j]
        M[j] = [x * inv for x in M[j]]
        for i in range(n):
            if i == j:
                continue
            f = M[i][j]
            if scalar_is_zero(f):
                continue
            M[i] = [a - f * b for a, b in zip(M[i], M[j])]
    return [[M[i][n + c] for i in range(n)] for c in range(len(rhs_cols))]


def mat_inv(A):
    n = len(A)
    cols = lin_solve(A, [[one_like(A[0][0]) if i == c else zero_like(A[0][0]) for i in range(n)]
                         for c in range(n)])
    return [[cols[j][i] for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------- matrix series


class MatrixSeries:
    """Truncated power series in Q with square-matrix coefficients.

    ``terms`` is kept as given, not copied, and may share matrices with other
    series (``sigma`` keeps term 0): no code mutates a series' terms, or the
    list it built them in, after construction.
    """

    __slots__ = ("truncation", "terms", "one")

    def __init__(self, terms, one):
        self.terms = terms
        self.truncation = len(terms) - 1
        self.one = one

    @property
    def dim(self) -> int:
        return len(self.terms[0])

    def nonzero_degrees(self) -> list[int]:
        return [m for m, t in enumerate(self.terms) if not mat_is_zero(t)]

    def mul(self, other: "MatrixSeries") -> "MatrixSeries":
        """Truncated product; each degree is one :func:`mat_dot` over the
        pairs of nonzero terms."""
        D = min(self.truncation, other.truncation)
        left = self.nonzero_degrees()
        right = set(other.nonzero_degrees())
        return MatrixSeries(
            [mat_dot([(self.terms[k], other.terms[m - k]) for k in left
                      if k <= m and m - k in right], self.dim, self.one)
             for m in range(D + 1)],
            self.one)

    def inverse(self) -> "MatrixSeries":
        """G = T^{-1} degree by degree: G_m = sum_{k=1..m} H_k G_{m-k} with
        H_k = -T_0^{-1} T_k formed once, so each degree is one :func:`mat_dot`.

        Its callers are perfbench's ``_gauge_identity`` and
        ``tests/test_rings.py::TestFusedMatrixSums``; the package itself checks
        gauges by :func:`qonf.qdiff.gauge_residual`."""
        g0 = mat_inv(self.terms[0])
        neg_g0 = mat_map(g0, lambda x: -x)
        H = {k: mat_mul(neg_g0, self.terms[k]) for k in self.nonzero_degrees() if k}
        out = [g0]
        for m in range(1, self.truncation + 1):
            out.append(mat_dot([(H[k], out[m - k]) for k in H if k <= m], self.dim, self.one))
        return MatrixSeries(out, self.one)

    def sigma(self, q) -> "MatrixSeries":
        """Entrywise dilation: degree-m term scaled by q^m."""
        out, p = [], one_like(q)
        for m, t in enumerate(self.terms):
            out.append(mat_scale(t, p) if m else t)
            p = p * q
        return MatrixSeries(out, self.one)

    def is_zero(self) -> bool:
        return all(mat_is_zero(t) for t in self.terms)

    def map_entries(self, fn, one=None) -> "MatrixSeries":
        return MatrixSeries([mat_map(t, fn) for t in self.terms],
                            one if one is not None else self.one)

    def evaluate(self, x):
        """Horner evaluation entry by entry, acc * x + t from the top term
        down; scalars must support arithmetic with x."""
        n = len(self.terms[0])
        lower = self.terms[-2::-1]
        out = []
        for i in range(n):
            out_row = []
            for j in range(n):
                acc = self.terms[-1][i][j]
                for t in lower:
                    acc = acc * x + t[i][j]
                out_row.append(acc)
            out.append(out_row)
        return out


def ratfunc_matrix_series(A, D: int) -> MatrixSeries:
    """Expand a matrix of rational functions into a truncated matrix series."""
    if D < 0:
        raise ValueError(f"truncation order D = {D} must be at least 0")
    one = A[0][0].one
    per_entry = [[entry.series(D) for entry in row] for row in A]
    terms = [[[per_entry[i][j][m] for j in range(len(A))] for i in range(len(A))]
             for m in range(D + 1)]
    return MatrixSeries(terms, one)


# ---------------------------------------------------------------- parsing


class _Tokens:
    def __init__(self, text: str):
        self.text = text.replace(" ", "")
        self.pos = 0

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self):
        ch = self.peek()
        self.pos += 1
        return ch


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def parse_bivariate(text: str, max_exponents: tuple[int, int] | None = None) -> RatFunc:
    """Parse an expression in q and Q into a RatFunc over RationalFunctionQ.

    Grammar: rationals, the symbols q and Q, parentheses, and + - * / ^.
    With ``max_exponents = (cq, cQ)``, a power b^k whose q-exponent
    (k times the q-degree of b) exceeds cq, or whose Q-exponent (k times the
    Q-degree of b) exceeds cQ, raises ValueError before it is formed.  A
    constant b counts as q-degree 1, since its integers grow with k.

    A node free of Q stays a :class:`RationalFunctionQ`, which RatFunc's
    operators take as a scalar when it meets a node in Q; it becomes a
    constant RatFunc only at the end.  Both forms are canonical, so the
    result is the one every node built as a RatFunc gives, and a zero
    divisor raises RatFunc's error either way.
    """
    one = RationalFunctionQ.one()
    toks = _Tokens(text)

    def combine(a, op, b):
        if op == "/" and not isinstance(b, RatFunc) and b.is_zero:
            raise ZeroDivisionError(_ZERO_DIVISOR)
        return _OPS[op](a, b)

    def expr():
        node = term()
        while toks.peek() and toks.peek() in "+-":
            op = toks.take()
            node = combine(node, op, term())
        return node

    def term():
        node = factor()
        while toks.peek() and toks.peek() in "*/":
            op = toks.take()
            node = combine(node, op, factor())
        return node

    def factor():
        node = base()
        if toks.peek() == "^":
            toks.take()
            sign = 1
            if toks.peek() == "-":
                toks.take()
                sign = -1
            k = integer()
            if max_exponents is not None:
                _check_exponent(node, k, max_exponents)
            power = _ratfunc_pow(node, k) if isinstance(node, RatFunc) else node**k
            node = power if sign * k >= 0 else combine(one, "/", power)
        return node

    def integer():
        digits = ""
        while toks.peek().isdigit():
            digits += toks.take()
        if not digits:
            raise ValueError(f"expected integer at {toks.pos} in {text!r}")
        return int(digits)

    def base():
        ch = toks.peek()
        if ch == "(":
            toks.take()
            node = expr()
            if toks.take() != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return node
        if ch == "-":
            toks.take()
            return -base()
        if ch == "+":
            toks.take()
            return base()
        if ch == "q":
            toks.take()
            return RationalFunctionQ.q()
        if ch == "Q":
            toks.take()
            return RatFunc.variable(one)
        if ch.isdigit() or ch == ".":
            digits = ""
            while toks.peek().isdigit() or toks.peek() == ".":
                digits += toks.take()
            return RationalFunctionQ.from_fraction(Fraction(digits))
        raise ValueError(f"unexpected {f'character {ch!r}' if ch else 'end of input'} in {text!r}")

    node = expr()
    if toks.pos != len(toks.text):
        raise ValueError(f"trailing input in {text!r}")
    return _lift(node, one)


def _lift(node, one) -> RatFunc:
    return node if isinstance(node, RatFunc) else RatFunc.const(node, one)


def _check_exponent(node, k: int, caps) -> None:
    if isinstance(node, RatFunc):
        coeffs = node.num.coeffs + node.den.coeffs
        Q_degree = max(node.num.degree, node.den.degree)
    else:
        coeffs, Q_degree = (node,), 0
    q_degree = max(len(p) for c in coeffs for p in c.integer_pair()) - 1
    if not q_degree and not Q_degree:
        q_degree = 1
    for name, degree, cap in (("q", q_degree, caps[0]), ("Q", Q_degree, caps[1])):
        if k * degree > cap:
            raise ValueError(f"{name}-exponent {k * degree} exceeds the limit {cap}")


def _ratfunc_pow(node: RatFunc, k: int) -> RatFunc:
    """node^k by binary powering."""
    out = RatFunc.const(node.one)
    while k:
        if k & 1:
            out = out * node
        k >>= 1
        if k:
            node = node * node
    return out
