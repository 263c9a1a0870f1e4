"""Exact scalar rings and truncated series.

Three scalar rings appear throughout the package:

* exact rationals (``fractions.Fraction``),
* rational functions of the deformation parameter q (:class:`RationalFunctionQ`),
* complex floats (plain ``complex``).

On top of these sit the truncated nilpotent ring C[eps]/(eps^(N+1))
(:class:`NilpotentElement`), truncated power series in the Novikov variable Q
(:class:`TruncatedQSeries`), and series whose coefficients also carry powers of
an inert log symbol L (:class:`LogSeries`).  L models the q-logarithm: it is
untouched by ring operations and shifts as L -> L+1 under the dilation
Q -> qQ.  Polynomials in L, like those in the equation variable Q, are the
one dense polynomial type :class:`Poly`.

Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from sympy.polys.domains import QQ
from sympy.polys.densearith import (
    dup_add,
    dup_mul,
    dup_mul_ground,
    dup_neg,
    dup_quo_ground,
    dup_sub,
)
from sympy.polys.densebasic import dup_degree, dup_strip
from sympy.polys.densetools import dup_eval
from sympy.polys.euclidtools import dup_inner_gcd


class QonfError(Exception):
    """Base class for errors raised by this package."""


class OrderMismatchError(QonfError):
    """Two nilpotent elements of different truncation order were combined."""


class NonUnitError(QonfError):
    """Inversion was requested for a non-invertible element."""


class LimitUndefinedError(QonfError):
    """A q -> 1 limit does not exist (pole at q = 1 after full cancellation)."""


def _to_qq(x):
    if isinstance(x, Fraction):
        return QQ(x.numerator, x.denominator)
    if isinstance(x, int):
        return QQ(x)
    return x  # already a QQ element


class RationalFunctionQ:
    """Exact rational function of q over the rationals.

    Stored as a reduced fraction of dense polynomials (descending
    coefficients, sympy ``dup`` convention) with gcd(num, den) = 1 and a monic
    denominator.  Reduction happens eagerly after every operation, so
    :meth:`limit_q_to_1` is a pure evaluation.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, *, _canonical=False):
        if den is None:
            den = [QQ(1)]
        if _canonical:
            self.num, self.den = num, den
            return
        num = dup_strip([_to_qq(c) for c in num])
        den = dup_strip([_to_qq(c) for c in den])
        if not den:
            raise ZeroDivisionError("zero denominator polynomial")
        if not num:
            self.num, self.den = [], [QQ(1)]
            return
        _, num, den = dup_inner_gcd(num, den, QQ)
        lc = den[0]
        if lc != QQ(1):
            num = dup_quo_ground(num, lc, QQ)
            den = dup_quo_ground(den, lc, QQ)
        self.num, self.den = num, den

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_fraction(cls, f) -> "RationalFunctionQ":
        f = Fraction(f)
        return cls([QQ(f.numerator, f.denominator)], [QQ(1)], _canonical=bool(f))

    @classmethod
    def zero(cls) -> "RationalFunctionQ":
        return cls([], [QQ(1)], _canonical=True)

    @classmethod
    def one(cls) -> "RationalFunctionQ":
        return cls([QQ(1)], [QQ(1)], _canonical=True)

    @classmethod
    def q(cls) -> "RationalFunctionQ":
        return cls([QQ(1), QQ(0)], [QQ(1)], _canonical=True)

    @classmethod
    def q_power(cls, k: int) -> "RationalFunctionQ":
        """q**k for any integer k (negative exponents give 1/q**|k|)."""
        if k >= 0:
            return cls([QQ(1)] + [QQ(0)] * k, [QQ(1)], _canonical=True)
        return cls([QQ(1)], [QQ(1)] + [QQ(0)] * (-k), _canonical=True)

    @classmethod
    def one_minus_q_pow(cls, k: int) -> "RationalFunctionQ":
        """1 - q**k, k >= 1."""
        return cls([QQ(-1)] + [QQ(0)] * (k - 1) + [QQ(1)], [QQ(1)], _canonical=True)

    # -- ring structure ----------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, RationalFunctionQ):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunctionQ.from_fraction(Fraction(other))
        return NotImplemented

    def _add_sub(self, other, sub: bool):
        # denominators are monic and reduced: work modulo their gcd
        if self.den == other.den:
            comb = dup_sub if sub else dup_add
            return RationalFunctionQ(comb(self.num, other.num, QQ), list(self.den))
        g, da, db = dup_inner_gcd(self.den, other.den, QQ)
        left = dup_mul(self.num, db, QQ)
        right = dup_mul(other.num, da, QQ)
        num = dup_sub(left, right, QQ) if sub else dup_add(left, right, QQ)
        return RationalFunctionQ(num, dup_mul(self.den, db, QQ))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._add_sub(other, sub=False)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._add_sub(other, sub=True)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RationalFunctionQ(dup_neg(self.num, QQ), list(self.den), _canonical=True)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num or not other.num:
            return RationalFunctionQ.zero()
        # cross-cancel to keep intermediate degrees small
        _, n1, d2 = dup_inner_gcd(self.num, other.den, QQ)
        _, n2, d1 = dup_inner_gcd(other.num, self.den, QQ)
        num = dup_mul(n1, n2, QQ)
        den = dup_mul(d1, d2, QQ)
        lc = den[0]
        if lc != QQ(1):
            num = dup_quo_ground(num, lc, QQ)
            den = dup_quo_ground(den, lc, QQ)
        return RationalFunctionQ(num, den, _canonical=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        if not self.num:
            return RationalFunctionQ.zero()
        _, n1, n2 = dup_inner_gcd(self.num, other.num, QQ)
        _, d2, d1 = dup_inner_gcd(other.den, self.den, QQ)
        num = dup_mul(n1, d2, QQ)
        den = dup_mul(d1, n2, QQ)
        lc = den[0]
        if lc != QQ(1):
            num = dup_quo_ground(num, lc, QQ)
            den = dup_quo_ground(den, lc, QQ)
        return RationalFunctionQ(num, den, _canonical=True)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if k < 0:
            return (RationalFunctionQ.one() / self) ** (-k)
        result = RationalFunctionQ.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if len(self.num) <= 1 and len(self.den) == 1:
            # a constant equals the same Fraction, so it must hash like one
            return hash(sum(self.num_fractions(), Fraction(0)))
        return hash((tuple(self.num), tuple(self.den)))

    def __bool__(self):
        return bool(self.num)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def degree_pair(self):
        return dup_degree(self.num), dup_degree(self.den)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point) -> Fraction:
        """Exact evaluation at a rational point (raises on a pole)."""
        p = _to_qq(Fraction(point))
        d = dup_eval(self.den, p, QQ)
        if d == 0:
            raise ZeroDivisionError(f"pole at q = {point}")
        v = dup_eval(self.num, p, QQ) / d
        return Fraction(int(v.numerator), int(v.denominator))

    def evaluate_complex(self, z: complex) -> complex:
        return _horner_complex(self.num, z) / _horner_complex(self.den, z)

    def limit_q_to_1(self) -> Fraction:
        """Exact q -> 1 limit; the reduced form makes this an evaluation."""
        d = dup_eval(self.den, QQ(1), QQ)
        if d == 0:
            raise LimitUndefinedError("pole at q = 1 after cancellation")
        v = dup_eval(self.num, QQ(1), QQ) / d
        return Fraction(int(v.numerator), int(v.denominator))

    # -- misc ----------------------------------------------------------------

    def num_fractions(self):
        return [Fraction(int(c.numerator), int(c.denominator)) for c in self.num]

    def den_fractions(self):
        return [Fraction(int(c.numerator), int(c.denominator)) for c in self.den]

    def __repr__(self):
        n = format_poly(list(reversed(self.num_fractions())), "q")
        if self.den == [QQ(1)]:
            return n
        return f"({n})/({format_poly(list(reversed(self.den_fractions())), 'q')})"


def _horner_complex(dup, z: complex) -> complex:
    acc = 0j
    for c in dup:
        acc = acc * z + complex(Fraction(int(c.numerator), int(c.denominator)))
    return acc


def limit_q_to_1(f) -> Fraction:
    """q -> 1 limit of an exact scalar (Fraction passes through unchanged)."""
    if isinstance(f, RationalFunctionQ):
        return f.limit_q_to_1()
    if isinstance(f, (int, Fraction)):
        return Fraction(f)
    raise TypeError(f"no exact q->1 limit for {type(f)!r}")


# -- generic scalar helpers --------------------------------------------------


def zero_like(x):
    if isinstance(x, RationalFunctionQ):
        return RationalFunctionQ.zero()
    if isinstance(x, Poly):
        return Poly([], x.one)
    if isinstance(x, Fraction):
        return Fraction(0)
    if isinstance(x, complex):
        return 0j
    if isinstance(x, float):
        return 0.0
    return 0


def one_like(x):
    if isinstance(x, RationalFunctionQ):
        return RationalFunctionQ.one()
    if isinstance(x, Poly):
        return Poly([x.one], x.one)
    if isinstance(x, Fraction):
        return Fraction(1)
    if isinstance(x, complex):
        return 1 + 0j
    if isinstance(x, float):
        return 1.0
    return 1


def scalar_is_zero(x) -> bool:
    if isinstance(x, (RationalFunctionQ, Poly)):
        return x.is_zero
    return x == 0


# -- the truncated nilpotent ring --------------------------------------------


class NilpotentElement:
    """Element of R[eps]/(eps^(N+1)) with coefficients in a scalar ring R.

    ``coeffs[k]`` is the coefficient of eps^k; all powers beyond eps^N are
    discarded by every operation.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError(f"need {order + 1} coefficients, got {len(coeffs)}")
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def from_scalar(cls, order: int, s) -> "NilpotentElement":
        z = zero_like(s)
        return cls(order, (s,) + (z,) * order)

    @classmethod
    def eps(cls, order: int, one) -> "NilpotentElement":
        """The nilpotent generator, expressed with the given ring unit."""
        z = zero_like(one)
        if order == 0:
            return cls(0, (z,))
        return cls(order, (z, one) + (z,) * (order - 1))

    def _check(self, other):
        if self.order != other.order:
            raise OrderMismatchError(f"orders {self.order} != {other.order}")

    def __add__(self, other):
        self._check(other)
        return NilpotentElement(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return NilpotentElement(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return NilpotentElement(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, NilpotentElement):
            return nil_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, s):
        return NilpotentElement(self.order, tuple(s * a for a in self.coeffs))

    def __eq__(self, other):
        return (
            isinstance(other, NilpotentElement)
            and self.order == other.order
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    @property
    def is_zero(self) -> bool:
        return all(scalar_is_zero(c) for c in self.coeffs)

    def map_coeffs(self, fn) -> "NilpotentElement":
        return NilpotentElement(self.order, tuple(fn(c) for c in self.coeffs))

    def __pow__(self, k: int):
        result = NilpotentElement.from_scalar(self.order, one_like(self.coeffs[0]))
        for _ in range(k):
            result = nil_mul(result, self)
        return result

    def __repr__(self):
        return "NilpotentElement(%d, [%s])" % (self.order, ", ".join(map(repr, self.coeffs)))


def nil_mul(a: NilpotentElement, b: NilpotentElement) -> NilpotentElement:
    """Truncated convolution implementing the quotient-ring product."""
    a._check(b)
    n = a.order
    out = []
    for k in range(n + 1):
        acc = a.coeffs[0] * b.coeffs[k]
        for i in range(1, k + 1):
            acc = acc + a.coeffs[i] * b.coeffs[k - i]
        out.append(acc)
    return NilpotentElement(n, out)


def nil_inv(a: NilpotentElement) -> NilpotentElement:
    """Inverse via the finite geometric series in the nilpotent part."""
    a0 = a.coeffs[0]
    if scalar_is_zero(a0):
        raise NonUnitError("constant term is zero")
    inv0 = one_like(a0) / a0
    # u = a/a0 - 1 is nilpotent, so sum_{k<=N} (-u)^k terminates.
    u = a.scale(inv0) - NilpotentElement.from_scalar(a.order, one_like(a0))
    term = NilpotentElement.from_scalar(a.order, one_like(a0))
    acc = term
    for _ in range(a.order):
        term = nil_mul(term, u).scale(-one_like(a0))
        acc = acc + term
    return acc.scale(inv0)


def chern_iso(x: NilpotentElement) -> NilpotentElement:
    """Basis re-tag (1 - P^{-1})^i -> H^i: the identity on coefficients."""
    return NilpotentElement(x.order, x.coeffs)


# -- dense polynomials --------------------------------------------------------


class Poly:
    """Dense polynomial over a duck-typed scalar ring; ascending coefficients.

    Serves for polynomials in the equation variable Q (see :mod:`qonf.polyq`)
    and for polynomials in the inert log symbol L.  L is never multiplied
    out: ring operations treat it formally, and the dilation Q -> qQ acts
    through :meth:`shift` as L -> L + 1.
    """

    __slots__ = ("coeffs", "one")

    def __init__(self, coeffs, one):
        coeffs = list(coeffs)
        while coeffs and scalar_is_zero(coeffs[-1]):
            coeffs.pop()
        self.coeffs = tuple(coeffs)
        self.one = one

    @classmethod
    def const(cls, c, one=None) -> "Poly":
        return cls([c], one if one is not None else one_like(c))

    @classmethod
    def variable(cls, one) -> "Poly":
        return cls([zero_like(one), one], one)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def coeff(self, k: int):
        return self.coeffs[k] if k < len(self.coeffs) else zero_like(self.one)

    @property
    def valuation(self) -> int | None:
        """Order of vanishing at 0; None for the zero polynomial."""
        for k, c in enumerate(self.coeffs):
            if not scalar_is_zero(c):
                return k
        return None

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            return other
        return Poly([other * self.one], self.one)

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(k) + other.coeff(k) for k in range(n)], self.one)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(k) - other.coeff(k) for k in range(n)], self.one)

    def __neg__(self):
        return Poly([-c for c in self.coeffs], self.one)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly([c * other for c in self.coeffs], self.one)
        if self.is_zero or other.is_zero:
            return Poly([], self.one)
        out = [zero_like(self.one)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if scalar_is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out, self.one)

    __rmul__ = __mul__

    def __truediv__(self, c):
        """Divide every coefficient by the scalar c."""
        return Poly([a / c for a in self.coeffs], self.one)

    def __pow__(self, k: int):
        out = Poly([self.one], self.one)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        return len(self.coeffs) == len(other.coeffs) and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash(self.coeffs)

    def divmod(self, other: "Poly"):
        """Polynomial division; scalars must form a field."""
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        dq, dr = other.degree, len(rem) - 1
        if dr < dq:
            return Poly([], self.one), self
        quot = [zero_like(self.one)] * (dr - dq + 1)
        lead = other.coeffs[-1]
        for k in range(dr - dq, -1, -1):
            c = rem[k + dq] / lead
            if not scalar_is_zero(c):
                quot[k] = c
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return Poly(quot, self.one), Poly(rem[:dq], self.one)

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a.divmod(b)[1]
        if a.is_zero:
            return a
        return a * (one_like(a.one) / a.coeffs[-1])  # monic

    def derivative(self) -> "Poly":
        return Poly([(k * self.one) * c for k, c in enumerate(self.coeffs)][1:], self.one)

    def scale_argument(self, c) -> "Poly":
        """Substitute X -> c*X."""
        out, p = [], one_like(self.one)
        for k, a in enumerate(self.coeffs):
            out.append(a * p if k else a)
            p = p * c
        return Poly(out, self.one)

    def shift(self, k: int = 1) -> "Poly":
        """Substitute X -> X + k (binomial re-expansion)."""
        if not self.coeffs:
            return self
        n = len(self.coeffs)
        out = [zero_like(self.one) for _ in range(n)]
        for j, c in enumerate(self.coeffs):
            if scalar_is_zero(c):
                continue
            for m in range(j, -1, -1):
                out[m] = out[m] + (comb(j, m) * (k ** (j - m))) * c
        return Poly(out, self.one)

    def evaluate(self, x):
        acc = zero_like(self.one)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def map_coeffs(self, fn, one=None) -> "Poly":
        return Poly([fn(c) for c in self.coeffs], one if one is not None else self.one)

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        return "Poly([%s])" % ", ".join(repr(c) for c in self.coeffs)


def binom_l(k: int, one) -> Poly:
    """binom(L, k) = (1/k!) prod_{r=0}^{k-1} (L - r) as a polynomial in L."""
    return _binom_of_poly(Poly.variable(one), k, one)


def nil_binomial_power(order: int, one, exponent: Poly | None = None) -> NilpotentElement:
    """(1 - eps)^E as sum_k (-1)^k binom(E, k) eps^k, with E a polynomial in L.

    The default exponent is L itself.  The eps^k coefficient is a polynomial
    of degree k*deg(E) in L, and the sum is finite since k <= order.
    """
    if exponent is None:
        exponent = Poly.variable(one)
    coeffs = []
    for k in range(order + 1):
        bk = _binom_of_poly(exponent, k, one)
        coeffs.append(bk if k % 2 == 0 else -bk)
    return NilpotentElement(order, coeffs)


def _binom_of_poly(e: Poly, k: int, one) -> Poly:
    acc = Poly([one], one)
    for r in range(k):
        acc = acc * (e - Poly.const(r * one, one))
    fact = 1
    for r in range(2, k + 1):
        fact *= r
    return acc / (fact * one)


# -- truncated series in Q ----------------------------------------------------


class TruncatedQSeries:
    """Power series in Q truncated at degree D, coefficients nilpotent elements."""

    __slots__ = ("truncation", "coeffs")

    def __init__(self, truncation: int, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != truncation + 1:
            raise ValueError("coefficient count does not match truncation")
        orders = {c.order for c in coeffs}
        if len(orders) > 1:
            raise OrderMismatchError(f"mixed nilpotent orders {orders}")
        self.truncation = truncation
        self.coeffs = coeffs

    @property
    def order(self) -> int:
        return self.coeffs[0].order

    def __add__(self, other):
        return TruncatedQSeries(
            self.truncation, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        return TruncatedQSeries(
            self.truncation, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedQSeries)
            and self.truncation == other.truncation
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __repr__(self):
        return f"TruncatedQSeries(D={self.truncation}, N={self.order})"


def series_mul(a, b):
    """Truncated Cauchy product of two series of the same type."""
    D = a.truncation
    out = []
    for d in range(D + 1):
        acc = nil_mul(a.coeffs[0], b.coeffs[d])
        for k in range(1, d + 1):
            acc = acc + nil_mul(a.coeffs[k], b.coeffs[d - k])
        out.append(acc)
    return type(a)(D, out)


def series_scale_pullback(s, c):
    """Substitute Q -> c*Q: the Q^d coefficient picks up the factor c^d."""
    out = []
    power = one_like(c)
    for d in range(s.truncation + 1):
        out.append(s.coeffs[d].scale(power) if d else s.coeffs[0])
        power = power * c
    return type(s)(s.truncation, out)


class LogSeries:
    """Series sum_{d,m} c_{d,m} Q^d L^m with nilpotent-element coefficients.

    Implemented as a Q-series whose nilpotent coefficients have
    :class:`Poly` entries in L.  The dilation operator acts by Q^d -> q^d Q^d and
    L -> L + 1 simultaneously, which is exactly the shift behaviour of the
    q-logarithm.
    """

    __slots__ = ("truncation", "coeffs")

    def __init__(self, truncation: int, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != truncation + 1:
            raise ValueError("coefficient count does not match truncation")
        self.truncation = truncation
        self.coeffs = coeffs

    @property
    def order(self) -> int:
        return self.coeffs[0].order

    @property
    def logdegree(self) -> int:
        m = 0
        for c in self.coeffs:
            for lp in c.coeffs:
                m = max(m, lp.degree if not lp.is_zero else 0)
        return m

    @classmethod
    def from_tqs(cls, s: TruncatedQSeries, one) -> "LogSeries":
        lift = lambda c: c.map_coeffs(lambda x: Poly.const(x, one))
        return cls(s.truncation, tuple(lift(c) for c in s.coeffs))

    def coefficient(self, d: int, i: int, m: int):
        """Scalar coefficient of Q^d eps^i L^m."""
        return self.coeffs[d].coeffs[i].coeff(m)

    def __add__(self, other):
        return LogSeries(self.truncation, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return LogSeries(self.truncation, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, s) -> "LogSeries":
        return LogSeries(self.truncation, tuple(c.scale(s) for c in self.coeffs))

    def __eq__(self, other):
        return (
            isinstance(other, LogSeries)
            and self.truncation == other.truncation
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def sigma(self, q) -> "LogSeries":
        """Apply the dilation: Q^d -> q^d Q^d and L -> L + 1."""
        out = []
        power = one_like(q)
        for d in range(self.truncation + 1):
            c = self.coeffs[d].map_coeffs(lambda lp: lp.shift(1))
            out.append(c.scale(Poly.const(power, c.coeffs[0].one)) if d else c)
            power = power * q
        return LogSeries(self.truncation, out)

    def mul_by_q_power(self, q) -> "LogSeries":
        """Multiply the Q^d coefficient by q^d (dilation without the L-shift)."""
        out = []
        power = one_like(q)
        for d in range(self.truncation + 1):
            c = self.coeffs[d]
            out.append(c.scale(Poly.const(power, c.coeffs[0].one)) if d else c)
            power = power * q
        return LogSeries(self.truncation, out)

    def mul_by_Q(self) -> "LogSeries":
        """Multiply by Q, dropping the overflow beyond the truncation order."""
        zero = self.coeffs[0] - self.coeffs[0]
        return LogSeries(self.truncation, (zero,) + self.coeffs[:-1])

    def is_zero_through(self, dmax: int) -> bool:
        return all(self.coeffs[d].is_zero for d in range(dmax + 1))

    def __repr__(self):
        return f"LogSeries(D={self.truncation}, N={self.order})"


# -- polynomial strings and series JSON ---------------------------------------


def format_poly(coeffs_ascending, var: str) -> str:
    """Render a polynomial with exact rational coefficients as text.

    ``coeffs_ascending[k]`` is the coefficient of var^k.  Inverse of
    :func:`parse_poly`.
    """
    terms = []
    for k, c in enumerate(coeffs_ascending):
        c = Fraction(c)
        if c == 0:
            continue
        mag = -c if c < 0 else c
        if k == 0:
            body = str(mag)
        elif mag == 1:
            body = var if k == 1 else f"{var}^{k}"
        else:
            body = f"{mag}*{var}" if k == 1 else f"{mag}*{var}^{k}"
        terms.append(("- " if c < 0 else "+ ") + body)
    if not terms:
        return "0"
    head = terms[0]
    head = "-" + head[2:] if head.startswith("- ") else head[2:]
    return " ".join([head] + terms[1:])


def parse_poly(text: str, var: str) -> list[Fraction]:
    """Parse the output of :func:`format_poly` back to ascending coefficients."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial string")
    if s == "0":
        return []
    # split into signed terms
    terms, cur = [], ""
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0 and s[i - 1] not in "+-*^/(":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    coeffs: dict[int, Fraction] = {}
    for t in terms:
        sign = Fraction(1)
        while t and t[0] in "+-":
            if t[0] == "-":
                sign = -sign
            t = t[1:]
        if var in t:
            head, _, tail = t.partition(var)
            coef = Fraction(head.rstrip("*")) if head.rstrip("*") else Fraction(1)
            k = int(tail[1:]) if tail.startswith("^") else 1
        else:
            coef, k = Fraction(t), 0
        coeffs[k] = coeffs.get(k, Fraction(0)) + sign * coef
    n = max(coeffs) + 1
    return [coeffs.get(k, Fraction(0)) for k in range(n)]


def _scalar_num_den_strings(c):
    if isinstance(c, RationalFunctionQ):
        return (
            format_poly(list(reversed(c.num_fractions())), "q"),
            format_poly(list(reversed(c.den_fractions())), "q"),
        )
    f = Fraction(c)
    return str(f.numerator), str(f.denominator)


def series_to_json(s) -> dict:
    """Spec'd JSON form: exact coefficients keyed by (d, i, m)."""
    if isinstance(s, TruncatedQSeries):
        s = LogSeries.from_tqs(s, _guess_base_one(s))
    rows = []
    for d in range(s.truncation + 1):
        nil = s.coeffs[d]
        for i in range(nil.order + 1):
            lp = nil.coeffs[i]
            for m in range(lp.degree + 1 if not lp.is_zero else 0):
                c = lp.coeff(m)
                if scalar_is_zero(c):
                    continue
                num, den = _scalar_num_den_strings(c)
                rows.append({"d": d, "i": i, "m": m, "num": num, "den": den})
    return {"N": s.order, "D": s.truncation, "coeffs": rows}


def _guess_base_one(s: TruncatedQSeries):
    return one_like(s.coeffs[0].coeffs[0])


def series_from_json(doc: dict, *, exact_q: bool | None = None) -> LogSeries:
    """Rebuild a :class:`LogSeries` from :func:`series_to_json` output.

    Coefficients become :class:`RationalFunctionQ` whenever any entry carries
    a genuine q-dependence (or when forced via ``exact_q``).
    """
    N, D = doc["N"], doc["D"]
    rows = doc["coeffs"]
    if exact_q is None:
        exact_q = any("q" in r["num"] or "q" in r["den"] for r in rows)
    if exact_q:
        one = RationalFunctionQ.one()

        def mk(r):
            return RationalFunctionQ(
                list(reversed(parse_poly(r["num"], "q"))),
                list(reversed(parse_poly(r["den"], "q"))),
            )

    else:
        one = Fraction(1)

        def mk(r):
            return Fraction(parse_poly(r["num"], "q")[0] if r["num"] != "0" else 0) / Fraction(
                parse_poly(r["den"], "q")[0]
            )

    zero_lp = Poly([], one)
    grid = [
        [dict() for _ in range(N + 1)] for _ in range(D + 1)
    ]  # [d][i] -> {m: scalar}
    for r in rows:
        grid[r["d"]][r["i"]][r["m"]] = mk(r)
    coeffs = []
    for d in range(D + 1):
        nil_coeffs = []
        for i in range(N + 1):
            entries = grid[d][i]
            if not entries:
                nil_coeffs.append(zero_lp)
                continue
            mmax = max(entries)
            nil_coeffs.append(
                Poly([entries.get(m, zero_like(one)) for m in range(mmax + 1)], one)
            )
        coeffs.append(NilpotentElement(N, nil_coeffs))
    return LogSeries(D, coeffs)
