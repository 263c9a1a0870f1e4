"""Exact scalar rings and truncated series.

Three scalar rings appear throughout the package:

* exact rationals (``fractions.Fraction``),
* rational functions of the deformation parameter q (:class:`RationalFunctionQ`),
* complex floats (plain ``complex``).

On top of these sit the truncated nilpotent ring C[eps]/(eps^(N+1))
(:class:`NilpotentElement`) and the one truncated power series type in the
Novikov variable Q, :class:`LogSeries`, whose nilpotent coefficients are
polynomials in an inert log symbol L; a plain Q-series is its L-degree-0
case.  L models the q-logarithm: it is untouched by ring operations and
shifts as L -> L+1 under the dilation Q -> qQ.  Polynomials in L, like those
in the equation variable Q, are the one dense polynomial type :class:`Poly`.

Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, gcd, lcm
from struct import pack, unpack


class QonfError(Exception):
    """Base class for errors raised by this package."""


class OrderMismatchError(QonfError):
    """Two nilpotent elements of different truncation order were combined."""


class NonUnitError(QonfError):
    """Inversion was requested for a non-invertible element."""


class LimitUndefinedError(QonfError):
    """A q -> 1 limit does not exist (pole at q = 1 after full cancellation)."""


# -- integer polynomials -------------------------------------------------------
#
# A polynomial in q with integer coefficients is a tuple or list of Python ints
# in descending order (the leading coefficient first, no leading zeros; the
# zero polynomial is empty).  Inputs are never mutated.

_SCHOOLBOOK_LEN = 6  # an operand this short multiplies faster term by term
_HEU_ATTEMPTS = 4  # evaluation points tried before the Euclidean fallback


def _strip(p):
    k = 0
    while k < len(p) and not p[k]:
        k += 1
    return p[k:] if k else p


_WORD_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}  # struct codes of signed words


def _word_width(nbytes: int) -> int:
    """nbytes rounded up to a struct word (1, 2, 4 or 8 bytes); wider digits
    stay as they are."""
    return 1 << (nbytes - 1).bit_length() if nbytes <= 8 else nbytes


_BIAS_DIGITS = 256  # biases of struct words are kept for up to this many digits
_BIASES = {}


def _bias(n: int, nbytes: int) -> int:
    """sum_{i<n} 2^(8*nbytes*i) * 2^(8*nbytes-1): n digits of half the base.

    For struct words and n <= _BIAS_DIGITS the value is read from a table
    (at most 4 * 256 entries, about 0.5 MB), filled on first use.
    """
    bias = _BIASES.get((n, nbytes))
    if bias is None:
        bias = int.from_bytes((b"\x80" + b"\0" * (nbytes - 1)) * n, "big")
        if n <= _BIAS_DIGITS and nbytes in _WORD_CODES:
            _BIASES[n, nbytes] = bias
    return bias


def _pack(p, nbytes: int) -> int:
    """p(2^(8*nbytes)); every |coefficient| must be below 2^(8*nbytes-1).

    Each coefficient is biased by 2^(8*nbytes-1) to make its digit
    nonnegative, and the packed bias is subtracted once at the end.  A
    digit of a struct word's width is the coefficient's two's complement
    with its top bit flipped, so one struct call packs the words, least
    significant first, and one XOR with the bias flips every top bit.
    Wider digits are converted one coefficient at a time.
    """
    bias = _bias(len(p), nbytes)
    code = _WORD_CODES.get(nbytes)
    if code:
        words = int.from_bytes(pack(f"<{len(p)}{code}", *p[::-1]), "little")
        return (words ^ bias) - bias
    half = 1 << (8 * nbytes - 1)
    digits = b"".join([(c + half).to_bytes(nbytes, "big") for c in p])
    return int.from_bytes(digits, "big") - bias


def _unpack(value: int, n: int, nbytes: int):
    """The n balanced digits of value in base 2^(8*nbytes), each in
    [-2^(8*nbytes-1), 2^(8*nbytes-1)), leading zeros stripped; None when n
    digits do not suffice.  The inverse of :func:`_pack`."""
    bias = _bias(n, nbytes)
    code = _WORD_CODES.get(nbytes)
    try:
        if code:
            data = ((value + bias) ^ bias).to_bytes(n * nbytes, "little")
        else:
            data = (value + bias).to_bytes(n * nbytes, "big")
    except OverflowError:
        return None
    if code:
        return _strip(list(unpack(f"<{n}{code}", data)[::-1]))
    half = 1 << (8 * nbytes - 1)
    return _strip([int.from_bytes(data[i:i + nbytes], "big") - half
                   for i in range(0, n * nbytes, nbytes)])


def _schoolbook_mul(a, b):
    if len(a) > len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _kronecker_mul(a, b):
    """Product by Kronecker substitution: one big-int product, then unpack."""
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    nbytes = _word_width((bound.bit_length() + 8) // 8)  # 2^(8*nbytes - 1) > bound
    pa = _pack(a, nbytes)
    pb = pa if b is a else _pack(b, nbytes)
    return _unpack(pa * pb, len(a) + len(b) - 1, nbytes)


def ipoly_mul(a, b) -> list:
    """Product of two integer polynomials."""
    if not a or not b:
        return []
    if len(a) == 1 or len(b) == 1:
        c, p = (a[0], b) if len(a) == 1 else (b[0], a)
        return list(p) if c == 1 else [c * x for x in p]
    if _is_monomial(b):
        a, b = b, a
    if _is_monomial(a):  # a = c q^e: scale and shift
        return [a[0] * x for x in b] + [0] * (len(a) - 1)
    if min(len(a), len(b)) <= _SCHOOLBOOK_LEN:
        return _schoolbook_mul(a, b)
    return _kronecker_mul(a, b)


def ipoly_quo(a, b) -> list:
    """Exact quotient a / b in Z[q]; ArithmeticError if b does not divide a."""
    rem = list(a)
    lb, nb = b[0], len(b)
    quo = []
    for k in range(len(rem) - nb + 1):
        c, r = divmod(rem[k], lb)
        if r:
            raise ArithmeticError("inexact polynomial division")
        quo.append(c)
        if c:
            for i in range(1, nb):
                rem[k + i] -= c * b[i]
    if any(rem[len(rem) - nb + 1:]):
        raise ArithmeticError("inexact polynomial division")
    return quo


def _divide_q_minus_one(p, e: int):
    """(p / (q-1)^v, v) for the largest v <= e with (q-1)^v | p, p nonzero.

    Each division by q - 1 is a synthetic division: prefix sums, the last
    one the remainder p(1).  A palindromic or antipalindromic p, such as a
    product of cyclotomic polynomials, needs only the top half: if
    rev(p) = s p, then p / (q-1) is again symmetric, with sign -s, and
    p(1) is 0 for s = -1 and twice the top half's sum (plus the middle
    coefficient) for s = 1.  The bottom half of the quotient is the
    mirror of its top half.
    """
    if sum(p):
        return p, 0
    if p[0] == p[-1] and p == p[::-1]:
        sign = 1
    elif p[0] == -p[-1] and all(a == -b for a, b in zip(p, reversed(p))):
        sign = -1
    else:
        v = 0
        while v < e:
            partial = list(accumulate(p))
            if partial.pop():
                break
            p, v = partial, v + 1
        return p, v
    size, v = len(p), 0
    top = p[:(size + 1) // 2]  # the top ceil(size/2) coefficients
    while v < e:
        partial = list(accumulate(top))
        half = size // 2
        if sign > 0 and 2 * (partial[half - 1] if half else 0) + (top[half] if size % 2 else 0):
            break
        if size % 2:  # the quotient's top half is one coefficient shorter
            partial.pop()
        top, size, sign, v = partial, size - 1, -sign, v + 1
    return list(top) + [sign * x for x in reversed(top[:size // 2])], v


def _content_split(p):
    """(c, p / c) with c > 0 the gcd of the coefficients; p itself when c is 1."""
    c = gcd(*p)
    return c, (p if c == 1 else [x // c for x in p])


def ipoly_gcd(f, g):
    """(h, f / h, g / h) with h = gcd(f, g) in Z[q] and lc(h) > 0.

    The gcd includes the integer content, so the two cofactors are coprime
    over Z[q].  f and g are nonzero; the three results are lists.  When a
    primitive part is +-q^e, the gcd of the primitive parts is q^min(e, v),
    v the other part's number of trailing zeros, and the cofactors are
    slices.
    """
    cf, pf = _content_split(f)
    cg, pg = _content_split(g)
    c = gcd(cf, cg)
    if len(pf) == 1 or len(pg) == 1:
        h, qf, qg = [1], pf, pg
    elif _is_monomial(pf) or _is_monomial(pg):
        k = min(_trailing_zeros(pf), _trailing_zeros(pg))
        h, qf, qg = [1] + [0] * k, pf[:len(pf) - k], pg[:len(pg) - k]
    else:
        h, qf, qg = _heu_gcd(pf, pg) or _euclid_gcd(pf, pg)
    if cf != c:
        qf = [(cf // c) * x for x in qf]
    elif type(qf) is not list:  # an input tuple, passed through
        qf = list(qf)
    if cg != c:
        qg = [(cg // c) * x for x in qg]
    elif type(qg) is not list:
        qg = list(qg)
    if c != 1:
        h = [c * x for x in h]
    return h, qf, qg


def _is_monomial(p) -> bool:
    """p = c q^e with e >= 1."""
    return not (p[-1] or any(p[1:]))


def _trailing_zeros(p) -> int:
    k = len(p)
    while not p[k - 1]:
        k -= 1
    return len(p) - k


def _heu_gcd(f, g):
    """Heuristic gcd of two primitive polynomials of degree >= 1, or None.

    GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989): evaluate
    at xi = 2^(8k) >= 2 min(|f|, |g|) + 2, take the integer gcd, interpolate
    it with balanced digits and keep its primitive part h.  By their theorem
    h is the gcd as soon as it divides f and g; the division is checked
    exactly through the cofactors f(xi) / h(xi) and g(xi) / h(xi).
    """
    norm_f, norm_g = max(map(abs, f)), max(map(abs, g))
    # rounding up to a struct word only raises xi
    nbytes = _word_width((max(norm_f, norm_g).bit_length() + 9) // 8)
    for _ in range(_HEU_ATTEMPTS):
        xi = 1 << (8 * nbytes)
        F, G = _pack(f, nbytes), _pack(g, nbytes)
        gamma = gcd(F, G)
        if gamma == 1:  # xi bounds the roots of a common factor h, so |h(xi)| >= 2
            return [1], f, g
        h = _unpack(gamma, min(len(f), len(g)), nbytes)
        if h:
            ch = gcd(*h) if h[0] > 0 else -gcd(*h)
            h = [x // ch for x in h]
            if len(h) == 1:
                return [1], f, g
            hv = gamma // ch
            qf = _unpack(F // hv, len(f) - len(h) + 1, nbytes)
            qg = _unpack(G // hv, len(g) - len(h) + 1, nbytes)
            if qf and qg and _divides(h, qf, f, norm_f, xi) and _divides(h, qg, g, norm_g, xi):
                return h, qf, qg
        nbytes *= 2
    return None


def _divides(h, q, f, norm_f, xi) -> bool:
    """h * q == f, given that h(xi) q(xi) == f(xi).

    When every coefficient of h q - f is below xi in absolute value, that
    polynomial vanishes at xi only if it is zero, and no product is needed.
    """
    if max(map(abs, h)) * max(map(abs, q)) * min(len(h), len(q)) + norm_f < xi:
        return True
    return ipoly_mul(h, q) == list(f)


def _euclid_gcd(f, g):
    """Gcd of two primitive polynomials by the primitive remainder sequence."""
    a, b = (f, g) if len(f) >= len(g) else (g, f)
    while len(b) > 1:
        r = list(a)
        lb = b[0]
        while len(r) >= len(b):  # pseudo-remainder, up to a constant factor
            lr = r[0]
            r = [lb * x for x in r]
            for i, y in enumerate(b):
                r[i] -= lr * y
            r = _strip(r)
        if not r:
            break
        a, b = b, _content_split(r)[1]
    h = ([-x for x in b] if b[0] < 0 else list(b)) if len(b) > 1 else [1]
    return h, ipoly_quo(f, h), ipoly_quo(g, h)


def _integer_pair(coeffs):
    """(p, m): integer coefficients p and a positive integer m with coeffs = p / m."""
    fracs = _strip([Fraction(c) for c in coeffs])
    m = lcm(*(c.denominator for c in fracs))
    return [c.numerator * (m // c.denominator) for c in fracs], m


class RationalFunctionQ:
    """Exact rational function of q over the rationals.

    Stored as a canonical pair of integer polynomials (descending
    coefficients): gcd(num, den) = 1 over Z[q], integer content included,
    and lc(den) > 0.  The pair is unique, so equality is tuple equality, and
    reduction happens eagerly after every operation, so :meth:`limit_q_to_1`
    is a pure evaluation.  The :attr:`num` and :attr:`den` views present the
    same function over the rationals with a monic denominator.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, num, den=None):
        """num / den from descending int or Fraction coefficients."""
        n, mn = _integer_pair(num)
        d, md = _integer_pair(den if den is not None else [1])
        if not d:
            raise ZeroDivisionError("zero denominator polynomial")
        n, d = _reduce([c * md for c in n], [c * mn for c in d])
        self._n, self._d = tuple(n), tuple(d)

    @classmethod
    def _make(cls, n, d) -> "RationalFunctionQ":
        """Wrap a canonical integer pair without reducing it again."""
        obj = cls.__new__(cls)
        obj._n, obj._d = tuple(n), tuple(d)
        return obj

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_fraction(cls, f) -> "RationalFunctionQ":
        f = Fraction(f)
        if not f:
            return cls.zero()
        return cls._make((f.numerator,), (f.denominator,))

    @classmethod
    def zero(cls) -> "RationalFunctionQ":
        return cls._make((), (1,))

    @classmethod
    def one(cls) -> "RationalFunctionQ":
        return cls._make((1,), (1,))

    @classmethod
    def q(cls) -> "RationalFunctionQ":
        return cls._make((1, 0), (1,))

    @classmethod
    def q_power(cls, k: int) -> "RationalFunctionQ":
        """q**k for any integer k (negative exponents give 1/q**|k|)."""
        if k >= 0:
            return cls._make((1,) + (0,) * k, (1,))
        return cls._make((1,), (1,) + (0,) * (-k))

    @classmethod
    def one_minus_q_pow(cls, k: int) -> "RationalFunctionQ":
        """1 - q**k, k >= 1."""
        return cls._make((-1,) + (0,) * (k - 1) + (1,), (1,))

    # -- views ---------------------------------------------------------------

    @property
    def num(self) -> list[Fraction]:
        """Numerator over the rationals, descending, for the monic :attr:`den`."""
        lc = self._d[0]
        return [Fraction(c, lc) for c in self._n]

    @property
    def den(self) -> list[Fraction]:
        """Monic denominator over the rationals, descending."""
        lc = self._d[0]
        return [Fraction(c, lc) for c in self._d]

    def integer_pair(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The canonical coprime integer numerator and denominator."""
        return self._n, self._d

    # -- ring structure ----------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, RationalFunctionQ):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunctionQ.from_fraction(Fraction(other))
        return NotImplemented

    def _add_sub(self, other, sub: bool):
        n1, d1 = self._n, self._d
        n2, d2 = other._n, other._d
        if sub:
            n2 = [-c for c in n2]
        if not n1:
            return RationalFunctionQ._make(n2, d2)
        if not n2:
            return self
        if d1 == d2:
            return RationalFunctionQ._make(*_reduce(_ipoly_add(n1, n2), d1))
        # n1/(g a) + n2/(g b) = (n1 b + n2 a)/(g a b); the sum is coprime to
        # a and b, so only the common part g of the denominators can cancel
        g, a, b = ipoly_gcd(d1, d2)
        num = _ipoly_add(ipoly_mul(n1, b), ipoly_mul(n2, a))
        if not num:
            return RationalFunctionQ.zero()
        if g == [1]:
            return RationalFunctionQ._make(num, ipoly_mul(d1, b))
        _, num, g = ipoly_gcd(num, g)
        return RationalFunctionQ._make(num, ipoly_mul(ipoly_mul(g, a), b))

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
        return RationalFunctionQ._make([-c for c in self._n], self._d)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._n or not other._n:
            return RationalFunctionQ.zero()
        # cross-cancel to keep intermediate degrees small; both cofactor
        # denominators keep a positive leading coefficient.  Nothing cancels
        # against a denominator of 1.
        n1, d2 = (self._n, (1,)) if other._d == (1,) else ipoly_gcd(self._n, other._d)[1:]
        n2, d1 = (other._n, (1,)) if self._d == (1,) else ipoly_gcd(other._n, self._d)[1:]
        return RationalFunctionQ._make(ipoly_mul(n1, n2), ipoly_mul(d1, d2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._n:
            raise ZeroDivisionError("division by zero rational function")
        if not self._n:
            return RationalFunctionQ.zero()
        _, n1, n2 = ipoly_gcd(self._n, other._n)
        _, d2, d1 = ipoly_gcd(other._d, self._d)
        return RationalFunctionQ._make(*_sign_normal(ipoly_mul(n1, d2), ipoly_mul(d1, n2)))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        # powers of a coprime pair stay coprime: no gcd is needed
        n, d = self._n, self._d
        if k < 0:
            if not n:
                raise ZeroDivisionError("division by zero rational function")
            n, d, k = d, n, -k
        pn, pd = [1], [1]
        while k:
            if k & 1:
                pn, pd = ipoly_mul(pn, n), ipoly_mul(pd, d)
            k >>= 1
            if k:
                n, d = ipoly_mul(n, n), ipoly_mul(d, d)
        return RationalFunctionQ._make(*_sign_normal(pn, pd))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self):
        if len(self._n) <= 1 and len(self._d) == 1:
            # a constant equals the same Fraction, so it must hash like one
            return hash(Fraction(sum(self._n), self._d[0]))
        return hash((self._n, self._d))

    def __bool__(self):
        return bool(self._n)

    @property
    def is_zero(self) -> bool:
        return not self._n

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point) -> Fraction:
        """Exact evaluation at a rational point (raises on a pole)."""
        x = Fraction(point)
        d = _eval_at(self._d, x)
        if d == 0:
            raise ZeroDivisionError(f"pole at q = {point}")
        return _eval_at(self._n, x) / d

    def evaluate_complex(self, z: complex) -> complex:
        # the monic view, each coefficient rounded once
        lc = self._d[0]
        return _horner_complex(self._n, lc, z) / _horner_complex(self._d, lc, z)

    def limit_q_to_1(self) -> Fraction:
        """Exact q -> 1 limit; the reduced form makes this an evaluation."""
        d = sum(self._d)
        if d == 0:
            raise LimitUndefinedError("pole at q = 1 after cancellation")
        return Fraction(sum(self._n), d)

    # -- misc ----------------------------------------------------------------

    def __repr__(self):
        n = format_poly(self.num[::-1], "q")
        if len(self._d) == 1:
            return n
        return f"({n})/({format_poly(self.den[::-1], 'q')})"


def _ipoly_add(a, b) -> list:
    """Sum of two integer polynomials."""
    if len(a) < len(b):
        a, b = b, a
    k = len(a) - len(b)
    return _strip(list(a[:k]) + [x + y for x, y in zip(a[k:], b)])


def _sign_normal(n, d):
    return ([-c for c in n], [-c for c in d]) if d[0] < 0 else (n, d)


def _reduce(n, d):
    """The canonical pair of n / d (d nonzero)."""
    if not n:
        return (), (1,)
    _, n, d = ipoly_gcd(n, d)
    return _sign_normal(n, d)


def _eval_at(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in p:
        acc = acc * x + c
    return acc


def _horner_complex(p, lc: int, z: complex) -> complex:
    acc = 0j
    for c in p:
        acc = acc * z + c / lc
    return acc


def limit_q_to_1(f) -> Fraction:
    """q -> 1 limit of an exact scalar (Fraction passes through unchanged)."""
    if isinstance(f, RationalFunctionQ):
        return f.limit_q_to_1()
    if isinstance(f, (int, Fraction)):
        return Fraction(f)
    raise TypeError(f"no exact q->1 limit for {type(f)!r}")


def rfq_dot(pairs):
    """sum of a * b over the list ``pairs`` of (a, b), with one reduction.

    When there are two or more pairs, the first factor is a
    :class:`RationalFunctionQ` and every factor is one, an int or a
    Fraction, the products are not cross-cancelled.  They are bucketed by
    their pair of denominators, and the numerators of a bucket are added
    with no gcd.  The buckets are then combined, in insertion order, over a
    running lcm: when one denominator divides the other, the lcm cofactor
    is one exact division (:func:`_exact_quo`), and otherwise it comes from
    one :func:`ipoly_gcd`.  The sum is reduced once (von zur Gathen and
    Gerhard, *Modern Computer Algebra*, ch. 5-6).  The
    canonical pair is unique, so the result equals the left fold of ``*``
    and ``+``.  Pairs of :class:`Poly` with exact scalars give one such sum
    per output coefficient.  A single product, and any other scalars
    (Fraction alone, float, complex), take that left fold, in order.  An
    empty sum is the zero of Q(q).
    """
    if not pairs:
        return RationalFunctionQ.zero()
    first = pairs[0][0]
    if (len(pairs) > 1 and type(first) is Poly and _exact_parts(first.one)[0] is not None
            and all(type(a) is Poly and type(b) is Poly for a, b in pairs)):
        return _poly_dot(pairs)
    if len(pairs) == 1 or type(first) is not RationalFunctionQ:
        return _fold_dot(pairs)
    buckets = {}
    for a, b in pairs:
        na, da = _exact_parts(a)
        nb, db = _exact_parts(b)
        if na is None or nb is None:
            return _fold_dot(pairs)
        if not na or not nb:
            continue
        key = (da, db) if da <= db else (db, da)
        num = ipoly_mul(na, nb)
        prev = buckets.get(key)
        buckets[key] = num if prev is None else _ipoly_add(prev, num)
    num, den, den2 = [], [1], 1  # den2 = den(2), kept for the screens of _exact_quo
    for (da, db), n in buckets.items():
        if not n:
            continue
        d = ipoly_mul(da, db)
        d2 = _at_two(d)
        if not num:
            num, den, den2 = n, d, d2
        elif d == den:
            num = _ipoly_add(num, n)
        elif (a := _exact_quo(den, den2, d, d2)) is not None:
            # d | den: the lcm is den = d a
            num = _ipoly_add(num, ipoly_mul(n, a))
        elif (b := _exact_quo(d, d2, den, den2)) is not None:
            # den | d: the lcm is d = den b
            num, den, den2 = _ipoly_add(ipoly_mul(num, b), n), d, d2
        else:
            # num/(g a) + n/(g b) = (num b + n a)/(g a b), over lcm = g a b
            _, a, b = ipoly_gcd(den, d)
            num = _ipoly_add(ipoly_mul(num, b), ipoly_mul(n, a))
            den, den2 = ipoly_mul(den, b), den2 * _at_two(b)
    return RationalFunctionQ._make(*_reduce(num, den))


def _at_two(p) -> int:
    """p(2), by Horner's rule."""
    acc = 0
    for c in p:
        acc += acc + c  # faster than 2 * acc + c
    return acc


def _exact_quo(f, f2, g, g2):
    """f / g when g divides f in Z[q], else None; f2 and g2 are f(2) and g(2).

    The length, the leading coefficient, the constant term and the value at
    q = 2 must each allow the division.  A constant g divides each
    coefficient.  Otherwise f(xi) is divided by g(xi), with xi as in
    :func:`_heu_gcd`, and a quotient read back from balanced digits is
    checked by :func:`_divides`.  None can also mean that the
    quotient's coefficients were too large to read back at xi; the caller
    then takes the gcd.
    """
    if (len(g) > len(f) or f[0] % g[0] or (f[-1] % g[-1] if g[-1] else f[-1])
            or (f2 % g2 if g2 else f2)):
        return None
    if len(g) == 1:
        return None if any(x % g[0] for x in f) else [x // g[0] for x in f]
    norm_f = max(map(abs, f))
    nbytes = _word_width((max(norm_f, max(map(abs, g))).bit_length() + 9) // 8)
    quo, rem = divmod(_pack(f, nbytes), _pack(g, nbytes))
    if rem:
        return None
    a = _unpack(quo, len(f) - len(g) + 1, nbytes)
    return a if a and _divides(g, a, f, norm_f, 1 << (8 * nbytes)) else None


def _poly_dot(pairs):
    """sum of a * b over pairs of :class:`Poly` with exact scalars: one
    :func:`rfq_dot` per output coefficient, added to zero like the
    schoolbook fold, so that the scalar types match it too."""
    one = pairs[0][0].one
    terms = [[] for _ in range(max(len(a.coeffs) + len(b.coeffs) for a, b in pairs) - 1)]
    for a, b in pairs:
        for u, x in enumerate(a.coeffs):
            if not scalar_is_zero(x):
                for v, y in enumerate(b.coeffs):
                    if not scalar_is_zero(y):
                        terms[u + v].append((x, y))
    zero = zero_like(one)
    return Poly([zero + rfq_dot(t) if t else zero for t in terms], one)


def _exact_parts(x):
    """(numerator, denominator) integer tuples of an exact scalar, or
    (None, None) for any other type."""
    if type(x) is RationalFunctionQ:
        return x._n, x._d
    if isinstance(x, int):
        return ((x,) if x else ()), (1,)
    if isinstance(x, Fraction):
        return ((x.numerator,) if x else ()), (x.denominator,)
    return None, None


def _fold_dot(pairs):
    a, b = pairs[0]
    acc = a * b
    for a, b in pairs[1:]:
        acc = acc + a * b
    return acc


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
    ac, bc = a.coeffs, b.coeffs
    return NilpotentElement(a.order, [rfq_dot([(ac[i], bc[k - i]) for i in range(k + 1)])
                                      for k in range(a.order + 1)])


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
        term = -nil_mul(term, u)
        acc = acc + term
    return acc.scale(inv0)


# -- dense polynomials --------------------------------------------------------


class Poly:
    """Dense polynomial over a duck-typed scalar ring; ascending coefficients.

    Serves for polynomials in the equation variable Q (see :mod:`qonf.polyq`)
    and for polynomials in the inert log symbol L.  L is never multiplied
    out: ring operations treat it formally, and the dilation Q -> qQ acts
    as L -> L + 1 (:func:`sigma_weight`).
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
        if type(self.one) is RationalFunctionQ and min(len(self.coeffs), len(other.coeffs)) > 1:
            return _poly_dot([(self, other)])
        # rfq_dot fuses only sums of products over Q(q): floats (whose bits
        # depend on the order), Fractions and single products take the loop
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
    """binom(L, k) = (1/k!) prod_{r=0}^{k-1} (L - r) as a polynomial in L, the product's
    integer coefficients by the Stirling recurrence s(r + 1, m) = s(r, m - 1) - r s(r, m).
    An int unit is read as a Fraction, so the 1/k! stays exact."""
    if isinstance(one, int):
        one = Fraction(one)
    s = [1]
    for r in range(k):
        s = [u - r * v for u, v in zip([0, *s], [*s, 0])]
    return Poly([c * one for c in s], one) / (factorial(k) * one)


def nil_binomial_power(order: int, one) -> NilpotentElement:
    """(1 - eps)^L as sum_k (-1)^k binom(L, k) eps^k; the sum is finite since
    k <= order."""
    coeffs = (binom_l(k, one) for k in range(order + 1))
    return NilpotentElement(order, [-b if k % 2 else b for k, b in enumerate(coeffs)])


# -- truncated series in Q ----------------------------------------------------


class LogSeries:
    """Series sum_{d,m} c_{d,m} Q^d L^m with nilpotent-element coefficients.

    Implemented as a Q-series truncated at degree D whose nilpotent
    coefficients, all of one order N, have :class:`Poly` entries in L; a
    plain series has L-degree 0.  The dilation operator acts by
    Q^d -> q^d Q^d and L -> L + 1 simultaneously, which is exactly the shift
    behaviour of the q-logarithm.
    """

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

    @property
    def logdegree(self) -> int:
        m = 0
        for c in self.coeffs:
            for lp in c.coeffs:
                m = max(m, lp.degree if not lp.is_zero else 0)
        return m

    def coefficient(self, d: int, i: int, m: int):
        """Scalar coefficient of Q^d eps^i L^m."""
        return self.coeffs[d].coeffs[i].coeff(m)

    def __add__(self, other):
        return LogSeries(self.truncation, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return LogSeries(self.truncation, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __eq__(self, other):
        return (
            isinstance(other, LogSeries)
            and self.truncation == other.truncation
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def sigma(self, q) -> "LogSeries":
        """Apply the dilation: Q^d -> q^d Q^d and L -> L + 1."""
        return apply_operator([[], [1]], sigma_weight, q, self)

    def is_zero_through(self, dmax: int) -> bool:
        return all(self.coeffs[d].is_zero for d in range(dmax + 1))

    def __repr__(self):
        return f"LogSeries(D={self.truncation}, N={self.order})"


def sigma_weight(k: int, a: int, d: int, mp: int, m: int):
    """(n, e) with sigma^k(Q^d L^mp) = sum_m n q^e Q^d L^m, for a = 0:
    sigma^k sends L to L + k, so n = C(mp, m) k^(mp-m) and e = k d."""
    return (comb(mp, m) * k ** (mp - m) if not a else 0), k * d


def twisted_sigma_weight(k: int, a: int, d: int, mp: int, m: int):
    """The weight of ((1 - eps) sigma)^k = (1 - eps)^k sigma^k: the eps^a
    term adds the factor (-1)^a C(k, a) to that of sigma^k."""
    n, e = sigma_weight(k, 0, d, mp, m)
    return (-1) ** a * comb(k, a) * n, e


def theta_weight(k: int, a: int, d: int, mp: int, m: int):
    """(n, 0) with theta^k(Q^d L^mp) = sum_m n Q^d L^m, for a = 0: theta acts
    as d + d/dL, so n = C(k, t) d^(k-t) mp!/m! with t = mp - m."""
    t = mp - m
    if a or t > k:
        return 0, 0
    return comb(k, t) * d ** (k - t) * (factorial(mp) // factorial(m)), 0


# the largest eps-shift a of step^k, past which each weight above is zero
sigma_weight.reach = theta_weight.reach = lambda k: 0
twisted_sigma_weight.reach = lambda k: k


def _constant_group_factor(ks, weight):
    """The factor function of a group of constant c_k of Q(q) over the
    generator: sum_k c_k n_k q^(e_k) is written as its canonical pair, the
    integer coefficients over the lcm of the c_k denominators with their
    content gcd removed."""
    den = lcm(*(c._d[0] for _, c in ks))
    scaled = [(k, c._n[0] * (den // c._d[0])) for k, c in ks]

    def factor(a, d, mp, m):
        terms = [(e, u * n) for k, u in scaled for n, e in (weight(k, a, d, mp, m),) if n]
        if not terms:
            return None
        num = [0] * (1 + max(e for e, _ in terms))  # descending: q^e sits at -1 - e
        for e, v in terms:
            num[-1 - e] += v
        num = _strip(num)
        if not num:
            return None
        g = gcd(den, *num)
        return RationalFunctionQ._make([v // g for v in num], (den // g,))
    return factor


def _group_factor(ks, weight, q):
    """The factor function of any group: sum_k c_k (n_k q^(e_k)) in the
    scalars' own arithmetic, term by term."""
    def factor(a, d, mp, m):
        f = None
        for k, c in ks:
            n, e = weight(k, a, d, mp, m)
            if n:
                t = c * (n * q ** e if e else n)
                f = t if f is None else f + t
        return f
    return factor


def apply_operator(coeffs, weight, q, s: LogSeries) -> LogSeries:
    """sum_k c_k(Q) step^k(s), truncated at the order of s.

    ``coeffs[k]`` lists the Q-power coefficients of c_k, lowest first, as
    scalars of the ring of s.  step^k acts on monomials in closed form:
    ``weight(k, a, d, mp, m)`` is the pair (n, e) with n q^e the coefficient
    of eps^(i+a) Q^d L^m in step^k(eps^i Q^d L^mp), for :func:`sigma_weight`,
    :func:`twisted_sigma_weight` or :func:`theta_weight` (whose e is 0, so q
    is not read).  Only the shifts a <= ``weight.reach(k)`` are visited, a = 0
    for sigma and theta (n = 0 for a > 0) and a <= k for the twisted sigma
    (C(k, a) = 0 for a > k): a skipped shift would add no pair to any sum.

    The operator is applied through a factor table built once per call.  Its
    entry (j, a, d, mp, m) is the single scalar sum_k c_(k,j) n q^e, and an
    entry that sums to zero is dropped, so each coefficient x of eps^i Q^d
    L^mp in s enters the entry (d + j, i + a, m) of the result once, as the
    pair (x, factor) of one :func:`rfq_dot`.  Over exact scalars (int,
    Fraction, :class:`RationalFunctionQ`) the grouping changes no canonical
    result.  When q is the generator of Q(q) and every c_(k,j) of a Q-power
    j is a constant of Q(q), each factor is written as its canonical pair;
    otherwise the products ``c * (n * q ** e)`` are added.  Floating scalars
    keep one entry per k, so that each x (c n q^e) is rounded in the order
    of the term-by-term sum.
    """
    D, N, top = s.truncation, s.order, s.logdegree
    one = s.coeffs[0].coeffs[0].one
    zero = zero_like(one)
    ops = [(k, j, c) for k, ck in enumerate(coeffs) for j, c in enumerate(ck)
           if not scalar_is_zero(c)]
    exact = all(_exact_parts(x)[0] is not None
                for x in (one, 0 if q is None else q, *(c for _, _, c in ops)))
    groups = {}  # the (k, c) of each Q-power j, or of each (k, j) for floating scalars
    for k, j, c in ops:
        groups.setdefault(j if exact else (k, j), (j, []))[1].append((k, c))
    generator = type(q) is RationalFunctionQ and q._n == (1, 0) and q._d == (1,)
    groups = [(j, max(weight.reach(k) for k, _ in ks), _constant_group_factor(ks, weight)
               if generator and all(type(c) is RationalFunctionQ and len(c._n) == len(c._d) == 1
                                    for _, c in ks)
               else _group_factor(ks, weight, q)) for j, ks in groups.values()]
    table = {}  # (group, a, d, mp) -> the (m, factor) pairs with a nonzero factor
    out = []
    for dout in range(D + 1):
        entries = []
        for iout in range(N + 1):
            terms = [[] for _ in range(top + 1)]  # no step raises the L-degree
            for g, (j, reach, factor) in enumerate(groups):
                d = dout - j
                if d < 0:
                    continue
                for a in range(min(iout, reach) + 1):
                    for mp, x in enumerate(s.coeffs[d].coeffs[iout - a].coeffs):
                        if scalar_is_zero(x):
                            continue
                        row = table.get((g, a, d, mp))
                        if row is None:
                            row = table[g, a, d, mp] = [
                                (m, f) for m in range(mp + 1)
                                if (f := factor(a, d, mp, m)) is not None
                                and not (exact and scalar_is_zero(f))]
                        for m, f in row:
                            terms[m].append((x, f))
            entries.append(Poly([rfq_dot(t) if t else zero for t in terms], one))
        out.append(NilpotentElement(N, entries))
    return LogSeries(D, out)


# -- polynomial strings and series JSON ---------------------------------------


def format_poly(coeffs_ascending, var: str) -> str:
    """Render a polynomial with exact rational coefficients as text.

    ``coeffs_ascending[k]`` is the coefficient of var^k, e.g. [1, -3/2, 0, 2]
    gives ``1 - 3/2*q + 2*q^3`` for var q.
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


def _scalar_num_den_strings(c):
    if isinstance(c, RationalFunctionQ):
        return format_poly(c.num[::-1], "q"), format_poly(c.den[::-1], "q")
    f = Fraction(c)
    return str(f.numerator), str(f.denominator)


def series_to_json(s) -> dict:
    """Spec'd JSON form: exact coefficients keyed by (d, i, m)."""
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
