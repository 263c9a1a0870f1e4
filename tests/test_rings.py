import json
import math
import os
import struct
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from qonf.gw import jk_series, pn_operator
from qonf.rings import (
    LimitUndefinedError,
    LogSeries,
    Poly,
    NilpotentElement,
    NonUnitError,
    OrderMismatchError,
    RationalFunctionQ,
    _divide_q_minus_one,
    _euclid_gcd,
    _exact_quo,
    _fold_dot,
    _heu_gcd,
    _kronecker_mul,
    _pack,
    _schoolbook_mul,
    _unpack,
    apply_operator,
    binom_l,
    format_poly,
    ipoly_gcd,
    ipoly_mul,
    ipoly_quo,
    nil_binomial_power,
    nil_inv,
    nil_mul,
    rfq_dot,
    scalar_is_zero,
    series_to_json,
    sigma_weight,
    theta_weight,
    twisted_sigma_weight,
    zero_like,
)

Q = RationalFunctionQ.q()
ONE = RationalFunctionQ.one()


def qpoch(d):
    """(q;q)_d as an exact rational function."""
    out = ONE
    for r in range(1, d + 1):
        out = out * RationalFunctionQ.one_minus_q_pow(r)
    return out


# ---------------------------------------------------------------- rational functions


class TestRationalFunctionQ:
    def test_reduction_and_monic_denominator(self):
        f = (1 - Q) / (1 - Q**2)
        assert f == 1 / (1 + Q)
        # denominator normalized monic: leading coefficient 1
        assert f.den[0] == 1

    def test_limit_cancellation(self):
        assert ((1 - Q) / (1 - Q**2)).limit_q_to_1() == F(1, 2)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_pochhammer_limit_is_inverse_factorial(self, d):
        import math

        f = (1 - Q) ** d / qpoch(d)
        assert f.limit_q_to_1() == F(1, math.factorial(d))

    def test_geometric_factor_limit(self):
        f = (1 - Q) * Q**4 / (1 - Q**4)
        assert f.limit_q_to_1() == F(1, 4)

    def test_pole_at_one_raises(self):
        with pytest.raises(LimitUndefinedError):
            (1 / (1 - Q)).limit_q_to_1()

    def test_negative_power(self):
        assert RationalFunctionQ.q_power(-2) * Q**2 == ONE

    def test_constants_hash_like_equal_fractions(self):
        assert 1 in {ONE}
        assert F(1, 2) in {RationalFunctionQ.from_fraction(F(1, 2))}

    @given(
        st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=9), min_size=1, max_size=5),
        st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=9), min_size=1, max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_limit_agrees_with_near_one_evaluation(self, num, den):
        if not any(den):
            return
        # keep the pole set away from q = 1, as the contract requires
        if abs(sum(den)) < F(1, 10) * sum(abs(c) for c in den):
            return
        f = RationalFunctionQ(num, den)
        exact = f.limit_q_to_1()
        approx = f.evaluate_complex(1 - 1e-6)
        scale = max(1.0, abs(float(exact)))
        assert abs(approx - float(exact)) <= 1e-4 * scale


# ---------------------------------------------------------------- the integer kernel

small_fracs = st.fractions(min_value=-20, max_value=20, max_denominator=7)
# wide enough on both sides to reach the Kronecker product
coeff_lists = st.lists(small_fracs, max_size=12)


@st.composite
def rational_functions(draw):
    num = draw(coeff_lists)
    den = draw(st.lists(small_fracs, min_size=1, max_size=12).filter(any))
    return num, den


def fraction_value(coeffs, x):
    acc = F(0)
    for c in coeffs:  # descending
        acc = acc * x + c
    return acc


def stripped(p):
    while p and not p[0]:
        p = p[1:]
    return p


def primitive(p):
    c = math.gcd(*p)
    return [x // c for x in p]


def as_poly(p):
    """An integer polynomial (descending) as a rings.Poly over Fraction."""
    return Poly([F(c) for c in reversed(p)], F(1))


# coprime primitive pairs whose first GCDHEU evaluation gives a false
# candidate of degree 1, which only the cofactor check rejects
SPURIOUS_CANDIDATES = [
    ([6, 8, -7, 7], [-9, -7, -3]),
    ([-3, -6, -2, 6, 3], [-5, -2, -6]),
    ([1, -4, -3, 5, -3], [3, 1, 5]),
    ([1, 5, -2, 7, -6], [-7, -2, 9, 1, 3]),
]
int_polys = st.lists(st.integers(-40, 40), min_size=1, max_size=10).map(stripped).filter(bool)
wide_polys = st.lists(st.integers(-(10**30), 10**30), min_size=2, max_size=10).map(stripped).filter(
    lambda p: len(p) > 1
)
# zeros, signs and values at the edges of a packing digit exercise the carries
edge_ints = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([2**63, -(2**63), 2**64 - 1, -(2**64) + 1, 2**127, -(2**127)]),
    st.integers(-(2**200), 2**200),
)
edge_polys = st.lists(edge_ints, min_size=1, max_size=20).map(stripped).filter(bool)


@st.composite
def packing_digits(draw):
    """(p, nbytes): coefficients that fit balanced digits of nbytes bytes,
    the extreme digits -2^(8*nbytes-1) and 2^(8*nbytes-1) - 1 favoured."""
    nbytes = draw(st.integers(1, 17))
    half = 1 << (8 * nbytes - 1)
    digit = st.sampled_from([-half, half - 1, 0, 1, -1]) | st.integers(-half, half - 1)
    return draw(st.lists(digit, min_size=1, max_size=12)), nbytes


def byte_join_pack(p, nbytes):
    """The reference packing: one biased big-endian digit per coefficient."""
    half = 1 << (8 * nbytes - 1)
    digits = b"".join([(c + half).to_bytes(nbytes, "big") for c in p])
    return int.from_bytes(digits, "big") - half * repunit(len(p), nbytes)


def byte_join_unpack(value, n, nbytes):
    half = 1 << (8 * nbytes - 1)
    try:
        data = (value + half * repunit(n, nbytes)).to_bytes(n * nbytes, "big")
    except OverflowError:
        return None
    return stripped([int.from_bytes(data[i:i + nbytes], "big") - half
                     for i in range(0, n * nbytes, nbytes)])


def repunit(n, nbytes):
    """sum_{i<n} 2^(8*nbytes*i)."""
    return int.from_bytes((b"\0" * (nbytes - 1) + b"\1") * n, "big")


class TestIntegerKernel:
    @given(rational_functions(), rational_functions(),
           st.fractions(min_value=-3, max_value=3, max_denominator=5))
    @settings(max_examples=150, deadline=None)
    def test_arithmetic_agrees_with_fraction_evaluation(self, f, g, x):
        fd, gd = fraction_value(f[1], x), fraction_value(g[1], x)
        if fd == 0 or gd == 0:  # off the poles of both operands
            return
        fv, gv = fraction_value(f[0], x) / fd, fraction_value(g[0], x) / gd
        a, b = RationalFunctionQ(*f), RationalFunctionQ(*g)
        assert a.evaluate(x) == fv
        assert (a + b).evaluate(x) == fv + gv
        assert (a - b).evaluate(x) == fv - gv
        assert (a * b).evaluate(x) == fv * gv
        if gv:
            assert (a / b).evaluate(x) == fv / gv

    @given(rational_functions(), rational_functions(),
           st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(bool))
    @settings(max_examples=100, deadline=None)
    def test_equal_values_are_identical(self, f, h, k):
        a = RationalFunctionQ(*f)
        hf = RationalFunctionQ(*h)
        scaled = RationalFunctionQ([k * c for c in f[0]], [k * c for c in f[1]])
        others = [scaled, (a + hf) - hf, a * hf / hf if hf else a, -(-a)]
        for b in others:
            assert b == a
            assert repr(b) == repr(a)
            assert hash(b) == hash(a)
            assert b.num == a.num and b.den == a.den
        assert a.den[0] == 1

    @given(int_polys, int_polys, st.one_of(int_polys, wide_polys))
    @settings(max_examples=150, deadline=None)
    def test_gcd_cofactors_agree_with_fraction_gcd(self, a, b, c):
        f, g = ipoly_mul(a, c), ipoly_mul(b, c)
        h, qf, qg = ipoly_gcd(f, g)
        assert h[0] > 0
        assert ipoly_mul(h, qf) == f and ipoly_mul(h, qg) == g
        monic = as_poly(f).gcd(as_poly(g))
        assert as_poly(h) / F(h[0]) == monic
        # the cofactors are coprime over Z[q], integer content included
        assert as_poly(qf).gcd(as_poly(qg)).degree == 0
        assert ipoly_gcd(qf, qg)[0] == [1]

    @given(int_polys, int_polys, st.one_of(int_polys, wide_polys))
    @settings(max_examples=100, deadline=None)
    def test_euclid_fallback_agrees_with_heuristic(self, a, b, c):
        f, g = primitive(ipoly_mul(a, c)), primitive(ipoly_mul(b, c))
        if len(f) < 2 or len(g) < 2:
            return
        h, qf, qg = _euclid_gcd(f, g)
        assert ipoly_mul(h, qf) == f and ipoly_mul(h, qg) == g
        heu = _heu_gcd(f, g)
        if heu is not None:
            assert heu == (h, qf, qg)

    @pytest.mark.parametrize(
        "f, g",
        [
            ([4, 4, 21, 4, 32, 0], [2, 3, 16, 12, 32, 0]),
            ([27, -39, -23, -15, -52, 6], [12, -28, 7, 0, -19, 22, -6]),
            ([40, -12, -23, -29, -9, 6, 7, -10], [16, 16, -2, -5, 3, 2]),
        ],
    )
    def test_heuristic_gcd_rejects_a_wrong_candidate(self, f, g):
        # at the first evaluation point the integer gcd carries an extra
        # factor, so the interpolated candidate fails the division check
        h, qf, qg = _heu_gcd(f, g)
        assert (h, qf, qg) == _euclid_gcd(f, g)
        assert ipoly_mul(h, qf) == f and ipoly_mul(h, qg) == g

    @given(st.integers(-40, 40).filter(bool), st.integers(1, 6), int_polys,
           st.integers(0, 4), st.integers(1, 30), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_gcd_with_a_monomial(self, c, e, p, t, content, swap):
        # c q^e against content * p * q^t: the short cut returns q^min(e, t)
        # (p may have its own trailing zeros) without GCDHEU or Euclid
        mono = [c] + [0] * e
        other = [content * x for x in p] + [0] * t
        f, g = (other, mono) if swap else (mono, other)
        h, qf, qg = ipoly_gcd(f, g)
        assert h[0] > 0
        assert ipoly_mul(h, qf) == f and ipoly_mul(h, qg) == g
        cf, cg = math.gcd(*qf), math.gcd(*qg)
        assert math.gcd(cf, cg) == 1
        assert _euclid_gcd(primitive(qf), primitive(qg))[0] == [1]

    def test_euclid_fallback_on_coprime_and_shared_factors(self):
        # (q^2 + 1)(q - 3) and (q^2 + 1)(2q + 5): the gcd is q^2 + 1
        f = ipoly_mul([1, 0, 1], [1, -3])
        g = ipoly_mul([1, 0, 1], [2, 5])
        assert _euclid_gcd(f, g) == ([1, 0, 1], [1, -3], [2, 5])
        assert _euclid_gcd([1, -3], [2, 5]) == ([1], [1, -3], [2, 5])

    @given(st.one_of(st.tuples(int_polys, int_polys), st.sampled_from(SPURIOUS_CANDIDATES)),
           st.integers(1, 12), st.integers(1, 12), st.booleans())
    @example(([6, 8, -7, 7], [-9, -7, -3]), 4, 6, True)
    @settings(max_examples=150, deadline=None)
    def test_gcd_of_coprime_pairs_with_content(self, fg, cf, cg, tuples):
        f, g = (primitive(p) for p in fg)
        assume(len(f) > 1 and len(g) > 1 and _euclid_gcd(f, g)[0] == [1])
        c = math.gcd(cf, cg)
        h, qf, qg = _euclid_gcd(f, g)
        want = ([c * x for x in h], [cf // c * x for x in qf], [cg // c * x for x in qg])
        scaled = [cf * x for x in f], [cg * x for x in g]
        if tuples:  # canonical pairs store tuples; the cofactors are lists
            scaled = tuple(map(tuple, scaled))
        got = ipoly_gcd(*scaled)
        assert got == want
        assert all(type(p) is list for p in got)

    @given(edge_polys, edge_polys)
    @settings(max_examples=200, deadline=None)
    def test_kronecker_product_agrees_with_schoolbook(self, a, b):
        assert _kronecker_mul(a, b) == _schoolbook_mul(a, b)
        assert _kronecker_mul(a, a) == _schoolbook_mul(a, a)
        mono = [a[0]] + [0] * (len(b) - 1)  # c q^e: ipoly_mul scales and shifts
        assert ipoly_mul(mono, b) == ipoly_mul(b, mono) == _schoolbook_mul(mono, b)

    def test_kronecker_product_at_the_digit_edges(self):
        # equal operands reach the coefficient bound exactly; sweeping its
        # size puts it just below the top bit of a packing digit
        from math import isqrt

        for n in (9, 10, 16):
            for bits in range(1, 80):
                m = isqrt((1 << bits) // n)
                if not m:
                    continue
                alternating = [m if k % 2 else -m for k in range(n)]
                for a, b in (([m] * n, [m] * n), ([m] * n, [-m] * n), (alternating, [m] * n)):
                    assert _kronecker_mul(a, b) == _schoolbook_mul(a, b)

    @given(packing_digits(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_packing_agrees_with_byte_join(self, case, data):
        p, nbytes = case
        half = 1 << (8 * nbytes - 1)
        value = _pack(p, nbytes)
        assert value == byte_join_pack(p, nbytes)
        assert _unpack(value, len(p), nbytes) == byte_join_unpack(value, len(p), nbytes) == stripped(p)
        if p[0] and len(p) > 1:  # the leading digit does not fit in fewer digits
            assert _unpack(value, len(p) - 1, nbytes) is None
        # any value, +half as a digit (a carry) included, against the reference
        digits = data.draw(st.lists(st.sampled_from([-half, half, 0]) | st.integers(-half, half),
                                    min_size=1, max_size=12))
        other = sum(c << (8 * nbytes * i) for i, c in enumerate(digits))
        for n in range(1, len(digits) + 2):
            assert _unpack(other, n, nbytes) == byte_join_unpack(other, n, nbytes)

    @pytest.mark.parametrize("nbytes", [1, 2, 3, 4, 8])
    def test_packing_around_the_bias_table(self, nbytes):
        # struct-word biases come from a table for up to 256 digits; longer
        # polynomials, and digits of other widths, build their bias each time
        half = 1 << (8 * nbytes - 1)
        for n in (1, 255, 256, 257, 300):
            extremes = [half - 1] * n, [-half] + [1 - half] * (n - 1)
            for p in (*extremes, [k % 7 - 3 or 1 for k in range(n)]):
                value = _pack(p, nbytes)
                assert value == byte_join_pack(p, nbytes)
                assert _unpack(value, n, nbytes) == byte_join_unpack(value, n, nbytes) == p

    def test_exact_quotient(self):
        assert ipoly_quo(ipoly_mul([3, -1, 2], [2, 0, -7]), [2, 0, -7]) == [3, -1, 2]
        with pytest.raises(ArithmeticError):
            ipoly_quo([1, 0, 1], [1, 1])
        with pytest.raises(ArithmeticError):
            ipoly_quo([2, 2], [3, 1])



# ---------------------------------------------------------------- division by (q - 1)

# descending coefficients of cyclotomic polynomials Phi_k, k = 1, 2, 3, 4, 5, 6, 8, 12
CYCLOTOMIC = [[1, -1], [1, 1], [1, 1, 1], [1, 0, 1], [1, 1, 1, 1, 1], [1, -1, 1],
              [1, 0, 0, 0, 1], [1, 0, -1, 0, 1]]


@st.composite
def q_minus_one_products(draw):
    """(p, e): (q - 1)^v times cyclotomic and random integer factors, and a
    cap e on the number of divisions."""
    p = [1]
    for f in draw(st.lists(st.sampled_from(CYCLOTOMIC), max_size=5)):
        p = ipoly_mul(p, f)
    for f in draw(st.lists(st.lists(st.integers(-5, 5), min_size=1, max_size=4)
                           .map(stripped).filter(bool), max_size=2)):
        p = ipoly_mul(p, f)
    for _ in range(draw(st.integers(0, 4))):
        p = ipoly_mul(p, [1, -1])
    return p, draw(st.integers(0, len(p)))


def divide_by_prefix_sums(p, e):
    """The plain loop: divide by q - 1 while the remainder p(1) is 0, at most e times."""
    p, v = list(p), 0
    while v < e:
        partial = [sum(p[:k + 1]) for k in range(len(p))]
        if partial.pop():
            break
        p, v = partial, v + 1
    return p, v


class TestDivideQMinusOne:
    @given(q_minus_one_products())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_the_prefix_sum_loop(self, case):
        p, e = case
        want = divide_by_prefix_sums(p, e)
        for arg in (list(p), tuple(p)):
            got, v = _divide_q_minus_one(arg, e)
            assert (list(got), v) == want

    def test_nonzero_at_one_returns_the_input(self):
        # palindromic, so only the early exit returns the very same object
        for p in ([1], (1, 1), [1, 1, 1], (2, 3, 2)):
            got, v = _divide_q_minus_one(p, len(p))
            assert got is p and v == 0

    @pytest.mark.parametrize("kind", [list, tuple])
    def test_antipalindromic_input_sums_only_its_top_half(self, kind, monkeypatch):
        import qonf.rings

        p = kind(ipoly_mul(ipoly_mul([1, -1], [1, 1, 1]), [1, 0, 0, 0, 1]))  # (q^3 - 1)(q^4 + 1)
        lengths = []
        real = qonf.rings.accumulate
        monkeypatch.setattr(qonf.rings, "accumulate", lambda xs: lengths.append(len(xs)) or real(xs))
        assert _divide_q_minus_one(p, len(p)) == (ipoly_mul([1, 1, 1], [1, 0, 0, 0, 1]), 1)
        assert lengths and max(lengths) <= (len(p) + 1) // 2


def test_runs_without_sympy():
    code = """
import sys
sys.modules["sympy"] = None  # any import of sympy now fails
import qonf
from fractions import Fraction as F
from qonf.confluence import limit_entry_q_to_1
from qonf.gw import jk_closed_formula, jk_series
from qonf.polyq import Poly, RatFunc, parse_bivariate
assert jk_closed_formula(2, 3).coeffs == jk_series(2, 3).coeffs
lim = limit_entry_q_to_1(parse_bivariate("(1-q)*Q/(1-q^2)"))
assert lim == RatFunc(Poly([F(0), F(1, 2)], F(1)))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------- nilpotent ring


class TestNilpotent:
    def test_truncation_kills_square(self):
        a = NilpotentElement(1, [F(1), F(1)])
        b = NilpotentElement(1, [F(1), F(-1)])
        assert nil_mul(a, b) == NilpotentElement.from_scalar(1, F(1))

    def test_binomial_square(self):
        a = NilpotentElement(2, [F(1), F(1), F(0)])
        assert nil_mul(a, a) == NilpotentElement(2, [F(1), F(2), F(1)])

    def test_qdeformed_cube(self):
        a = NilpotentElement(2, [1 - Q, Q * ONE, RationalFunctionQ.zero()])
        cube = a**3
        assert cube.coeffs[0] == (1 - Q) ** 3
        assert cube.coeffs[1] == 3 * Q * (1 - Q) ** 2
        assert cube.coeffs[2] == 3 * Q**2 * (1 - Q)

    def test_inverse_of_one(self):
        one = NilpotentElement.from_scalar(3, F(1))
        assert nil_inv(one) == one

    def test_inverse_geometric(self):
        a = NilpotentElement(2, [F(1), F(1), F(0)])
        assert nil_inv(a) == NilpotentElement(2, [F(1), F(-1), F(1)])

    def test_inverse_qdeformed(self):
        a = NilpotentElement(1, [1 - Q, Q * ONE])
        inv = nil_inv(a)
        assert inv.coeffs[0] == 1 / (1 - Q)
        assert inv.coeffs[1] == -Q / (1 - Q) ** 2
        assert nil_mul(a, inv) == NilpotentElement.from_scalar(1, ONE)

    def test_non_unit_raises(self):
        with pytest.raises(NonUnitError):
            nil_inv(NilpotentElement(1, [F(0), F(1)]))

    def test_order_mismatch_raises(self):
        with pytest.raises(OrderMismatchError):
            nil_mul(NilpotentElement(1, [F(1), F(0)]), NilpotentElement(2, [F(1), F(0), F(0)]))
        with pytest.raises(OrderMismatchError):
            LogSeries(1, [NilpotentElement(0, [Poly.const(F(1))]),
                          NilpotentElement(1, [Poly.const(F(1)), Poly.const(F(0))])])



nil_elements = st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=7), min_size=n + 1, max_size=n + 1
    ).map(lambda cs: NilpotentElement(n, cs))
)


class TestNilpotentProperties:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, data):
        n = data.draw(st.integers(min_value=0, max_value=4))
        mk = st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=7), min_size=n + 1, max_size=n + 1
        ).map(lambda cs: NilpotentElement(n, cs))
        a, b, c = data.draw(mk), data.draw(mk), data.draw(mk)
        assert nil_mul(nil_mul(a, b), c) == nil_mul(a, nil_mul(b, c))
        assert nil_mul(a, b + c) == nil_mul(a, b) + nil_mul(a, c)
        assert nil_mul(a, b) == nil_mul(b, a)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_inverse_round_trip(self, data):
        n = data.draw(st.integers(min_value=0, max_value=6))
        unit_head = data.draw(
            st.fractions(min_value=-20, max_value=20, max_denominator=7).filter(lambda f: f != 0)
        )
        tail = data.draw(
            st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=7), min_size=n, max_size=n)
        )
        a = NilpotentElement(n, [unit_head] + tail)
        assert nil_mul(a, nil_inv(a)) == NilpotentElement.from_scalar(n, F(1))

    @given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_binomial_power_at_integers(self, n, m):
        bp = nil_binomial_power(n, F(1))
        at_m = NilpotentElement(n, [lp.evaluate(F(m)) for lp in bp.coeffs])
        one_minus_eps = NilpotentElement.from_scalar(n, F(1)) - NilpotentElement(n, [F(int(k == 1)) for k in range(n + 1)])
        assert at_m == one_minus_eps**m


class TestBinomialPower:
    def test_order_zero(self):
        assert nil_binomial_power(0, F(1)) == NilpotentElement(0, [Poly([F(1)], F(1))])

    def test_order_one(self):
        bp = nil_binomial_power(1, F(1))
        assert bp.coeffs[0] == Poly([F(1)], F(1))
        assert bp.coeffs[1] == -Poly.variable(F(1))

    def test_order_two(self):
        bp = nil_binomial_power(2, F(1))
        assert bp.coeffs[2] == binom_l(2, F(1))
        assert bp.coeffs[2] == Poly([F(0), F(-1, 2), F(1, 2)], F(1))

    def test_int_unit_stays_exact(self):
        b = binom_l(3, 1)
        assert b.coeffs == (F(0), F(1, 3), F(-1, 2), F(1, 6))
        assert all(type(c) is F for c in b.coeffs)
        bp = nil_binomial_power(3, 1)
        assert all(type(c) is F for lp in bp.coeffs for c in lp.coeffs)
        assert bp == nil_binomial_power(3, F(1))

    def test_float_unit_stays_float(self):
        b = binom_l(3, 1.0)
        assert all(type(c) is float for c in b.coeffs)
        assert b.coeffs == (0.0, 1 / 3, -0.5, 1 / 6)


# ---------------------------------------------------------------- series


class TestSeries:
    def test_log_series_sigma_shifts_L_and_scales_Q(self):
        one = F(1)
        lp_L = Poly.variable(one)
        c0 = NilpotentElement(0, [lp_L])
        s = LogSeries(1, [c0, c0])
        t = s.sigma(F(3))  # stand-in scalar for q
        # Q^0: L -> L+1 ; Q^1: 3*(L+1)
        assert t.coeffs[0].coeffs[0] == Poly([one, one], one)
        assert t.coeffs[1].coeffs[0] == Poly([F(3), F(3)], one)


class TestSerialization:
    def test_round_trip_exact_q(self):
        D, N = 1, 1
        coeffs = []
        for d in range(D + 1):
            lps = []
            for i in range(N + 1):
                entries = [Q**d / (1 + Q * (i + 1)), ONE * F(i - 1, 3)]
                lps.append(Poly(entries, ONE))
            coeffs.append(NilpotentElement(N, lps))
        doc = series_to_json(LogSeries(D, coeffs))
        assert doc == {"N": 1, "D": 1, "coeffs": [
            {"d": 0, "i": 0, "m": 0, "num": "1", "den": "1 + q"},
            {"d": 0, "i": 0, "m": 1, "num": "-1/3", "den": "1"},
            {"d": 0, "i": 1, "m": 0, "num": "1/2", "den": "1/2 + q"},
            {"d": 1, "i": 0, "m": 0, "num": "q", "den": "1 + q"},
            {"d": 1, "i": 0, "m": 1, "num": "-1/3", "den": "1"},
            {"d": 1, "i": 1, "m": 0, "num": "1/2*q", "den": "1/2 + q"},
        ]}
        assert json.loads(json.dumps(doc)) == doc

    def test_round_trip_rational(self):
        s = LogSeries(2, [NilpotentElement(1, [Poly.const(F(1)), Poly.const(F(0))]),
                          NilpotentElement(1, [Poly.const(F(-2, 3)), Poly.const(F(5))]),
                          NilpotentElement(1, [Poly.const(F(0)), Poly.const(F(7, 2))])])
        doc = series_to_json(s)
        assert doc == {"N": 1, "D": 2, "coeffs": [
            {"d": 0, "i": 0, "m": 0, "num": "1", "den": "1"},
            {"d": 1, "i": 0, "m": 0, "num": "-2", "den": "3"},
            {"d": 1, "i": 1, "m": 0, "num": "5", "den": "1"},
            {"d": 2, "i": 1, "m": 0, "num": "7", "den": "2"},
        ]}
        assert json.loads(json.dumps(doc)) == doc

    def test_poly_string_round_trip(self):
        assert format_poly([F(1), F(-3, 2), F(0), F(2)], "q") == "1 - 3/2*q + 2*q^3"
        assert format_poly([F(0), F(-1)], "Q") == "-Q"
        assert format_poly([], "q") == "0"


# ---------------------------------------------------------------- fused sums of products

# shared denominators (descending integer coefficients) make equal-denominator
# buckets common, as in the gauge series
DOT_DENOMINATORS = [[1], [1, -1], [1, -2, 1], [1, 1, 1], [2, 3], [3, 0, 1]]


@st.composite
def dot_factors(draw):
    kind = draw(st.sampled_from(["rfq", "rfq", "rfq", "rfq", "zero", "int", "fraction"]))
    if kind == "zero":
        return RationalFunctionQ.zero()
    if kind == "int":
        return draw(st.integers(-5, 5))
    if kind == "fraction":
        return draw(small_fracs)
    num = draw(st.lists(small_fracs, max_size=5))
    den = draw(st.one_of(
        st.sampled_from(DOT_DENOMINATORS),
        st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(any),
    ))
    return RationalFunctionQ(num, den)


# cyclotomic factors, and factors that are not, with integer content drawn
# separately; (q+5)(q^2+1) and q^2+q+1 pass every screen of the
# divisibility test but do not divide
CHAIN_FACTORS = [[1, -1], [1, 1], [1, 1, 1], [1, 0, 1], [1, -1, 1], [1, 5], [2, 3], [1, 1, 3]]
SCREENED_DEN, SCREENED_D = [1, 5, 1, 5], [1, 1, 1]


@st.composite
def chained_pairs(draw):
    """2 to 6 pairs (a, b) whose denominators grow or shrink by one factor
    from pair to pair, stay, or are drawn afresh: the bucket denominators
    of the sum divide one another in either order, are equal, or form no
    chain."""
    exps, content, pairs = [0] * len(CHAIN_FACTORS), 1, []
    for _ in range(draw(st.integers(2, 6))):
        step = draw(st.sampled_from(["grow", "shrink", "same", "fresh"]))
        k = draw(st.integers(0, len(CHAIN_FACTORS) - 1))
        if step == "grow":
            exps[k] += 1
            content *= draw(st.sampled_from([1, 1, 2, 3]))
        elif step == "shrink":
            exps[k] = max(exps[k] - 1, 0)
        elif step == "fresh":
            exps = [draw(st.integers(0, 2)) for _ in CHAIN_FACTORS]
            content = draw(st.sampled_from([1, 2, 3, 6]))
        den = [content]
        for factor, m in zip(CHAIN_FACTORS, exps):
            for _ in range(m):
                den = ipoly_mul(den, factor)
        a = RationalFunctionQ(draw(st.lists(small_fracs, min_size=1, max_size=4)), den)
        b = draw(st.one_of(
            st.integers(-3, 3),
            small_fracs,
            st.builds(lambda n, d: RationalFunctionQ(n, d),
                      st.lists(small_fracs, min_size=1, max_size=2),
                      st.sampled_from(CHAIN_FACTORS)),
        ))
        pairs.append((a, b))
    return pairs


def fold_dot(pairs):
    """The reference: left fold of * and +; the empty sum is the zero of Q(q)."""
    if not pairs:
        return RationalFunctionQ.zero()
    acc = pairs[0][0] * pairs[0][1]
    for a, b in pairs[1:]:
        acc = acc + a * b
    return acc


def same_scalar(got, want):
    return type(got) is type(want) and got == want and repr(got) == repr(want)


class TestRfqDot:
    @given(st.lists(st.tuples(dot_factors(), dot_factors()), max_size=6), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_equals_left_fold(self, pairs, cancel):
        if cancel:  # every product also appears negated: the sum is exactly 0
            pairs = pairs + [(-a, b) for a, b in pairs]
        got = rfq_dot(pairs)
        assert same_scalar(got, fold_dot(pairs))
        if cancel:
            assert got == 0

    def test_empty_and_all_zero(self):
        assert same_scalar(rfq_dot([]), RationalFunctionQ.zero())
        zero = RationalFunctionQ.zero()
        assert same_scalar(rfq_dot([(zero, Q), (1 / (1 - Q), zero), (zero, zero)]), zero)

    def test_equal_denominators_reduce(self):
        d = 1 / (1 - Q)
        # q/(1-q) - 1/(1-q) = -1 once reduced
        got = rfq_dot([(d, Q), (d, -ONE)])
        assert same_scalar(got, -ONE)
        assert got.integer_pair() == ((-1,), (1,))

    def test_constants_and_mixed_factors(self):
        pairs = [(ONE * F(1, 2), 3), (Q / (1 + Q), F(2, 3)), (ONE, Q**2)]
        assert same_scalar(rfq_dot(pairs), fold_dot(pairs))
        assert same_scalar(rfq_dot([(F(1, 2), F(2, 3)), (2, 5)]), F(31, 3))

    @given(chained_pairs())
    @example([(RationalFunctionQ([1], SCREENED_DEN), 1), (RationalFunctionQ([2], SCREENED_D), 1)])
    @example([(RationalFunctionQ([1], SCREENED_D), F(1, 3)),
              (RationalFunctionQ([1], SCREENED_DEN), 1)])
    @settings(max_examples=150, deadline=None)
    def test_chained_denominators_equal_left_fold(self, pairs):
        assert same_scalar(rfq_dot(pairs), fold_dot(pairs))

    def test_screens_pass_but_division_fails(self):
        # (q+5)(q^2+1) against q^2+q+1: length, leading coefficient,
        # constant term and the values 35 and 7 at q = 2 all allow the
        # division, but q^2+q+1 does not divide
        den, d = SCREENED_DEN, SCREENED_D
        assert len(d) <= len(den) and den[0] % d[0] == 0 and den[-1] % d[-1] == 0
        assert (fraction_value(den, 2), fraction_value(d, 2)) == (35, 7)
        assert _exact_quo(den, 35, d, 7) is None
        assert _exact_quo(ipoly_mul(den, d), 245, d, 7) == den
        a, b = RationalFunctionQ([1], den), RationalFunctionQ([1, 0], d)
        for pairs in ([(a, 1), (b, 1)], [(b, 1), (a, 1)], [(a, Q), (b, F(2, 3)), (a * b, 3)]):
            assert same_scalar(rfq_dot(pairs), fold_dot(pairs))
        assert rfq_dot([(a, 1), (b, 1)]).integer_pair()[1] == tuple(ipoly_mul(den, d))


def exact_matrices(n):
    entry = st.one_of(
        st.just(RationalFunctionQ.zero()),
        st.builds(lambda num, den: RationalFunctionQ(num, den),
                  st.lists(small_fracs, max_size=3),
                  st.sampled_from(DOT_DENOMINATORS)),
    )
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


def fold_mat_mul(A, B):
    n = len(A)
    return [[fold_dot([(A[i][k], B[k][j]) for k in range(n)]) for j in range(n)]
            for i in range(n)]


def fold_mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def same_matrix(got, want):
    return all(same_scalar(g, w) for rg, rw in zip(got, want) for g, w in zip(rg, rw))


class TestFusedMatrixSums:
    """mat_mul, MatrixSeries.mul and MatrixSeries.inverse against the fold of
    entrywise * and + they replaced, on random exact 3 x 3 series."""

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_products_and_inverse_equal_fold(self, data):
        from qonf.polyq import MatrixSeries, mat_inv, mat_mul, mat_zero

        n, D = 3, 3
        S = [data.draw(exact_matrices(n)) for _ in range(D + 1)]
        T = [data.draw(exact_matrices(n)) for _ in range(D + 1)]
        T[data.draw(st.integers(1, D))] = mat_zero(n, ONE)  # a zero term is skipped
        assert same_matrix(mat_mul(S[0], T[0]), fold_mat_mul(S[0], T[0]))

        got = MatrixSeries(S, ONE).mul(MatrixSeries(T, ONE)).terms
        for m in range(D + 1):
            want = fold_mat_mul(S[0], T[m])
            for k in range(1, m + 1):
                want = fold_mat_add(want, fold_mat_mul(S[k], T[m - k]))
            assert same_matrix(got[m], want)

        # an invertible constant term: nonzero constants on the diagonal,
        # anything above it
        for i in range(n):
            S[0][i][i] = ONE * data.draw(small_fracs.filter(bool))
            for j in range(i):
                S[0][i][j] = RationalFunctionQ.zero()
        g0 = mat_inv(S[0])
        inv = MatrixSeries(S, ONE).inverse().terms
        want = [g0]
        for m in range(1, D + 1):
            acc = fold_mat_mul(S[1], want[m - 1])
            for k in range(2, m + 1):
                acc = fold_mat_add(acc, fold_mat_mul(S[k], want[m - k]))
            want.append([[-x for x in row] for row in fold_mat_mul(g0, acc)])
        for m in range(D + 1):
            assert same_matrix(inv[m], want[m])


@st.composite
def poly_pairs(draw):
    """Pairs of Poly with all-RationalFunctionQ or all-Fraction entries."""
    exact = draw(st.booleans())
    one = ONE if exact else F(1)
    entry = dot_factors().map(lambda x: x * ONE) if exact else small_fracs
    polys = st.lists(entry, max_size=4).map(lambda cs: Poly(cs, one))
    return draw(st.lists(st.tuples(polys, polys), min_size=2, max_size=5))


class TestRfqDotOfPolys:
    @given(poly_pairs())
    @settings(max_examples=80, deadline=None)
    def test_equals_left_fold(self, pairs):
        got, want = rfq_dot(pairs), _fold_dot(pairs)
        assert type(got) is Poly and got.one == want.one
        assert len(got.coeffs) == len(want.coeffs)
        assert all(same_scalar(g, w) for g, w in zip(got.coeffs, want.coeffs))


def schoolbook_mul(a, b):
    """Poly.__mul__ before exact scalars took rfq_dot: the schoolbook fold
    from zero, skipping zero left coefficients, in order."""
    if a.is_zero or b.is_zero:
        return Poly([], a.one)
    out = [zero_like(a.one)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if scalar_is_zero(x):
            continue
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return Poly(out, a.one)


def float_bits(x):
    """The IEEE bits of a float or of both parts of a complex."""
    if isinstance(x, complex):
        return struct.pack("<dd", x.real, x.imag)
    return struct.pack("<d", x)


signed_zeros = st.sampled_from([0.0, -0.0])
finite_floats = st.one_of(signed_zeros, st.floats(-1e6, 1e6, allow_nan=False))
POLY_SCALARS = {
    # mixed exact entries: RationalFunctionQ, int, Fraction and zero of Q(q)
    "rfq": (ONE, dot_factors()),
    "fraction": (F(1), st.one_of(small_fracs, st.integers(-5, 5))),
    "float": (1.0, finite_floats),
    "complex": (1 + 0j, st.builds(complex, finite_floats, finite_floats)),
}


class TestPolyProduct:
    @given(st.sampled_from(sorted(POLY_SCALARS)), st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_schoolbook_fold(self, kind, data):
        one, entries = POLY_SCALARS[kind]
        a, b = (Poly(data.draw(st.lists(entries, max_size=5)), one) for _ in range(2))
        got, want = a * b, schoolbook_mul(a, b)
        assert got.one == want.one and len(got.coeffs) == len(want.coeffs)
        for g, w in zip(got.coeffs, want.coeffs):
            if kind in ("float", "complex"):
                assert type(g) is type(w) and float_bits(g) == float_bits(w)
            else:
                assert same_scalar(g, w)
        assert got == want and repr(got) == repr(want)

    def test_products_of_plain_numbers_are_scalars_of_the_ring(self):
        # the schoolbook adds each product to the ring's zero, so 2 * 3 is
        # the constant 6 of Q(q), not the int 6
        a, b = Poly([2, F(1, 2), ONE], ONE), Poly([3, Q], ONE)
        got, want = a * b, schoolbook_mul(a, b)
        assert len(got.coeffs) == len(want.coeffs) == 4
        assert all(same_scalar(g, w) for g, w in zip(got.coeffs, want.coeffs))

    def test_signed_zeros(self):
        for one, z in ((1.0, -0.0), (1 + 0j, complex(-0.0, -0.0)), (1 + 0j, complex(0.0, -0.0))):
            a, b = Poly([z, one], one), Poly([z, z, -one], one)
            got, want = (a * b).coeffs, schoolbook_mul(a, b).coeffs
            assert [float_bits(x) for x in got] == [float_bits(x) for x in want]


# ---------------------------------------------------------------- operators on log-series


def shift_L(lp):
    """lp(L + 1), by Horner's rule in Poly arithmetic."""
    acc = Poly([], lp.one)
    for c in reversed(lp.coeffs):
        acc = acc * Poly([lp.one, lp.one], lp.one) + Poly([c], lp.one)
    return acc


def ref_sigma(s, q):
    """One dilation step: Q^d -> q^d Q^d and L -> L + 1."""
    return LogSeries(s.truncation, [
        NilpotentElement(c.order, [shift_L(lp) * q**d for lp in c.coeffs])
        for d, c in enumerate(s.coeffs)])


def ref_twisted_sigma(s, q):
    """(1 - eps) sigma: eps^i -> eps^i - eps^(i+1), truncated at eps^N."""
    t = ref_sigma(s, q)
    out = []
    for c in t.coeffs:
        lps = c.coeffs
        out.append(NilpotentElement(c.order, [lps[0]] + [lps[i] - lps[i - 1]
                                                         for i in range(1, len(lps))]))
    return LogSeries(s.truncation, out)


def ref_theta(s, q):
    """Q d/dQ with L = log Q: Q^d L^m -> d Q^d L^m + m Q^d L^(m-1)."""
    return LogSeries(s.truncation, [
        NilpotentElement(c.order, [lp * d + lp.derivative() for lp in c.coeffs])
        for d, c in enumerate(s.coeffs)])


def iterated_apply(coeffs, step, q, s):
    """The reference: sum_k c_k(Q) step^k(s), applying the step k times."""
    D = s.truncation
    out = [c.scale(0) for c in s.coeffs]
    current = s
    for k, ck in enumerate(coeffs):
        if k:
            current = step(current, q)
        for j, c in enumerate(ck):
            for d in range(D + 1 - j):
                out[d + j] = out[d + j] + current.coeffs[d].scale(c)
    return LogSeries(D, out)


STEPS = {
    "sigma": (sigma_weight, ref_sigma, True),
    "twisted sigma": (twisted_sigma_weight, ref_twisted_sigma, True),
    "theta": (theta_weight, ref_theta, False),
}


@st.composite
def operator_and_series(draw, exact):
    """A random operator sum_k c_k(Q) step^k and a log-series of L-degree >= 1."""
    one = ONE if exact else F(1)
    entry = dot_factors().map(lambda x: x * ONE) if exact else small_fracs
    N, D = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    lps = st.lists(entry, max_size=3).map(lambda cs: Poly(cs, one))
    rows = [draw(st.lists(lps, min_size=N + 1, max_size=N + 1)) for _ in range(D + 1)]
    d, i = draw(st.integers(0, D)), draw(st.integers(0, N))
    rows[d][i] = Poly([draw(entry), one], one)  # L-degree at least 1
    s = LogSeries(D, [NilpotentElement(N, row) for row in rows])
    coeffs = draw(st.lists(st.lists(entry, max_size=3), min_size=1, max_size=4))
    return coeffs, s


class TestApplyOperator:
    @pytest.mark.parametrize("name", sorted(STEPS))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_closed_form_equals_iterated_step(self, name, data):
        weight, step, exact = STEPS[name]
        coeffs, s = data.draw(operator_and_series(exact))
        q = Q if exact else None
        want = iterated_apply(coeffs, step, q, s)
        assume(not want.is_zero_through(s.truncation))
        got = apply_operator(coeffs, weight, q, s)
        assert got == want
        assert series_to_json(got) == series_to_json(want)

    def test_constant_coefficients_over_the_generator(self):
        # every c_k is a constant of Q(q), so each factor is written directly;
        # c_k n cancels where n = C(m', m) k^(m'-m) is k, and in the second
        # case each output entry is a single product, which rfq_dot does not
        # reduce again
        s = LogSeries(2, [NilpotentElement(1, [Poly([F(k + 1) * ONE, Q], ONE),
                                               Poly([Q / (1 - Q)], ONE)])
                          for k in range(3)])
        zero = Poly([], ONE)
        single = LogSeries(1, [NilpotentElement(1, [zero, zero]),
                               NilpotentElement(1, [Poly([0, ONE], ONE), zero])])
        cases = [([[F(3, 2) * ONE, -2 * ONE], [], [F(5, 2) * ONE], [F(-4, 3) * ONE]], s),
                 ([[], [], [F(5, 2) * ONE]], single)]
        for weight, step in ((sigma_weight, ref_sigma), (twisted_sigma_weight, ref_twisted_sigma)):
            for coeffs, series in cases:
                got = apply_operator(coeffs, weight, Q, series)
                want = iterated_apply(coeffs, step, Q, series)
                assert got == want and series_to_json(got) == series_to_json(want)

    def test_coefficients_that_are_not_constant(self):
        s = LogSeries(2, [NilpotentElement(0, [Poly([ONE, ONE], ONE)])] * 3)
        coeffs = [[(1 + Q) / (1 - Q)], [Q * Q, F(1, 3) * ONE], [1 / (2 + Q)]]
        got = apply_operator(coeffs, sigma_weight, Q, s)
        want = iterated_apply(coeffs, ref_sigma, Q, s)
        assert got == want and series_to_json(got) == series_to_json(want)

    def test_floating_q_keeps_the_order_of_the_generic_product(self):
        # c (n q^e) and (c n) q^e differ in the last bit for these values
        q, one = 0.7, 1.0
        xs = [0.3, -2.7, 1.3]  # x_0 + x_1 L + x_2 L^2 at Q^1
        cs = [0.9, 1.1, -2.7, 3.7]  # c_k of sigma^k
        s = LogSeries(1, [NilpotentElement(0, [Poly([], one)]),
                          NilpotentElement(0, [Poly(xs, one)])])
        got = apply_operator([[c] for c in cs], sigma_weight, q, s).coeffs[1].coeffs[0].coeffs
        for m in range(3):
            want = None
            for k, c in enumerate(cs):
                for mp in range(m, 3):
                    n, e = math.comb(mp, m) * k ** (mp - m), k
                    if n:
                        term = xs[mp] * (c * (n * q ** e if e else n))
                        want = term if want is None else want + term
            assert repr(got[m]) == repr(want)

    def test_sigma_and_theta_methods_are_the_one_step_operator(self):
        one = F(1)
        s = LogSeries(1, [NilpotentElement(1, [Poly([one, F(2)], one), Poly([F(3)], one)])] * 2)
        assert s.sigma(F(3)) == iterated_apply([[], [1]], ref_sigma, F(3), s)
        theta = apply_operator([[], [1]], theta_weight, None, s)
        assert theta == iterated_apply([[], [1]], ref_theta, None, s)

    # each case exercises one branch of the factor table
    TABLE_CASES = {
        # at d = 0 every q^(kd) is 1 and sum_k c_k = 0: the factor of
        # (j, a, d, m', m) = (0, 0, 0, 2, 2) cancels to exactly zero
        "cancelling": ([[ONE], [-3 * ONE], [2 * ONE]], Q),
        "rational": ([[F(3, 2) * ONE, F(-4, 3) * ONE], [F(-4, 3) * ONE], [F(5, 6) * ONE]], Q),
        "exact q": ([[F(3, 2) * ONE], [F(-4, 3) * ONE, 2 * ONE], [F(7, 5) * ONE]], F(3)),
        "q-dependent": ([[Q / (1 - Q), ONE], [F(-4, 3) * ONE], [F(2, 3) * Q**2]], Q),
    }

    @pytest.mark.parametrize("case", sorted(TABLE_CASES))
    @pytest.mark.parametrize("name", ["sigma", "twisted sigma"])
    def test_grouped_factors_equal_the_iterated_step(self, case, name):
        weight, step, _ = STEPS[name]
        coeffs, q = self.TABLE_CASES[case]
        s = LogSeries(2, [NilpotentElement(1, [Poly([F(d + 1) * ONE, Q, F(-1, d + 2) * ONE], ONE),
                                               Poly([Q / (1 - Q), ONE], ONE)])
                          for d in range(3)])
        got = apply_operator(coeffs, weight, q, s)
        want = iterated_apply(coeffs, step, q, s)
        assert got == want and series_to_json(got) == series_to_json(want)
        if case == "cancelling" and name == "sigma":
            assert scalar_is_zero(got.coefficient(0, 0, 2))

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_planted_error_in_j_reaches_both_residuals(self, N):
        # the J-function solves pn_operator(N) exactly; one changed
        # coefficient must leave a nonzero residual, equal to the reference
        D = 4
        coeffs = [a.series(D) for a in pn_operator(N).coeffs]
        binomial = nil_binomial_power(N, ONE)
        rows = jk_series(N, D).coeffs
        for d in range(D + 1):
            for i in range(N + 1):
                plain = LogSeries(D, [NilpotentElement(N, [
                    Poly.const(c + ONE if (dd, ii) == (d, i) else c, ONE)
                    for ii, c in enumerate(row)]) for dd, row in enumerate(rows)])
                modified = LogSeries(D, [nil_mul(binomial, c) for c in plain.coeffs])
                for weight, step, series in ((sigma_weight, ref_sigma, modified),
                                             (twisted_sigma_weight, ref_twisted_sigma, plain)):
                    got = apply_operator(coeffs, weight, Q, series)
                    assert not got.is_zero_through(D)
                    assert got == iterated_apply(coeffs, step, Q, series)
