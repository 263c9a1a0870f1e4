"""polyq against the constructions it replaced.

The parser keeps a Q-free node as a RationalFunctionQ, RatFunc's
operators skip the gcd against an exact scalar, and the float paths sum
without intermediate matrices; each must give what the old construction
gives: the same canonical RatFunc (under == and repr), the
same error, or the same float bits (compared by repr, so signed zeros
show).
"""

import re
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from qonf.polyq import (
    MatrixSeries,
    Poly,
    RatFunc,
    _ratfunc_pow,
    mat_dot,
    parse_bivariate,
)
from qonf.rings import RationalFunctionQ, one_like, zero_like

ONE = RationalFunctionQ.one()
CAPS = (1000, 1000)


# ---------------------------------------------------------------- the reference parser


def ref_reduce(num: Poly, den: Poly) -> RatFunc:
    """num / den with the Euclidean gcd always run and a monic denominator."""
    if num.is_zero:
        return RatFunc(Poly([], ONE), Poly([ONE], ONE), _canonical=True)
    g = num.gcd(den)
    num, den = num.divmod(g)[0], den.divmod(g)[0]
    inv = ONE / den.coeffs[-1]
    return RatFunc(num * inv, den * inv, _canonical=True)


def ref_op(a: RatFunc, op: str, b: RatFunc) -> RatFunc:
    if op == "+":
        return ref_reduce(a.num * b.den + b.num * a.den, a.den * b.den)
    if op == "-":
        return ref_reduce(a.num * b.den - b.num * a.den, a.den * b.den)
    if op == "*":
        return ref_reduce(a.num * b.num, a.den * b.den)
    if b.num.is_zero:
        raise ZeroDivisionError("division by the zero rational function")
    return ref_reduce(a.num * b.den, a.den * b.num)


def ref_const(c) -> RatFunc:
    return RatFunc(Poly([c], ONE), Poly([ONE], ONE), _canonical=True)


def ref_pow(node: RatFunc, k: int) -> RatFunc:
    out = ref_const(ONE)
    for _ in range(k):
        out = ref_op(out, "*", node)
    return out


def ref_check_exponent(node: RatFunc, k: int, caps) -> None:
    coeffs = node.num.coeffs + node.den.coeffs
    q_degree = max(len(p) for c in coeffs for p in c.integer_pair()) - 1
    Q_degree = max(node.num.degree, node.den.degree)
    if not q_degree and not Q_degree:
        q_degree = 1
    for name, degree, cap in (("q", q_degree, caps[0]), ("Q", Q_degree, caps[1])):
        if k * degree > cap:
            raise ValueError(f"{name}-exponent {k * degree} exceeds the limit {cap}")


def ref_parse(text: str, caps=None) -> RatFunc:
    """The grammar of parse_bivariate with every node a RatFunc, powers as
    repeated products."""
    s = text.replace(" ", "")
    pos = 0

    def peek():
        return s[pos] if pos < len(s) else ""

    def take():
        nonlocal pos
        ch = peek()
        pos += 1
        return ch

    def expr():
        node = term()
        while peek() and peek() in "+-":
            op = take()
            node = ref_op(node, op, term())
        return node

    def term():
        node = factor()
        while peek() and peek() in "*/":
            op = take()
            node = ref_op(node, op, factor())
        return node

    def factor():
        node = base()
        if peek() == "^":
            take()
            sign = 1
            if peek() == "-":
                take()
                sign = -1
            digits = ""
            while peek().isdigit():
                digits += take()
            k = int(digits)
            if caps is not None:
                ref_check_exponent(node, k, caps)
            power = ref_pow(node, k)
            node = power if sign * k >= 0 else ref_op(ref_const(ONE), "/", power)
        return node

    def base():
        ch = peek()
        if ch == "(":
            take()
            node = expr()
            assert take() == ")"
            return node
        if ch == "-":
            take()
            node = base()
            return RatFunc(-node.num, node.den, _canonical=True)
        if ch == "+":
            take()
            return base()
        if ch == "q":
            take()
            return ref_const(RationalFunctionQ.q())
        if ch == "Q":
            take()
            return RatFunc(Poly([0 * ONE, ONE], ONE), Poly([ONE], ONE), _canonical=True)
        digits = ""
        while peek().isdigit() or peek() == ".":
            digits += take()
        return ref_const(RationalFunctionQ.from_fraction(Fraction(digits)))

    node = expr()
    assert pos == len(s)
    return node


def outcome(parse, text, caps=None):
    """The repr of the parsed value, or the type and message of its error."""
    try:
        value = parse(text, caps)
    except (ZeroDivisionError, ValueError) as exc:
        return type(exc).__name__, str(exc), None
    return "value", repr(value), value


def assert_same_outcome(text, caps=None):
    kind, got, value = outcome(parse_bivariate, text, caps)
    want_kind, want, want_value = outcome(ref_parse, text, caps)
    assert (kind, got) == (want_kind, want), text
    if kind == "value":
        assert type(value) is RatFunc and value == want_value


# ---------------------------------------------------------------- random expressions


atoms = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from(["0.5", "1.25", ".75", "2.0", "0.0"]),
    st.sampled_from(["q", "Q"]),
)


def extend(sub):
    paren = sub.map(lambda e: f"({e})")
    return st.one_of(
        st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: f"{t[0]}{t[1]}{t[2]}"),
        st.tuples(paren, st.sampled_from(["", "-"]), st.integers(0, 3))
        .map(lambda t: f"{t[0]}^{t[1]}{t[2]}"),
        paren.map(lambda e: f"-{e}"),
        paren,
    )


expressions = st.recursive(atoms, extend, max_leaves=8)


class TestScalarFirstParser:
    @given(expressions)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_all_ratfunc_construction(self, text):
        assert_same_outcome(text)

    @pytest.mark.parametrize("text", [
        "1/(q-q)", "(q-q)^-1", "q/(Q-Q)", "0/q", "--q", "3/4*q^-2", "1.25/(q+1)",
        "(Q-Q)^-2", "(q-q)^0", "(q-q)^-0", "Q/(q-q)", "(q-q)/Q", "1-Q+Q", "2*Q/(4*Q)",
        "(Q^2-1)/(Q-1)", "q*(1+Q)/(q+q*Q)", "(1 + 2*q)/(3*Q - Q*3)",
    ])
    def test_fixed_cases(self, text):
        assert_same_outcome(text)

    @pytest.mark.parametrize("text", [
        "(q^100)^100", "1 + Q^5000", "2^100000", "1/(1 - q)^2000", "(1+Q)^12", "q^-1000",
    ])
    def test_exponent_caps(self, text):
        assert_same_outcome(text, CAPS)

    def test_syntax_errors_are_unchanged(self):
        for text, message in [("(q", "unbalanced parentheses in '(q'"),
                              ("q^", "expected integer at 2 in 'q^'"),
                              ("q)", "trailing input in 'q)'"),
                              ("q#", "trailing input in 'q#'"),
                              ("#", "unexpected character '#' in '#'")]:
            with pytest.raises(ValueError, match=re.escape(message)):
                parse_bivariate(text)


def rfq(a, b, c, d):
    q = RationalFunctionQ.q()
    return (a + b * q) / (c + d * q)


small_ints = st.integers(-3, 3)
exact_scalars = st.one_of(
    small_ints,
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
    st.tuples(small_ints, small_ints, st.integers(1, 3), small_ints).map(lambda t: rfq(*t)),
    st.tuples(small_ints, small_ints, st.integers(1, 3), small_ints)
    .map(lambda t: RatFunc.const(rfq(*t), ONE)),
)


def outcome_of(fn):
    try:
        return repr(fn())
    except ZeroDivisionError as exc:
        return "ZeroDivisionError", str(exc)


class TestScalarOperands:
    """RatFunc op scalar skips the gcd; it must give the general path's pair."""

    @staticmethod
    def as_ratfunc(c):
        return c if isinstance(c, RatFunc) else ref_const(c * ONE)

    @given(expressions, exact_scalars, st.sampled_from("+-*/"))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_general_path(self, text, c, op):
        try:
            f = ref_parse(text)
        except ZeroDivisionError:
            assume(False)
        ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
               "*": lambda a, b: a * b, "/": lambda a, b: a / b}
        cf = self.as_ratfunc(c)
        assert outcome_of(lambda: ops[op](f, c)) == outcome_of(lambda: ref_op(f, op, cf))
        if not isinstance(c, RatFunc):  # a RatFunc scalar on the left is the plain f op g
            assert outcome_of(lambda: ops[op](c, f)) == outcome_of(lambda: ref_op(cf, op, f))

    @pytest.mark.parametrize("c", [0, Fraction(0), RationalFunctionQ.zero(),
                                   RatFunc.const(RationalFunctionQ.zero(), ONE)],
                             ids=["int", "Fraction", "RationalFunctionQ", "RatFunc"])
    def test_zero_scalars(self, c):
        for text in ("(1 + q*Q)/(2 - Q)", "Q", "q", "Q - Q"):
            f = parse_bivariate(text)
            cf = self.as_ratfunc(c)
            for op, fn in (("+", f.__add__), ("-", f.__sub__), ("*", f.__mul__),
                           ("/", f.__truediv__)):
                assert outcome_of(lambda: fn(c)) == outcome_of(lambda: ref_op(f, op, cf))
            assert repr(c * f) == repr(ref_op(cf, "*", f))
            assert repr(c - f) == repr(ref_op(cf, "-", f))


class TestBinaryPowering:
    @pytest.mark.parametrize("text", ["(1 + q*Q)/(2 - Q)", "Q", "1 + Q", "q", "Q - Q", "3/(q*Q)"])
    def test_equals_repeated_product(self, text):
        node = parse_bivariate(text)
        for k in range(13):
            want = ref_pow(node, k)
            got = _ratfunc_pow(node, k)
            assert repr(got) == repr(want) and got == want


# ---------------------------------------------------------------- float bits


# signed zeros, alone and beside a nonzero part: the values whose bits an
# added zero or a product by 1 + 0j can flip
SIGNED_ZEROS = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0j,
                complex(-0.0, -1.5), complex(-0.0, 2.0), complex(1.5, -0.0)]
floats = st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False)
complexes = st.one_of(st.builds(complex, floats, floats), st.sampled_from(SIGNED_ZEROS))


def complex_matrix(n):
    return st.lists(st.lists(complexes, min_size=n, max_size=n), min_size=n, max_size=n)


def old_mat_mul(A, B):
    cols = list(zip(*B))
    out = []
    for row in A:
        out_row = []
        for col in cols:
            acc = row[0] * col[0]
            for k in range(1, len(col)):
                acc = acc + row[k] * col[k]
            out_row.append(acc)
        out.append(out_row)
    return out


def old_mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def old_series(f: RatFunc, D: int) -> list:
    inv = one_like(f.one) / f.den.evaluate(zero_like(f.one))
    if f.den.degree == 0:
        return [f.num.coeff(k) * inv for k in range(D + 1)]
    out = []
    for k in range(D + 1):
        acc = f.num.coeff(k)
        for j in range(1, k + 1):
            acc = acc - f.den.coeff(j) * out[k - j]
        out.append(acc * inv)
    return out


class TestFloatBits:
    @given(st.data(), st.sampled_from([2, 3]), st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_mat_dot_keeps_the_mat_add_chain(self, data, n, count):
        pairs = [(data.draw(complex_matrix(n)), data.draw(complex_matrix(n))) for _ in range(count)]
        want = old_mat_mul(*pairs[0])
        for A, B in pairs[1:]:
            want = old_mat_add(want, old_mat_mul(A, B))
        assert repr(mat_dot(pairs, n, 1 + 0j)) == repr(want)

    @given(st.lists(complexes, max_size=6), st.lists(complexes, max_size=5),
           st.one_of(st.just(1 + 0j), st.builds(complex, floats, floats).filter(lambda z: abs(z) > 0.5)))
    @settings(max_examples=80, deadline=None)
    def test_series_keeps_the_recurrence(self, num, den, d0):
        f = RatFunc(Poly(num, 1 + 0j), Poly([d0] + den, 1 + 0j))
        assert repr(f.series(40)) == repr(old_series(f, 40))

    @given(st.data(), st.integers(0, 6), complexes)
    @settings(max_examples=60, deadline=None)
    def test_evaluate_keeps_the_horner_order(self, data, D, x):
        terms = [data.draw(complex_matrix(2)) for _ in range(D + 1)]
        want = [row[:] for row in terms[-1]]
        for m in range(D - 1, -1, -1):
            want = old_mat_add([[a * x for a in row] for row in want], terms[m])
        assert repr(MatrixSeries(terms, 1 + 0j).evaluate(x)) == repr(want)


class TestExactSeries:
    @pytest.mark.parametrize("text", ["(1 + q*Q)/(2 - Q + q*Q^3)", "Q^2/(1 - q*Q)", "(3 - Q)/q",
                                      "1 + Q^7", "0*Q", "1/(1 - Q)^3"])
    def test_equals_the_recurrence(self, text):
        f = parse_bivariate(text)
        want = old_series(f, 12)
        got = f.series(12)
        assert len(got) == 13 and all(type(c) is RationalFunctionQ for c in got)
        assert got == want
