"""Golden SHA-256 digests of exact outputs.

Every exact output of the package (J-function coefficient tables, the P^2
correspondence table, Frobenius gauge terms on both sides of the confluence,
the series solutions of scalar operators) is a rational function of q or a
rational number, so a refactor must leave it byte-identical.  The digests
below pin that.  The floating paths of :mod:`qonf.polyq` promise the same
rounding whatever their loops look like, so the parsed systems and one
numeric gauge are pinned by their reprs too, signed zeros included.
"""

import hashlib

import pytest

from qonf.cli import main
from qonf.confluence import builtin_system, check_confluent, ode_frobenius_solution, pn_j_system
from qonf.gw import confluence_compare, pn_operator
from qonf.polyq import parse_bivariate
from qonf.qdiff import (
    QDifferenceSystem,
    ScalarQOperator,
    frobenius_log_solutions,
    frobenius_solution,
    solve_scalar_series,
    system_from_json,
)
from qonf.rings import RationalFunctionQ


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "argv, want",
    [
        (("jfn", "--kind", "kth", "--N", "3", "--D", "4"),
         "4e8f96c0892a33a1c92a3803d1cb54f6e1ad8cb51712b57efda1671734e81cad"),
        (("jfn", "--kind", "kth-modified", "--N", "3", "--D", "4"),
         "2b342e63e1041a1e90a3064a33d747e3fa693b7c3077bc955f6e90fc55ef9799"),
        (("jfn", "--kind", "coh", "--N", "3", "--D", "4"),
         "5f6d9293b7437cbd3a0b4d27c314dc39327d97ac8d772ef732b23dca982efc9a"),
        (("compare", "--N", "2", "--D", "6", "--table"),
         "8d19f50df44cf720f681984c3be3e65dcbb9ce3229ba19382678a205216876fa"),
    ],
)
def test_cli_stdout(capsys, argv, want):
    assert main(list(argv)) == 0
    assert digest(capsys.readouterr().out) == want


Q_GAUGE = "7d926b5f20168b57850a7cbcb4e459f896613f2ec68df18418b4c4c6aa499e12"
ODE_GAUGE = "205d50e1db7046fc29055d01de365f7caf3b615e55d3fe63efd1aac6119535ec"


def test_gauge_terms_on_both_sides():
    """The q-side gauge of pn_j_system(2) and the ODE-side gauge of its
    q -> 1 limit system, both through Q^6."""
    qsys = pn_j_system(2)
    qsol = frobenius_solution(qsys, 6)
    osol = ode_frobenius_solution(check_confluent(qsys, 0.8).limit_system, 6)
    assert digest(repr(qsol.gauge.terms)) == Q_GAUGE
    assert digest(repr(osol.gauge.terms)) == ODE_GAUGE


def test_deep_gauge_terms_on_both_sides():
    """The q-side gauge of pn_j_system(2) through Q^16, and the ODE-side
    gauge of the q -> 1 limit of pn_j_system(3) through Q^10."""
    qsol = frobenius_solution(pn_j_system(2), 16)
    osol = ode_frobenius_solution(check_confluent(pn_j_system(3), 0.8).limit_system, 10)
    assert digest(repr(qsol.gauge.terms)) == (
        "bbf589c1000e8455b6ae8d75b174c944cb88f634dd5ded537931dc8806732f80")
    assert digest(repr(osol.gauge.terms)) == (
        "48eff688ea459751616149d2c68f03a198985d674796c0aa7ff0b09e894b3999")


# seed-11 system #1 of the user-systems benchmark workload
RANK1_DOC = {"n": 1, "q": "q", "entries": [{"i": 0, "j": 0, "entry": (
    "1 + 2*(q-1) + (q-1)*(3*Q)/((5 + 3*q^1 + 4*q^2) + (3 + 4*q^1)*Q)")}]}
# seed-11 system #4 of the same workload: row 1 has the Q-denominator
RANK2_DOC = {"n": 2, "q": "q", "entries": [
    {"i": 0, "j": 0, "entry": "1 + (q-1)*(3*Q)/(6 + 3*q^1 + 4*q^2)"},
    {"i": 0, "j": 1, "entry": "(q-1)*(1 + Q/(6 + 3*q^1))"},
    {"i": 1, "j": 0, "entry": "(q-1)*Q*(5 + 4*q^1)/((6 + 3*q^1 + 4*q^2) + Q)"},
    {"i": 1, "j": 1, "entry": "1"},
]}


def test_gauge_terms_with_q_denominators():
    """Gauges of systems with a pole in Q: irregular-limit through Q^24, the
    rank-1 document through Q^30, and the ODE-side gauges of the q -> 1
    limits of 1 + (q-1) Q/(Q-2)^2 through Q^30 and of the rank-2 document
    through Q^12."""
    irregular = frobenius_solution(builtin_system("irregular-limit"), 24)
    assert digest(repr(irregular.gauge.terms)) == (
        "5b9a70e63a9f5a39f281205830842eb840a16f455400f4166de321c7c2a1cf95")
    rank1 = frobenius_solution(system_from_json(RANK1_DOC), 30)
    assert digest(repr(rank1.gauge.terms)) == (
        "8ca8f7d4e205cabc52a04706fa677e503628bed829e58620196ce243c60d42ba")
    double_pole = QDifferenceSystem(((parse_bivariate("1 + (q-1)*Q/(Q-2)^2"),),),
                                    RationalFunctionQ.q())
    osol = ode_frobenius_solution(check_confluent(double_pole, 0.8).limit_system, 30)
    assert digest(repr(osol.gauge.terms)) == (
        "9b868e7f987cdd9a5c83d7f576d520ebe36488099649e2d4c372ca23d1a0184f")
    osol = ode_frobenius_solution(
        check_confluent(system_from_json(RANK2_DOC), 0.8).limit_system, 12)
    assert digest(repr(osol.gauge.terms)) == (
        "0933fab91f54f2f92cfee83c2a251cd4e03c52a650001af80f9c35ea9e72d21b")


EXACT_DOC = {"n": 2, "q": "q", "entries": [
    {"i": 0, "j": 0, "entry": "1 + (q-1)*(3*Q)/(3 + 4*q + 5*q^2)"},
    {"i": 0, "j": 1, "entry": "(q-1)*(1 + Q/(2 + q))"},
    {"i": 1, "j": 0, "num": "(q-1)*Q*(4 + 5*q)", "den": "(3 + 4*q + 5*q^2) + Q"},
    {"i": 1, "j": 1, "entry": "1.25 - q^-2*Q^2/(1 - q)^3 + 3/4*q"},
]}
NUMERIC_DOC = {"n": 2, "q": [0.41, 0.37], "entries": [
    {"i": 0, "j": 0, "entry": "1.25 + Q/(3 + Q)"},
    {"i": 0, "j": 1, "entry": "Q/(2*q^2 + q + 5)"},
    {"i": 1, "j": 0, "num": "Q*(1 - q)", "den": "4*q^2 + q + 3 - Q"},
    {"i": 1, "j": 1, "entry": "2.2 + Q/(4 + Q)"},
]}


def test_parsed_systems():
    """system_from_json of an exact and a numeric-q document, entry reprs
    included (the numeric entries are complex)."""
    assert digest(repr(system_from_json(EXACT_DOC))) == (
        "ba9016d7deace74789134de03dba5de4a0caa64c3aa28b2a2dd23101b4a3c571")
    assert digest(repr(system_from_json(NUMERIC_DOC))) == (
        "360526881b6c273d99c7d19e0445317e3ec2ab3826e0194be636d744d36648dc")


def test_numeric_gauge_terms():
    """The complex gauge of the numeric document through Q^40: series of
    its entries, mat_dot sums and Gauss-Jordan solves, all in floats."""
    sol = frobenius_solution(system_from_json(NUMERIC_DOC), 40)
    assert digest(repr(sol.gauge.terms)) == (
        "bc87c07c38fe5510ba3c27d6ae04ecb03aba2903f768e5021d5e2e8b13bd98f6")


def test_numeric_rank1_log_near_one():
    """A numeric 1 x 1 A(0) within the unipotent tolerance of 1 but not 1:
    the terminating log series of a 1 x 1 matrix has no terms, so the
    solution is unipotent with log exactly zero."""
    sol = frobenius_solution(system_from_json({"n": 1, "q": [0.5, 0.1], "entries": [
        {"i": 0, "j": 0, "entry": "1000000000001/1000000000000 + Q/(3 + Q)"}]}), 6)
    assert sol.kind == "unipotent"
    assert repr(sol.nilpotent_log) == "[[0j]]"


def test_comparison_rows():
    """Every row of the exact q -> 1 comparison of P^4 through Q^12: the
    scaled q-side coefficient, its limit and the classical coefficient."""
    rep = confluence_compare(4, 12)
    assert rep.all_equal and len(rep.rows) == 195
    assert digest(repr(rep.rows)) == (
        "93c4c500b323260a3264ff7d7f4470cecaf46d208b1059f1035b1a9317339196")


@pytest.mark.parametrize("N, want", [
    (0, "a53d32e1051ca3f2ac46cd5552bbd953b0e129d39c9164d87b85ab8216a7e8fc"),
    (1, "df07527608b19d59d3539eefd3e6848493b9f8c8ea351a7e25802c42c22a8dd8"),
    (2, "b7711a15eeeed60731deaf0ade6454c1c871e81f735bde6a8099be4aa47b1eb4"),
    (3, "dbd7f2121b9efde5b28c6b625bccfbfaa2bc74f6025e5f92b2c3a698bf74a654"),
    (4, "6fe323e9dbe0a23983dffc6a511e3db81a87e026010c4bece70ab9f2b269f391"),
])
def test_frobenius_log_solutions(N, want):
    """The N + 1 log-series solutions of (1 - sigma)^(N+1) - Q through Q^8,
    every L-coefficient of every degree."""
    sols = frobenius_log_solutions(pn_operator(N), 8)
    assert digest(repr([s.coeffs for s in sols])) == want


@pytest.mark.parametrize("texts, want", [
    (("2 - Q", "-3", "1"),
     "cd510aa6701782b8e116bbda4d347a9c5dc166938a8991d6d3b887f1d804da4a"),
    (("1 - Q", "-3 + 2*Q/(1+Q)", "3 + q^2*Q", "-1 + Q^2/(3+q)"),
     "3ab8a4288c9daddc4536d8e5cb32554042bee864011e17ac7fbb004cf4a72638"),
])
def test_taylor_solutions(texts, want):
    """The Taylor solution through Q^8 of an operator with indicial roots 1
    and 2, and of one of order 3 with Q-dependent rational coefficients."""
    op = ScalarQOperator(tuple(parse_bivariate(t) for t in texts), RationalFunctionQ.q())
    assert digest(repr(solve_scalar_series(op, 8).coeffs)) == want
