"""Golden SHA-256 digests of exact outputs.

Every exact output of the package (J-function coefficient tables, the P^2
correspondence table, Frobenius gauge terms on both sides of the confluence)
is a rational function of q or a rational number, so a refactor must leave
it byte-identical.  The digests below pin that; no floating output enters
them.
"""

import hashlib

import pytest

from qonf.cli import main
from qonf.confluence import check_confluent, ode_frobenius_solution, pn_j_system
from qonf.qdiff import frobenius_solution


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
