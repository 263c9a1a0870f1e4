"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Every criterion is a set of named checks of the ``qonf verify`` suites in
:mod:`qonf.verification`, run here at the criterion's own seed (and, for
criterion 3, its own q grid).  Each suite runs once per module.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import functools

from qonf import gw
from qonf.verification import run_suites, suite_qspecial

# criterion -> [(suite, seed, check names)]
CRITERIA = {
    1: [("gw-exact", 0, ["N_d values d<=8"])],
    2: [("gw-exact", 0, ["WDVV residual zero to E^4"]
         + [f"WDVV detects perturbed N_{d}" for d in range(1, 5)])],
    3: [("qspecial", 3, ["theta shift law (5x5 grid)", "character shift law (5x5 grid)",
                         "q-log increment (5x5 grid)", "Jacobi triple product (10 points)"])],
    4: [("confluence", 0, ["Pochhammer limit (1-q)^d/(q;q)_d -> 1/d! (d<=12)",
                           "Pochhammer path limit 1/((1-q)Q;q)_inf -> e^Q (Q = 0.1, 0.3, 0.5)"])],
    5: [("confluence", 0, ["q-log limit (q-1) qlog(2) -> log 2",
                           "character limit e_(q,q^mu)(3) -> 3^mu (mu = 0.5, -1, 2+i)"])],
    6: [("gw-exact", 0, ["closed formula = series oracle (N<=4, D<=8)"])],
    7: [("gw-exact", 0, ["q-difference equation residual (N<=4, D<=8)",
                         "differential equation residual (N<=4, D<=8)"]),
        ("gw-equivariant", 7, ["equivariant equation residual (3 random specs)"])],
    8: [("gw-exact", 0, [f"confluence_compare N={N} D=6: exact match" for N in range(5)])],
    9: [("gw-equivariant", 7, [f"equivariant confluence match N={N} d<=4" for N in (1, 2)])],
    10: [("qdiff", 10, [
        f"frobenius {check} [{name}]"
        for name in ("pochhammer-raw", "pochhammer-scaled", "irregular-limit", "pn-j N=2")
        for check in ("gauge identity", "shift residual", "solution nondegenerate")
    ] + ["q-hypergeometric basis at 0 solves the equation",
         "q-hypergeometric basis at infinity solves the equation", "Casoratians nonzero"])],
    11: [("confluence", 0, [
        "monodromy root Taylor data",
        "monodromy solution limit (six points)",
        "monodromy solution limit / display form constant per component",
        "monodromy connection-matrix limit (six points)",
        "monodromy branch unit |u| = 1",
        "monodromy branch unit u^4 = 1",
        "monodromy connection-matrix limit locally constant",
    ])],
}

# wall-clock bounds in seconds on the named checks of a criterion together
TIME_BOUNDS = {1: 1.0, 8: 60.0}

SHIFT_LAW_QS = (0.15, 0.35, 0.55, 0.75, 0.9)


@functools.cache
def suite_results(suite: str, seed: int) -> dict:
    if suite == "qspecial":  # the q grid is an input of the suite, not of run_suites
        results = suite_qspecial(seed, qs=SHIFT_LAW_QS)
    else:
        results = run_suites([suite], seed)
    return {r.name: r for r in results}


def check_criterion(number: int):
    results = [suite_results(suite, seed)[name]
               for suite, seed, names in CRITERIA[number] for name in names]
    passed = all(r.passed for r in results)
    detail = "; ".join(f"{'' if r.passed else 'FAILED '}{r.name}: {r.detail}" for r in results)
    if number in TIME_BOUNDS:
        seconds = sum(r.seconds for r in results)
        passed = passed and seconds < TIME_BOUNDS[number]
        detail += f"; {seconds:.3f} s (bound {TIME_BOUNDS[number]:g} s)"
    print(f"criterion {number:2d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_1_nd_values():
    check_criterion(1)


def test_criterion_2_wdvv():
    check_criterion(2)


def test_criterion_3_shift_laws():
    check_criterion(3)


def test_criterion_4_pochhammer_confluence():
    check_criterion(4)


def test_criterion_5_special_function_limits():
    check_criterion(5)


def test_criterion_6_oracle_equivalence():
    check_criterion(6)


def test_criterion_7_functional_equations():
    check_criterion(7)


def test_criterion_8_main_theorem():
    table = gw.confluence_compare(2, 6).p2_table()
    print("\nplane correspondence table (eps-columns vs 1, H, H^2):")
    print(f"  {table[0]['basis']};  {table[0]['prefactor']}")
    for col in table[1:]:
        print(f"  eps^{col['eps_power']}:")
        for e in col["entries"]:
            print(
                f"    Q^{e['d']}: {e['k_side']}  --(q->1)-->  {e['limit']} * z^{e['z_exponent']}"
                f"  ==  {e['coh_side']} * z^{e['z_exponent']}  [{'ok' if e['equal'] else 'MISMATCH'}]"
            )
    check_criterion(8)


def test_criterion_9_equivariant_theorem():
    check_criterion(9)


def test_criterion_10_frobenius_machinery():
    check_criterion(10)


def test_criterion_11_monodromy_example():
    check_criterion(11)


def test_every_computed_check_passes():
    """Each suite run above computes more checks than its criteria name."""
    runs = sorted({(suite, seed) for table in CRITERIA.values() for suite, seed, _ in table})
    failed = [f"{suite} (seed {seed}): {r.name}: {r.detail}"
              for suite, seed in runs for r in suite_results(suite, seed).values()
              if not r.passed]
    assert not failed, failed
