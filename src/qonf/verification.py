"""Named verification checks, grouped into the suites the CLI exposes.

Each check returns a :class:`CheckResult` with a residual-style detail
string; suites are deterministic given the seed.  These suites back the CLI
`verify` command only: the acceptance tests in ``tests/test_acceptance.py``
check the same criteria with their own implementations and inputs (other RNG
seeds and q grids), so the two can disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import confluence as cfl
from . import gw
from .polyq import parse_bivariate, ratfunc_matrix_series
from .qdiff import (
    QDifferenceSystem,
    QHypergeometricSpec,
    ScalarQOperator,
    casoratian,
    frobenius_log_solutions,
    frobenius_solution,
    gauge_residual_series,
    operator_residual,
    qhg_bases,
    qhg_operator,
)
from .qspecial import (
    jacobi_triple_product_check,
    q_character,
    q_log,
    qpoch_infinite,
    theta,
    theta_residual_scale,
)
from .rings import Poly, RationalFunctionQ as R, binom_l, limit_q_to_1


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def as_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _ok(name, residual, tol) -> CheckResult:
    return CheckResult(name, residual < tol, f"residual {residual:.3e} (tol {tol:g})")


# ---------------------------------------------------------------- qspecial suite


def suite_qspecial(seed: int = 0) -> list[CheckResult]:
    out = []
    qs = [0.1, 0.3, 0.5, 0.7, 0.9]
    Qs = [0.7 + 0.4j, 1.3 - 0.2j, -0.6 + 0.9j, 2.1 + 0.7j, 0.45 - 1.1j]
    worst_theta = worst_char = worst_log = 0.0
    for q in qs:
        for Q in Qs:
            worst_theta = max(worst_theta, abs(theta(q, q * Q) * Q - theta(q, Q)) / abs(theta(q, Q)))
            lam = 0.8 + 0.3j
            worst_char = max(
                worst_char,
                abs(q_character(lam, q, q * Q) - lam * q_character(lam, q, Q))
                / abs(lam * q_character(lam, q, Q)),
            )
            worst_log = max(worst_log, abs(q_log(q, q * Q) - q_log(q, Q) - 1))
    out.append(_ok("theta shift law (5x5 grid)", worst_theta, 1e-10))
    out.append(_ok("character shift law (5x5 grid)", worst_char, 1e-10))
    out.append(_ok("q-log increment (5x5 grid)", worst_log, 1e-10))

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        q = rng.uniform(0.05, 0.9)
        Q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(Q) < 0.1:
            Q += 0.5
        worst = max(worst, jacobi_triple_product_check(q, Q))
    out.append(_ok("Jacobi triple product (10 points)", worst, 1e-10))

    worst = max(
        theta_residual_scale(q, -(q**k)) for q in (0.35, 0.8) for k in range(-2, 3)
    )
    out.append(_ok("theta zeros on -q^Z", worst, 1e-8))

    worst = 0.0
    for _ in range(10):
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        q = rng.uniform(0.1, 0.8)
        lhs = (1 - a) * qpoch_infinite(q * a, q)
        worst = max(worst, abs(lhs - qpoch_infinite(a, q)) / max(abs(lhs), 1e-30))
    out.append(_ok("Pochhammer product recursion", worst, 1e-10))

    q0, Qv = 0.8, 2.0
    errs = [abs((q0**t - 1) * q_log(q0**t, Qv) - math.log(Qv)) for t in (2**-8, 2**-9, 2**-10)]
    ratios = [errs[i + 1] / errs[i] for i in range(2)]
    good = all(0.35 < r < 0.65 for r in ratios)
    out.append(CheckResult("q-log limit linear rate", good, f"halving ratios {ratios}"))
    return out


# ---------------------------------------------------------------- qdiff suite


def suite_qdiff(seed: int = 0) -> list[CheckResult]:
    out = []
    # exact gauge identities for the three builtin confluence examples
    for name in ("pochhammer-raw", "pochhammer-scaled", "irregular-limit"):
        sys = cfl.builtin_system(name)
        sol = frobenius_solution(sys, 24)
        res = gauge_residual_series(sys, sol.gauge.inverse(), _a0_of(sys))
        out.append(
            CheckResult(f"frobenius gauge identity [{name}]", res.is_zero(), "exact to order 24")
        )
        num = sol.shift_residual(0.15, q_num=0.6)
        out.append(_ok(f"frobenius shift residual [{name}]", num, 1e-8))
    sys = cfl.pn_j_system(2, Fraction(1))
    sol = frobenius_solution(sys, 6)
    res = gauge_residual_series(sys, sol.gauge.inverse(), _a0_of(sys))
    out.append(CheckResult("frobenius gauge identity [pn-j N=2]", res.is_zero(), "exact to order 6"))
    out.append(_ok("frobenius shift residual [pn-j N=2]", sol.shift_residual(0.2, q_num=0.7), 1e-8))

    rng = np.random.default_rng(seed)
    q = 0.35
    a = tuple(complex(rng.uniform(0.2, 1.8), rng.uniform(-0.5, 0.5)) for _ in range(2))
    b = (complex(rng.uniform(0.4, 1.5), rng.uniform(-0.5, 0.5)),)
    spec = QHypergeometricSpec(a, b)
    op = qhg_operator(spec, q)
    base0, base_inf = qhg_bases(spec, q, 220)
    worst0 = max(operator_residual(op, y, 0.4 + 0.2j) for y in base0)
    out.append(_ok("q-hypergeometric basis at 0 solves the equation", worst0, 1e-8))
    worst_inf = max(operator_residual(op, y, 9 - 4j) for y in base_inf)
    out.append(_ok("q-hypergeometric basis at infinity solves the equation", worst_inf, 1e-8))
    c0 = abs(casoratian(base0, q, 0.4 + 0.2j))
    cinf = abs(casoratian(base_inf, q, 9 - 4j))
    out.append(CheckResult("Casoratians nonzero", min(c0, cinf) > 1e-8, f"{c0:.3e}, {cinf:.3e}"))
    return out


def _a0_of(sys: QDifferenceSystem):
    return ratfunc_matrix_series([list(r) for r in sys.A], 0).terms[0]


# ---------------------------------------------------------------- confluence suite


def suite_confluence(seed: int = 0) -> list[CheckResult]:
    out = []
    q0 = 0.8
    verdicts = {
        "pochhammer-raw": (False, "limit_exists"),
        "pochhammer-scaled": (True, None),
        "irregular-limit": (False, "limit_regular_singular"),
    }
    for name, (want, failing) in verdicts.items():
        rep = cfl.check_confluent(cfl.builtin_system(name), q0)
        ok = rep.confluent is want
        if failing is not None:
            ok = ok and getattr(rep, failing).status == "fail"
        out.append(CheckResult(f"confluence verdict [{name}]", ok, f"confluent={rep.confluent}"))
    rep = cfl.check_confluent(cfl.builtin_system("pn-j", N=3), q0)
    ok = rep.confluent and rep.limit_system.B[3][0] == parse_bivariate("Q").map_coeffs(
        lambda c: c.limit_q_to_1(), Fraction(1)
    )
    out.append(CheckResult("confluence verdict [pn-j N=3]", ok, "limit is the order-4 ODE system"))

    err = cfl.asymptotic_qpoch_ratio_check(2 + 1j, 0.1 + 0.2j, -0.4, q0, t=2.0**-14)
    out.append(_ok("Pochhammer ratio asymptotics vs path", err, 1e-4))
    err = cfl.asymptotic_theta_ratio_check(2 + 1j, 0.1 + 0.2j, -0.4, q0, t=2.0**-14)
    out.append(_ok("theta ratio asymptotics vs path", err, 1e-4))

    ex = cfl.MonodromyCubicExample(q0=q0)
    alpha = ex.alpha_taylor_data()
    want = [
        (cfl.QI_ONE, (cfl.QI_ONE + cfl.QI_I) / 4),
        (-cfl.QI_I, cfl.QI_I / 2),
        (-cfl.QI_ONE, -(cfl.QI_ONE - cfl.QI_I) / 4),
    ]
    out.append(CheckResult("monodromy root Taylor data", alpha == want, "exact degree-1 match"))

    sched = tuple(2.0**-j for j in range(6, 12))
    worst = 0.0
    for Qv in (1 + 2j, -3j):
        res = cfl.limit_solution_along_path(ex.solution_at_0, q0, Qv, sched,
                                            excluded_spirals=ex.excluded_spirals)
        want_v = ex.solution_limit_closed_form(Qv)
        worst = max(worst, abs(res.value - want_v) / abs(want_v))
    out.append(_ok("monodromy solution limit", worst, 1e-3))

    sched = tuple(2.0**-j for j in range(8, 13))
    worst = 0.0
    for Qv in (1 + 2j, -1 + 2j, -3j):
        res = cfl.limit_solution_along_path(ex.birkhoff_theta_form, q0, Qv, sched,
                                            excluded_spirals=ex.excluded_spirals)
        want_v = ex.birkhoff_limit_closed_form(Qv)
        worst = max(worst, abs(res.value - want_v) / abs(want_v))
    out.append(_ok("monodromy connection-matrix limit", worst, 1e-3))

    # confluence of fundamental solutions for the J-function pullback
    qsys = cfl.pn_j_system(2, Fraction(1))
    qsol = frobenius_solution(qsys, 6)
    rep = cfl.check_confluent(qsys, q0)
    osol = cfl.ode_frobenius_solution(rep.limit_system, 6, q0=q0)
    exact_ok = True
    for m in range(7):
        for i in range(3):
            for j in range(3):
                exact_ok = exact_ok and (
                    limit_q_to_1(qsol.gauge.terms[m][i][j]) == osol.gauge.terms[m][i][j]
                )
    out.append(
        CheckResult(
            "fundamental solution confluence [pn-j N=2]", exact_ok,
            "exact coefficientwise gauge limit",
        )
    )
    return out


# ---------------------------------------------------------------- gw suites


def suite_gw_exact(seed: int = 0) -> list[CheckResult]:
    out = []
    nd = gw.nd_recursion(8)
    out.append(
        CheckResult(
            "N_d values d<=8",
            nd.values == (1, 1, 12, 620, 87304, 26312976, 14616808192, 13525751027392),
            str(nd.values),
        )
    )
    out.append(CheckResult("WDVV residual zero to E^4", gw.wdvv_residual_p2(4).is_zero, "exact"))
    broken = gw.wdvv_residual_p2(4, gw.perturbed_nd(gw.nd_recursion(4), 2, 2))
    out.append(
        CheckResult(
            "WDVV detects perturbed N_2",
            (not broken.is_zero) and broken.min_e_degree() == 2,
            f"first break at E^{broken.min_e_degree()}",
        )
    )
    ok = all(gw.jk_closed_formula(N, 8).coeffs == gw.jk_series(N, 8).coeffs for N in range(5))
    out.append(CheckResult("closed formula = series oracle (N<=4, D<=8)", ok, "exact"))
    ok = all(gw.jk_qde_residual(N, 8).is_zero_through(8) for N in range(5))
    out.append(CheckResult("q-difference equation residual (N<=4, D<=8)", ok, "exactly zero"))
    ok = all(gw.jcoh_residual_is_zero(gw.jcoh_ode_residual(N, 8)) for N in range(5))
    out.append(CheckResult("differential equation residual (N<=4, D<=8)", ok, "exactly zero"))
    for N in range(5):
        rep = gw.confluence_compare(N, 6)
        out.append(
            CheckResult(
                f"confluence_compare N={N} D=6: exact match",
                rep.all_equal,
                f"{len(rep.rows)} coefficients compared",
            )
        )
    ok = all(all(okc for _, okc in gw.small_quantum_ring_checks(N)) for N in range(4))
    out.append(CheckResult("small quantum ring reduction", ok, "eps^(N+1) -> Q consistent"))

    # modified J columns against the Frobenius log-solutions (N = 2)
    N, D = 2, 6
    jm = gw.jk_modified(N, D)
    op = _pn_operator(N)
    sols = frobenius_log_solutions(op, D)
    one = R.one()
    match = True
    for i in range(N + 1):
        gamma = binom_l(i, one) * ((-1) ** i * one)
        for d in range(D + 1):
            want = Poly([], one)
            for m in range(i + 1):
                want = want + sols[m].coeffs[d].coeffs[0] * gamma.coeff(m)
            match = match and jm.coeffs[d].coeffs[i] == want
    out.append(CheckResult("modified J columns = Frobenius log solutions (N=2)", match, "exact"))
    return out


def _pn_operator(N: int) -> ScalarQOperator:
    coeffs = []
    for k in range(N + 2):
        coeffs.append(parse_bivariate(str(math.comb(N + 1, k) * (-1) ** k)))
    coeffs[0] = coeffs[0] - parse_bivariate("Q")
    return ScalarQOperator(tuple(coeffs), R.q())


def suite_gw_equivariant(seed: int = 0) -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(3):
        lams = np.sort(rng.uniform(0, 0.9, size=3))
        while np.min(np.diff(lams)) < 0.05:
            lams = np.sort(rng.uniform(0, 0.9, size=3))
        spec = gw.EquivariantSpec(tuple(float(x) for x in lams), z=1.0)
        q = float(rng.uniform(0.3, 0.6))
        for ev in gw.jk_equivariant(spec, q, 140):
            worst = max(worst, gw.equivariant_operator_residual(spec, ev, 0.2 + 0.1j, q))
    out.append(_ok("equivariant equation residual (3 random specs)", worst, 1e-8))

    for lams in ((0.0, 0.5), (0.0, 0.4, 0.9)):
        spec = gw.EquivariantSpec(lams, z=1.0)
        rep = gw.equivariant_confluence_compare(spec, D=4)
        out.append(
            CheckResult(
                f"equivariant confluence match N={spec.N} d<=4",
                rep.max_error < 1e-4 and rep.orders_near_one(slack=0.3),
                f"max error {rep.max_error:.2e}",
            )
        )
    return out


SUITES = {
    "qspecial": suite_qspecial,
    "qdiff": suite_qdiff,
    "confluence": suite_confluence,
    "gw-exact": suite_gw_exact,
    "gw-equivariant": suite_gw_equivariant,
}


def run_suites(names, seed: int = 0) -> list[CheckResult]:
    """Run the named suites in order; results are sorted by check name."""
    if "all" in names:
        names = list(SUITES)
    results = [r for n in names for r in SUITES[n](seed)]
    return sorted(results, key=lambda r: r.name)
