"""Named verification checks, grouped into the suites the CLI exposes.

Each suite is a generator of :class:`CheckResult`\\ s with residual-style
detail strings, deterministic given the seed; :func:`run_suites` times each
check as its suite yields it.  This module is the one implementation of the
checks: ``qonf verify`` runs the suites at their default inputs, and
``tests/test_acceptance.py`` runs them at its own seeds and q grid and asserts
on the named results.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import confluence as cfl
from . import gw
from .polyq import mat_scale, parse_bivariate, ratfunc_matrix_series
from .qdiff import (
    QHypergeometricSpec,
    casoratian,
    frobenius_log_solutions,
    frobenius_solution,
    gauge_residual,
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
    seconds: float = 0.0  # wall time of this check alone, set by run_suites

    def __post_init__(self):
        self.passed = bool(self.passed)  # a NumPy comparison gives numpy.bool_, not a JSON boolean

    def as_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail,
                "seconds": self.seconds}


def _ok(name, residual, tol) -> CheckResult:
    return CheckResult(name, residual < tol, f"residual {residual:.3e} (tol {tol:g})")


def _rel(value, want) -> float:
    return abs(value - want) / abs(want)


# ---------------------------------------------------------------- qspecial suite


def suite_qspecial(seed: int = 0, qs=(0.1, 0.3, 0.5, 0.7, 0.9)):
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
    yield _ok("theta shift law (5x5 grid)", worst_theta, 1e-10)
    yield _ok("character shift law (5x5 grid)", worst_char, 1e-10)
    yield _ok("q-log increment (5x5 grid)", worst_log, 1e-10)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        q = rng.uniform(0.05, 0.9)
        Q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(Q) < 0.1:
            Q += 0.5
        worst = max(worst, jacobi_triple_product_check(q, Q))
    yield _ok("Jacobi triple product (10 points)", worst, 1e-10)

    worst = max(
        theta_residual_scale(q, -(q**k)) for q in (0.35, 0.8) for k in range(-2, 3)
    )
    yield _ok("theta zeros on -q^Z", worst, 1e-8)

    worst = 0.0
    for _ in range(10):
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        q = rng.uniform(0.1, 0.8)
        lhs = (1 - a) * qpoch_infinite(q * a, q)
        worst = max(worst, abs(lhs - qpoch_infinite(a, q)) / max(abs(lhs), 1e-30))
    yield _ok("Pochhammer product recursion", worst, 1e-10)

    q0, Qv = 0.8, 2.0
    errs = [abs((q0**t - 1) * q_log(q0**t, Qv) - math.log(Qv)) for t in (2**-8, 2**-9, 2**-10)]
    ratios = [errs[i + 1] / errs[i] for i in range(2)]
    good = all(0.35 < r < 0.65 for r in ratios)
    yield CheckResult("q-log limit linear rate", good, f"halving ratios {ratios}")


# ---------------------------------------------------------------- qdiff suite


def suite_qdiff(seed: int = 0):
    # exact gauge identities for the three builtin confluence examples and the
    # P^2 J-function system; each solution X = G C is then evaluated once to
    # see that it is not degenerate
    cases = [
        (name, cfl.builtin_system(name), 24, 0.15, 0.6, lambda X: X[0, 0], "X(0.15)_00")
        for name in ("pochhammer-raw", "pochhammer-scaled", "irregular-limit")
    ]
    cases.append(
        ("pn-j N=2", cfl.pn_j_system(2, Fraction(1)), 6, 0.2, 0.7, np.linalg.det, "det X(0.2)")
    )
    for name, sys, D, Qv, qv, probe, probe_name in cases:
        sol = frobenius_solution(sys, D)
        Aser = ratfunc_matrix_series([list(r) for r in sys.A], D)
        res = gauge_residual(Aser, sol.gauge, lambda m: mat_scale(Aser.terms[0], sys.q**m))
        yield CheckResult(f"frobenius gauge identity [{name}]", res.is_zero(), f"exact to order {D}")
        yield _ok(f"frobenius shift residual [{name}]", sol.shift_residual(Qv, q_num=qv), 1e-8)
        size = abs(probe(np.array(sol.eval(Qv, q_num=qv), dtype=complex)))
        yield CheckResult(f"frobenius solution nondegenerate [{name}]", size > 1e-10,
                          f"|{probe_name}| = {size:.3e} (min 1e-10)")

    rng = np.random.default_rng(seed)
    q = 0.35
    a = tuple(complex(rng.uniform(0.2, 1.8), rng.uniform(-0.5, 0.5)) for _ in range(2))
    b = (complex(rng.uniform(0.4, 1.5), rng.uniform(-0.5, 0.5)),)
    spec = QHypergeometricSpec(a, b)
    op = qhg_operator(spec, q)
    base0, base_inf = qhg_bases(spec, q, 220)
    worst0 = max(operator_residual(op, y, 0.4 + 0.2j) for y in base0)
    yield _ok("q-hypergeometric basis at 0 solves the equation", worst0, 1e-8)
    worst_inf = max(operator_residual(op, y, 9 - 4j) for y in base_inf)
    yield _ok("q-hypergeometric basis at infinity solves the equation", worst_inf, 1e-8)
    c0 = abs(casoratian(base0, q, 0.4 + 0.2j))
    cinf = abs(casoratian(base_inf, q, 9 - 4j))
    yield CheckResult("Casoratians nonzero", min(c0, cinf) > 1e-8, f"{c0:.3e}, {cinf:.3e}")


# ---------------------------------------------------------------- confluence suite

# two sample points on each connected component of the Q-plane minus the
# excluded spirals of the monodromy example
MONODROMY_COMPONENTS = {
    "upper-right": (1 + 2j, 2 + 1j),
    "upper-left": (-1 + 2j, -2 + 1j),
    "lower": (-3j, 1 - 2j),
}


def suite_confluence(seed: int = 0):
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
        yield CheckResult(f"confluence verdict [{name}]", ok, f"confluent={rep.confluent}")
    rep = cfl.check_confluent(cfl.builtin_system("pn-j", N=3), q0)
    ok = rep.confluent and rep.limit_system.B[3][0] == parse_bivariate("Q").map_coeffs(
        lambda c: c.limit_q_to_1(), Fraction(1)
    )
    yield CheckResult("confluence verdict [pn-j N=3]", ok, "limit is the order-4 ODE system")

    err = cfl.asymptotic_qpoch_ratio_check(2 + 1j, 0.1 + 0.2j, -0.4, q0, t=2.0**-14)
    yield _ok("Pochhammer ratio asymptotics vs path", err, 1e-4)
    err = cfl.asymptotic_theta_ratio_check(2 + 1j, 0.1 + 0.2j, -0.4, q0, t=2.0**-14)
    yield _ok("theta ratio asymptotics vs path", err, 1e-4)

    # q -> 1 limits of the Pochhammer symbol and the q-special functions
    q = R.q()
    ok = all(((1 - q) ** d / gw.qpoch_exact(d)).limit_q_to_1() == Fraction(1, math.factorial(d))
             for d in range(1, 13))
    yield CheckResult("Pochhammer limit (1-q)^d/(q;q)_d -> 1/d! (d<=12)", ok, "exact")

    sched = tuple(2.0**-j for j in range(4, 15))
    worst, orders = 0.0, []
    for Qv in (0.1, 0.3, 0.5):
        res = cfl.limit_solution_along_path(
            lambda qq, QQ: 1 / qpoch_infinite((1 - qq) * QQ, qq, 1e-13), q0, Qv, sched
        )
        worst = max(worst, abs(res.value - math.exp(Qv)))
        orders.append(res.observed_order)
    ok = worst < 1e-6 and all(abs(o - 1) < 0.3 for o in orders)
    yield CheckResult(
        "Pochhammer path limit 1/((1-q)Q;q)_inf -> e^Q (Q = 0.1, 0.3, 0.5)", ok,
        f"error {worst:.3e} (tol 1e-06), observed orders "
        + ", ".join(f"{o:.4f}" for o in orders) + " (1 +/- 0.3)",
    )

    res = cfl.limit_solution_along_path(
        lambda qq, QQ: (qq - 1) * q_log(qq, QQ), q0, 2.0, sched, excluded_spirals=(-1.0,)
    )
    yield _ok("q-log limit (q-1) qlog(2) -> log 2", abs(res.value - math.log(2)), 1e-4)
    worst = 0.0
    for mu in (0.5, -1.0, 2 + 1j):
        res = cfl.limit_solution_along_path(
            lambda qq, QQ, mu=mu: q_character(qq**mu, qq, QQ), q0, 3.0, sched,
            excluded_spirals=(-1.0,),
        )
        worst = max(worst, abs(res.value - 3.0**mu))
    yield _ok("character limit e_(q,q^mu)(3) -> 3^mu (mu = 0.5, -1, 2+i)", worst, 1e-4)

    ex = cfl.MonodromyCubicExample(q0=q0)
    alpha = ex.alpha_taylor_data()
    want = [
        (cfl.QI_ONE, (cfl.QI_ONE + cfl.QI_I) / 4),
        (-cfl.QI_I, cfl.QI_I / 2),
        (-cfl.QI_ONE, -(cfl.QI_ONE - cfl.QI_I) / 4),
    ]
    yield CheckResult("monodromy root Taylor data", alpha == want, "exact degree-1 match")

    def path_limits(evaluator, sched):
        return {
            Qv: cfl.limit_solution_along_path(evaluator, q0, Qv, sched,
                                              excluded_spirals=ex.excluded_spirals).value
            for pair in MONODROMY_COMPONENTS.values() for Qv in pair
        }

    sol = path_limits(ex.solution_at_0, tuple(2.0**-j for j in range(6, 12)))
    worst = max(_rel(v, ex.solution_limit_closed_form(Qv)) for Qv, v in sol.items())
    yield _ok("monodromy solution limit (six points)", worst, 1e-3)
    # the same multivalued expression as the displayed power product: their
    # ratio is a constant branch determination on each component
    ratio = {Qv: v / ex.solution_limit_display_form(Qv) for Qv, v in sol.items()}
    worst = max(_rel(ratio[Qb], ratio[Qa]) for Qa, Qb in MONODROMY_COMPONENTS.values())
    yield _ok("monodromy solution limit / display form constant per component", worst, 1e-3)

    # the connection-matrix limit is locally constant, equals the value
    # assembled from the theta-ratio asymptotics, and equals the displayed
    # power product up to the quarter-turn branch unit u of (-iQ)^(-1/2)
    con = path_limits(ex.birkhoff_theta_form, tuple(2.0**-j for j in range(8, 13)))
    worst = max(_rel(v, ex.birkhoff_limit_closed_form(Qv)) for Qv, v in con.items())
    yield _ok("monodromy connection-matrix limit (six points)", worst, 1e-3)
    units = [v / ex.birkhoff_limit_display_form(Qv) for Qv, v in con.items()]
    yield _ok("monodromy branch unit |u| = 1", max(abs(abs(u) - 1) for u in units), 1e-3)
    yield _ok("monodromy branch unit u^4 = 1", max(abs(u**4 - 1) for u in units), 4e-3)
    worst = max(_rel(con[Qb], con[Qa]) for Qa, Qb in MONODROMY_COMPONENTS.values())
    yield _ok("monodromy connection-matrix limit locally constant", worst, 1e-3)

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
    yield CheckResult(
        "fundamental solution confluence [pn-j N=2]", exact_ok,
        "exact coefficientwise gauge limit",
    )


# ---------------------------------------------------------------- gw suites


def suite_gw_exact(seed: int = 0):
    nd = gw.nd_recursion(8)
    yield CheckResult(
        "N_d values d<=8",
        nd.values == (1, 1, 12, 620, 87304, 26312976, 14616808192, 13525751027392),
        str(nd.values),
    )
    yield CheckResult("WDVV residual zero to E^4", gw.wdvv_residual_p2(4).is_zero, "exact")
    # N_d + 1 in place of N_d first breaks WDVV at E^max(d, 2)
    base = gw.nd_recursion(4)
    for d in range(1, 5):
        broken = gw.wdvv_residual_p2(4, gw.perturbed_nd(base, d, base[d] + 1))
        yield CheckResult(
            f"WDVV detects perturbed N_{d}",
            (not broken.is_zero) and broken.min_e_degree() == max(d, 2),
            f"first break at E^{broken.min_e_degree()}",
        )
    ok = all(gw.jk_closed_formula(N, 8).coeffs == gw.jk_series(N, 8).coeffs for N in range(5))
    yield CheckResult("closed formula = series oracle (N<=4, D<=8)", ok, "exact")
    ok = all(gw.jk_qde_residual(N, 8).is_zero_through(8) for N in range(5))
    yield CheckResult("q-difference equation residual (N<=4, D<=8)", ok, "exactly zero")
    ok = all(gw.jcoh_residual_is_zero(gw.jcoh_ode_residual(N, 8)) for N in range(5))
    yield CheckResult("differential equation residual (N<=4, D<=8)", ok, "exactly zero")
    for N in range(5):
        rep = gw.confluence_compare(N, 6)
        yield CheckResult(
            f"confluence_compare N={N} D=6: exact match",
            rep.all_equal,
            f"{len(rep.rows)} coefficients compared",
        )
    ok = all(all(okc for _, okc in gw.small_quantum_ring_checks(N)) for N in range(4))
    yield CheckResult("small quantum ring reduction", ok, "eps^(N+1) -> Q consistent")

    # modified J columns against the Frobenius log-solutions (N = 2)
    N, D = 2, 6
    jm = gw.jk_modified(N, D)
    sols = frobenius_log_solutions(gw.pn_operator(N), D)
    one = R.one()
    match = True
    for i in range(N + 1):
        gamma = binom_l(i, one) * ((-1) ** i * one)
        for d in range(D + 1):
            want = Poly([], one)
            for m in range(i + 1):
                want = want + sols[m].coeffs[d].coeffs[0] * gamma.coeff(m)
            match = match and jm.coeffs[d].coeffs[i] == want
    yield CheckResult("modified J columns = Frobenius log solutions (N=2)", match, "exact")


def suite_gw_equivariant(seed: int = 0):
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
    yield _ok("equivariant equation residual (3 random specs)", worst, 1e-8)

    for lams in ((0.0, 0.5), (0.0, 0.4, 0.9)):
        spec = gw.EquivariantSpec(lams, z=1.0)
        rep = gw.equivariant_confluence_compare(spec, D=4)
        yield CheckResult(
            f"equivariant confluence match N={spec.N} d<=4",
            rep.max_error < 1e-4 and rep.orders_near_one(),
            f"max error {rep.max_error:.2e}",
        )


SUITES = {
    "qspecial": suite_qspecial,
    "qdiff": suite_qdiff,
    "confluence": suite_confluence,
    "gw-exact": suite_gw_exact,
    "gw-equivariant": suite_gw_equivariant,
}


def run_suites(names, seed: int = 0) -> list[CheckResult]:
    """Run the named suites in order; results are sorted by check name.

    Each result's ``seconds`` is the wall time its suite spent between the
    previous result (or its start) and this one; work that several checks
    share counts toward the first of them.
    """
    if "all" in names:
        names = list(SUITES)
    results = []
    for n in names:
        checks = SUITES[n](seed)
        while True:
            t0 = time.perf_counter()
            r = next(checks, None)
            if r is None:
                break
            r.seconds = time.perf_counter() - t0
            results.append(r)
    return sorted(results, key=lambda r: r.name)
