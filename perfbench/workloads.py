"""The four benchmark workloads.

Each workload turns a seed into inputs (``make_inputs``), and the inputs into
one fixed batch of jobs (``batch``).  A job is one call into the workload's
top-level qonf functions together with its correctness checks; it returns an
``Outcome`` holding the checks and the exact objects it produced.  Reference
values the checks need (mpmath) are computed by ``references``, outside any
timed region.  The benchmark reaches qonf only through module attributes
looked up at call time, so the tracer's wrappers see every call.

Why these four:

- ``jfunction-exact``: the paper's headline check; time goes to ``rings``
  arithmetic (cyclotomic denominators, ``nil_inv``, ``LogSeries``), while
  ``qdiff`` and ``qspecial`` stay idle.
- ``frobenius-exact``: builtin exact systems through the Frobenius gauge;
  time goes to the Sylvester solves and ``MatrixSeries.inverse``.
- ``user-systems``: seeded JSON systems with non-cyclotomic q-denominators
  (the general gcd path) and numeric complex q (the float path).
- ``qspecial-numeric``: floating-point special functions only; the exact
  layers stay idle, and near q = 1 the Pochhammer sum dominates.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from qonf import confluence as cfl
from qonf import gw, polyq, qdiff, qspecial, rings, verification

Q0 = 0.8  # base of the path q = Q0**t for every confluence check


@dataclass
class Check:
    name: str
    ok: bool
    # a gated check that fails makes the run incorrect; an ungated one is a
    # numeric accuracy check on complex q, counted as failed but not fatal
    gated: bool = True


@dataclass
class Outcome:
    checks: list
    # (label, exact object) pairs for the digest and the size counters
    exact: list = field(default_factory=list)


def _close(name, err, tol, gated=True):
    return Check(f"{name} (error {err:.2e}, tolerance {tol:g})", bool(err < tol), gated)


def _a0(sys_):
    return polyq.ratfunc_matrix_series([list(r) for r in sys_.A], 0).terms[0]


def _gauge_identity(sys_, sol, label):
    res = qdiff.gauge_residual_series(sys_, sol.gauge.inverse(), _a0(sys_))
    return Check(f"{label}: gauge residual is zero", res.is_zero())


def _exact_gauge_limit(qsol, osol, n, D):
    return all(
        rings.limit_q_to_1(qsol.gauge.terms[m][i][j]) == osol.gauge.terms[m][i][j]
        for m in range(D + 1) for i in range(n) for j in range(n)
    )


# ---------------------------------------------------------------- jfunction-exact


class JFunctionExact:
    name = "jfunction-exact"
    # (N, D): every N of the paper's range, D scaled so a batch takes a few
    # seconds.  Ordered by job time, the median falls in the middle of the
    # one N=1 D=5 job and the 75th percentile inside the two N=3 D=2 jobs, so
    # neither percentile sits on the gap between two job sizes.
    CASES = ((1, 3), (1, 4), (1, 5), (2, 2), (2, 4), (3, 1), (3, 2), (3, 2), (4, 1))

    def make_inputs(self, seed):
        return {"cases": list(self.CASES)}

    def references(self, inputs):
        return None

    def batch(self, inputs, refs):
        return [(f"N={N} D={D}", (lambda N=N, D=D: self.job(N, D))) for N, D in inputs["cases"]]

    @staticmethod
    def job(N, D):
        lab = f"N={N} D={D}"
        series = gw.jk_series(N, D)
        closed = gw.jk_closed_formula(N, D)
        checks = [
            Check(f"{lab}: closed formula = series oracle", closed.coeffs == series.coeffs),
            Check(f"{lab}: q-difference residual (modified) is zero",
                  gw.jk_qde_residual(N, D).is_zero_through(D)),
            Check(f"{lab}: q-difference residual (twisted) is zero",
                  gw.jk_qde_residual(N, D, modified=False).is_zero_through(D)),
            Check(f"{lab}: differential residual is zero",
                  gw.jcoh_residual_is_zero(gw.jcoh_ode_residual(N, D))),
        ]
        rep = gw.confluence_compare(N, D)
        checks.append(Check(f"{lab}: degeneration matches Jcoh", rep.all_equal))
        exact = [("jk", series)]
        if N == 2:
            exact.append(("p2_table", rep.p2_table()))
        return Outcome(checks, exact)


# ---------------------------------------------------------------- frobenius-exact


class FrobeniusExact:
    name = "frobenius-exact"
    # (builtin, N, D); irregular-limit at two depths shows its growth in D.
    # Ordered by job time, the median falls in the middle of the pn-j N=2 job
    # and the 75th percentile inside the two pn-j N=1 D=6 jobs.
    CASES = (
        ("irregular-limit", None, 8), ("irregular-limit", None, 11),
        ("pochhammer-scaled", None, 8), ("pochhammer-raw", None, 8),
        ("pochhammer-raw", None, 9), ("pn-j", 1, 6), ("pn-j", 1, 6),
        ("pn-j", 2, 3), ("pn-j", 3, 2),
    )

    def make_inputs(self, seed):
        return {"cases": list(self.CASES)}

    def references(self, inputs):
        return None

    def batch(self, inputs, refs):
        return [
            (f"{name} N={N} D={D}", (lambda name=name, N=N, D=D: self.job(name, N, D)))
            for name, N, D in inputs["cases"]
        ]

    @staticmethod
    def job(name, N, D):
        lab = f"{name} N={N} D={D}"
        sys_ = cfl.builtin_system(name, N=N) if N is not None else cfl.builtin_system(name)
        sol = qdiff.frobenius_solution(sys_, D)
        checks = [_gauge_identity(sys_, sol, lab)]
        if name == "pn-j":
            rep = cfl.check_confluent(sys_, Q0)
            checks.append(Check(f"{lab}: confluent", rep.confluent))
            osol = cfl.ode_frobenius_solution(rep.limit_system, D, q0=Q0)
            checks.append(Check(f"{lab}: exact coefficientwise gauge limit",
                                _exact_gauge_limit(sol, osol, sys_.n, D)))
        return Outcome(checks, [("gauge", sol.gauge)])


# ---------------------------------------------------------------- user-systems


def _qpoly(rng, deg):
    """Random integer polynomial in q with positive coefficients: nonzero at
    q = 1 and, for deg >= 2, generally not a product of cyclotomics.  The
    narrow coefficient range keeps the cost of a system nearly seed-free."""
    c = [int(x) for x in rng.integers(3, 7, size=deg + 1)]
    return "(" + " + ".join(f"{c[k]}*q^{k}" if k else str(c[0]) for k in range(deg + 1)) + ")"


def _rank1_exact(rng, mu):
    # A = 1 + (q-1) B with B(0) = mu: unipotent (mu = 0) or diagonalizable
    a, b = _qpoly(rng, 2), _qpoly(rng, 1)
    k = int(rng.integers(2, 4))
    head = f"1 + {mu}*(q-1)" if mu else "1"
    return {"n": 1, "q": "q",
            "entries": [{"i": 0, "j": 0, "entry": f"{head} + (q-1)*({k}*Q)/({a} + {b}*Q)"}]}


def _rank2_exact(rng):
    # A = I + (q-1) B with B(0) nilpotent, so A(0) is maximally unipotent
    a, b, c = _qpoly(rng, 2), _qpoly(rng, 1), _qpoly(rng, 1)
    k = int(rng.integers(2, 4))
    return {"n": 2, "q": "q", "entries": [
        {"i": 0, "j": 0, "entry": f"1 + (q-1)*({k}*Q)/{a}"},
        {"i": 0, "j": 1, "entry": f"(q-1)*(1 + Q/{b})"},
        {"i": 1, "j": 0, "entry": f"(q-1)*Q*{c}/({a} + Q)"},
        {"i": 1, "j": 1, "entry": "1"},
    ]}


def _numeric(rng, n):
    # complex q inside |q| <= 0.7; distinct diagonal A(0) entries whose ratios
    # stay far from q^Z (non-resonant); poles in Q at |Q| >= 2, far outside
    # the |Q| <= 0.3 where the truncated solution is checked
    q = cmath.rect(rng.uniform(0.4, 0.7), rng.uniform(0.2, 1.5))
    diag = [1.0 + 0.9 * k + rng.uniform(0.0, 0.3) for k in range(n)]
    entries = []
    for i in range(n):
        for j in range(n):
            c = [int(x) for x in rng.integers(2, 6, size=3)]
            if i == j:
                e = f"{Fraction(diag[i]).limit_denominator(100)} + Q/({c[0]} + Q)"
            else:
                e = f"Q/({c[1]}*q^2 + q + {c[2]})"
            entries.append({"i": i, "j": j, "entry": e})
    return {"n": n, "q": [q.real, q.imag], "entries": entries}


class UserSystems:
    name = "user-systems"

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        # ordered by job time, the median falls inside the two rank-2 D=3 jobs
        # and the 75th percentile inside the two rank-2 D=4 jobs; pairs of
        # random systems keep the percentiles from hanging on one draw
        specs = [
            ("exact", 6, _rank1_exact(rng, 0)),
            ("exact", 10, _rank1_exact(rng, 2)),
            ("exact", 3, _rank2_exact(rng)),
            ("exact", 3, _rank2_exact(rng)),
            ("exact", 4, _rank2_exact(rng)),
            ("exact", 4, _rank2_exact(rng)),
            ("numeric", 40, _numeric(rng, 2)),
            ("numeric", 40, _numeric(rng, 2)),
            ("numeric", 30, _numeric(rng, 3)),
        ]
        systems = []
        for kind, D, doc in specs:
            text = json.dumps(doc)
            qdiff.system_from_json(json.loads(text))  # inputs are parsed once here
            Q = cmath.rect(rng.uniform(0.1, 0.3), rng.uniform(-math.pi, math.pi))
            systems.append((kind, D, text, Q))
        return {"systems": systems}

    def references(self, inputs):
        return None

    def batch(self, inputs, refs):
        return [
            (f"#{k} {kind} n={json.loads(text)['n']} D={D}",
             (lambda kind=kind, D=D, text=text, Q=Q, k=k: self.job(k, kind, D, text, Q)))
            for k, (kind, D, text, Q) in enumerate(inputs["systems"])
        ]

    @staticmethod
    def job(k, kind, D, text, Q):
        lab = f"system #{k} ({kind}, D={D})"
        sys_ = qdiff.system_from_json(json.loads(text))
        if kind == "exact":
            rep = cfl.check_confluent(sys_, Q0)
            sol = qdiff.frobenius_solution(sys_, D)
            checks = [Check(f"{lab}: confluent", rep.confluent), _gauge_identity(sys_, sol, lab)]
            return Outcome(checks, [("gauge", sol.gauge)])
        sol = qdiff.frobenius_solution(sys_, D)
        return Outcome([_close(f"{lab}: shift residual", sol.shift_residual(Q), 1e-8, gated=False)])


# ---------------------------------------------------------------- qspecial-numeric


GRID_ABS = (0.3, 0.6, 0.8, 0.9, 0.95)
GRID_ARG = (0.0, 0.6, 1.2, 1.9, 2.5)
NEAR1_T = tuple(2.0**-k for k in range(4, 15))
NEAR1_SPLIT = 0.05  # log_qpoch_infinite counts as near q = 1 below this -log|q|


def _ref_theta_qlog(q, Q):
    """theta and q-log from the triple product, which has no cancellation."""
    import mpmath as mp

    q, Q = mp.mpc(q), mp.mpc(Q)
    th = mp.qp(q, q) * mp.qp(-Q, q) * mp.qp(-q / Q, q)
    s, p, tiny = mp.mpc(0), mp.mpc(1), mp.mpf(10) ** -30
    while True:
        a, b = Q * p, q * p / Q
        s += a / (1 + a) - b / (1 + b)
        if abs(a) < tiny and abs(b) < tiny:
            break
        p *= q
    return complex(th), complex(-s)


def _ref_log_qpoch_near1(a, q):
    """Euler-Maclaurin expansion of log (a;q)_inf through lambda^3."""
    import mpmath as mp

    a = mp.mpc(a)
    lam = -mp.log(mp.mpf(q))
    li0 = a / (1 - a)
    lim2 = a * (1 + a) / (1 - a) ** 3
    return complex(-mp.polylog(2, a) / lam + mp.log(1 - a) / 2 - lam * li0 / 12 + lam**3 * lim2 / 720)


def _grid_q(g):
    return cmath.rect(g["abs"], g["arg"]) if g["arg"] else g["abs"]


def _rel(v, ref):
    return abs(v - ref) / max(abs(ref), 1e-300)


class QSpecialNumeric:
    name = "qspecial-numeric"
    PATHS = 6  # heavy path-limit jobs: enough that the tail percentile falls among them

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)
        grid = []
        for r in GRID_ABS:
            for phi in GRID_ARG:
                lam = cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(-1.0, 1.0))
                ref = int(rng.integers(4))  # the seeded Q checked against mpmath
                for k in range(4):
                    grid.append({"abs": r, "arg": phi, "lam": lam, "ref": k == ref,
                                 "Q": cmath.rect(rng.uniform(0.3, 3.0), rng.uniform(-math.pi, math.pi))})
        near1 = [{"t": t,
                  "Q": cmath.rect(rng.uniform(0.3, 3.0), rng.uniform(-2.5, 2.5)),
                  "a": cmath.rect(0.4, rng.uniform(-1.2, 1.2))}
                 for t in NEAR1_T]
        # off the excluded spirals through 1, i and -1, in both half-planes; the
        # modulus is fixed because it sets the length of the Pochhammer sums
        paths = [cmath.rect(2.0, rng.uniform(0.6, 1.2) if k % 2 == 0 else rng.uniform(-1.9, -1.4))
                 for k in range(self.PATHS)]
        birkhoff = cmath.rect(rng.uniform(1.0, 3.0), rng.uniform(0.6, 1.2))
        ratio = (complex(rng.uniform(1.5, 2.5), rng.uniform(0.5, 1.5)),
                 complex(rng.uniform(0.0, 0.2), rng.uniform(0.1, 0.3)),
                 float(rng.uniform(-0.5, -0.3)))
        qhg = {
            "q": float(rng.uniform(0.3, 0.4)),
            "upper": tuple(complex(rng.uniform(0.2, 1.8), rng.uniform(-0.5, 0.5)) for _ in range(2)),
            "lower": (complex(rng.uniform(0.4, 1.5), rng.uniform(-0.5, 0.5)),),
        }
        # the basis at infinity is a series in c/Q, and the residual evaluates
        # it at Q, qQ and q^2 Q: keep |c/(q^2 Q)| <= 1/2, inside its domain
        c = qhg["q"] * qhg["lower"][0] / (qhg["upper"][0] * qhg["upper"][1])
        qhg["Q_inf"] = (9 - 4j) * max(1.0, 2 * abs(c) / (qhg["q"] ** 2 * abs(9 - 4j)))
        lams = np.sort(rng.uniform(0, 0.9, size=3))
        while np.min(np.diff(lams)) < 0.05:
            lams = np.sort(rng.uniform(0, 0.9, size=3))
        equiv = {"lambdas": tuple(float(x) for x in lams), "q": float(rng.uniform(0.3, 0.6))}
        return {"seed": seed, "grid": grid, "near1": near1, "paths": paths,
                "birkhoff": birkhoff, "ratio": ratio, "qhg": qhg, "equiv": equiv}

    def references(self, inputs):
        grid = []
        for g in inputs["grid"]:
            if not g["ref"]:
                grid.append(None)
                continue
            q = _grid_q(g)
            th, ql = _ref_theta_qlog(q, g["Q"])
            th_lam, _ = _ref_theta_qlog(q, g["lam"] * g["Q"])
            grid.append({"theta": th, "q_log": ql, "q_character": th / th_lam})
        near1 = [_ref_log_qpoch_near1(p["a"], Q0 ** p["t"]) for p in inputs["near1"]]
        return {"grid": grid, "near1": near1}

    def batch(self, inputs, refs):
        jobs = []
        for k, g in enumerate(inputs["grid"]):
            jobs.append((f"grid |q|={g['abs']} arg={g['arg']} #{k % 4}",
                         (lambda g=g, r=refs["grid"][k]: self.grid_job(g, r))))
        for k, p in enumerate(inputs["near1"]):
            jobs.append((f"near1 t=2^{round(math.log2(p['t']))}",
                         (lambda p=p, r=refs["near1"][k]: self.near1_job(p, r))))
        for k, Q in enumerate(inputs["paths"]):
            jobs.append((f"path limit #{k}", (lambda Q=Q: self.path_job(Q))))
        jobs.append(("connection limit", lambda: self.birkhoff_job(inputs["birkhoff"])))
        jobs.append(("ratio asymptotics", lambda: self.ratio_job(*inputs["ratio"])))
        jobs.append(("q-hypergeometric bases", lambda: self.qhg_job(inputs["qhg"])))
        jobs.append(("equivariant J", lambda: self.equiv_job(inputs["equiv"])))
        jobs.append(("verify suites", lambda: self.suites_job(inputs["seed"])))
        return jobs

    @staticmethod
    def grid_job(g, ref):
        q, lam, Q = _grid_q(g), g["lam"], g["Q"]
        gated = isinstance(q, float)  # complex-q misses are counted, not fatal
        lab = f"|q|={g['abs']} arg q={g['arg']}"
        th = qspecial.theta(q, Q)
        ch = qspecial.q_character(lam, q, Q)
        checks = [
            _close(f"{lab}: theta shift law", _rel(qspecial.theta(q, q * Q) * Q, th), 1e-10, gated),
            _close(f"{lab}: q-log increment",
                   abs(qspecial.q_log(q, q * Q) - qspecial.q_log(q, Q) - 1), 1e-8, gated),
            _close(f"{lab}: character shift law",
                   _rel(qspecial.q_character(lam, q, q * Q), lam * ch), 1e-10, gated),
            _close(f"{lab}: Jacobi triple product",
                   qspecial.jacobi_triple_product_check(q, Q), 1e-10, gated),
        ]
        if ref is not None:
            checks += [
                _close(f"{lab}: theta vs mpmath", _rel(th, ref["theta"]), 1e-8, gated),
                _close(f"{lab}: q-log vs mpmath",
                       abs(qspecial.q_log(q, Q) - ref["q_log"]) / max(1.0, abs(ref["q_log"])),
                       1e-8, gated),
                _close(f"{lab}: character vs mpmath", _rel(ch, ref["q_character"]), 1e-8, gated),
            ]
        return Outcome(checks)

    @staticmethod
    def near1_job(p, ref):
        q, Q, a = Q0 ** p["t"], p["Q"], p["a"]
        lab = f"t={p['t']:.3g}"
        # theta(qQ) Q = theta(Q) up to a multiple of 2 pi i in the logarithm
        d = qspecial.log_theta(q, q * Q) + cmath.log(Q) - qspecial.log_theta(q, Q)
        wrap = abs(d - 2j * math.pi * round(d.imag / (2 * math.pi)))
        checks = [
            _close(f"{lab}: log-theta shift law", wrap, 1e-8),
            _close(f"{lab}: q-log increment",
                   abs(qspecial.q_log(q, q * Q) - qspecial.q_log(q, Q) - 1), 1e-8),
            _close(f"{lab}: log (a;q)_inf vs Euler-Maclaurin",
                   _rel(qspecial.log_qpoch_infinite(a, q), ref), 1e-10),
        ]
        return Outcome(checks)

    @staticmethod
    def path_job(Q):
        ex = cfl.MonodromyCubicExample(q0=Q0)
        sched = tuple(2.0**-j for j in range(6, 12))
        res = cfl.limit_solution_along_path(ex.solution_at_0, Q0, Q, sched,
                                            excluded_spirals=ex.excluded_spirals)
        want = ex.solution_limit_closed_form(Q)
        return Outcome([_close(f"solution limit at Q={Q:.3g}", _rel(res.value, want), 1e-6)])

    @staticmethod
    def birkhoff_job(Q):
        ex = cfl.MonodromyCubicExample(q0=Q0)
        sched = tuple(2.0**-j for j in range(8, 13))
        res = cfl.limit_solution_along_path(ex.birkhoff_theta_form, Q0, Q, sched,
                                            excluded_spirals=ex.excluded_spirals)
        want = ex.birkhoff_limit_closed_form(Q)
        return Outcome([_close(f"connection limit at Q={Q:.3g}", _rel(res.value, want), 1e-6)])

    @staticmethod
    def ratio_job(Q0v, a1, a2):
        return Outcome([
            _close("Pochhammer ratio asymptotics",
                   cfl.asymptotic_qpoch_ratio_check(Q0v, a1, a2, Q0, t=2.0**-14), 1e-4),
            _close("theta ratio asymptotics",
                   cfl.asymptotic_theta_ratio_check(Q0v, a1, a2, Q0, t=2.0**-14), 1e-4),
        ])

    @staticmethod
    def qhg_job(p):
        spec = qdiff.QHypergeometricSpec(p["upper"], p["lower"])
        op = qdiff.qhg_operator(spec, p["q"])
        base0, base_inf = qdiff.qhg_bases(spec, p["q"], 220)
        checks = [_close("basis at 0 solves the equation",
                         max(qdiff.operator_residual(op, y, 0.4 + 0.2j) for y in base0), 1e-8),
                  _close("basis at infinity solves the equation",
                         max(qdiff.operator_residual(op, y, p["Q_inf"]) for y in base_inf), 1e-8)]
        return Outcome(checks)

    @staticmethod
    def equiv_job(p):
        spec = gw.EquivariantSpec(p["lambdas"], z=1.0)
        worst = max(gw.equivariant_operator_residual(spec, ev, 0.2 + 0.1j, p["q"])
                    for ev in gw.jk_equivariant(spec, p["q"], 140))
        return Outcome([_close("equivariant equation residual", worst, 1e-8)])

    @staticmethod
    def suites_job(seed):
        results = verification.run_suites(["qspecial", "gw-equivariant"], seed=seed)
        return Outcome([Check(f"verify: {r.name}", r.passed) for r in results])


WORKLOADS = {w.name: w for w in (JFunctionExact(), FrobeniusExact(), UserSystems(), QSpecialNumeric())}
