"""Command-line surface: compute tables, evaluate special functions, run
verification suites, and emit machine-readable output.

Subcommands: nd, potential, wdvv, theta, qchar, qlog, qhg, solve, birkhoff,
confluence, jfn, compare, verify.  Long-form flags only.  Exit codes:
0 success, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import confluence as cfl
from . import gw
from .qdiff import (
    QHypergeometricSpec,
    frobenius_solution,
    operator_residual,
    qhg_bases,
    qhg_coefficients,
    qhg_operator,
    system_from_json,
)
from .qspecial import (
    DomainError,
    PoleProximityError,
    jacobi_triple_product_check,
    q_character,
    q_log,
    theta,
)
from .rings import QonfError, series_to_json
from .verification import SUITES, run_suites


# Every size limit of the CLI: (size, commands it applies to, largest
# accepted value).  The flags are checked before any work starts, and each
# must also be at least 0; the two exponents cap the powers inside the
# entries of a --file system (see qonf.polyq.parse_bivariate).  Each lies
# well above the sizes the tests, README, scripts and benchmark use.
SIZE_LIMITS = (
    ("--D", ("solve", "jfn", "compare"), 100),
    ("--D", ("qhg",), 10_000),
    ("--N", ("solve", "confluence", "jfn", "compare"), 20),
    ("--dmax", ("nd",), 200),
    ("--order", ("potential", "wdvv"), 50),
    ("q-exponent", ("solve", "confluence"), 1000),
    ("Q-exponent", ("solve", "confluence"), 1000),
)


def _limit(size: str, command: str) -> int:
    return next(cap for name, cmds, cap in SIZE_LIMITS if name == size and command in cmds)


def _limits_epilog() -> str:
    return "size limits:\n" + "".join(
        f"  {name} <= {cap} for {', '.join(cmds)}\n" for name, cmds, cap in SIZE_LIMITS)


def _check_limits(args) -> str | None:
    """The one-line message for the first flag below 0 or over its limit, or None."""
    for name, cmds, cap in SIZE_LIMITS:
        if name.startswith("--") and args.command in cmds:
            value = getattr(args, name[2:])
            if value < 0:
                return f"{name} {value} must be at least 0 for {args.command}"
            if value > cap:
                return f"{name} {value} exceeds the limit {cap} for {args.command}"
    return None


@dataclass
class CommandConfig:
    """Validated per-invocation parameters, filled from the parsed flags."""

    fmt: str = "text"
    output: str | None = None

    def emit(self, payload, text_renderer=None):
        if self.fmt == "json" or text_renderer is None:
            body = json.dumps(payload, indent=2, default=str) + "\n"
        else:
            body = text_renderer(payload)
        if self.output:
            with open(self.output, "w") as fh:
                fh.write(body)
        else:
            sys.stdout.write(body)


def _complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", "").replace("i", "j"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from exc


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _complex_list(text: str):
    return tuple(_complex(x) for x in text.split(",") if x)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qonf", description=__doc__, epilog=_limits_epilog(),
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def add_size(sp, command, flag, **kw):
        cap = _limit(flag, command)
        sp.add_argument(flag, type=int, help=f"at most {cap}", **kw)

    def add_output(sp, default_fmt="text", choices=("text", "json", "csv")):
        sp.add_argument("--format", default=default_fmt, choices=choices)
        sp.add_argument("--output", default=None)

    sp = sub.add_parser("nd", help="rational plane-curve counts N_d")
    add_size(sp, "nd", "--dmax", required=True)
    add_output(sp, "csv")

    sp = sub.add_parser("potential", help="genus-zero potential of the plane")
    add_size(sp, "potential", "--order", required=True)
    add_output(sp, "json", ("json", "text"))

    sp = sub.add_parser("wdvv", help="reduced associativity residual")
    add_size(sp, "wdvv", "--order", required=True)
    sp.add_argument("--perturb", default=None, metavar="d=VALUE")
    add_output(sp, "json", ("json", "text"))

    sp = sub.add_parser("theta", help="evaluate theta_q(Q)")
    sp.add_argument("--q", type=_complex, required=True)
    sp.add_argument("--Q", type=_complex, required=True)
    sp.add_argument("--tol", type=float, default=1e-12)
    add_output(sp, "json", ("json", "text"))

    sp = sub.add_parser("qchar", help="evaluate the character e_(q,lam)(Q)")
    sp.add_argument("--q", type=_complex, required=True)
    sp.add_argument("--lam", type=_complex, required=True)
    sp.add_argument("--Q", type=_complex, required=True)
    add_output(sp, "json", ("json", "text"))

    sp = sub.add_parser("qlog", help="evaluate the q-logarithm")
    sp.add_argument("--q", type=_complex, required=True)
    sp.add_argument("--Q", type=_complex, required=True)
    add_output(sp, "json", ("json", "text"))

    sp = sub.add_parser("qhg", help="q-hypergeometric series and solution bases")
    sp.add_argument("--upper", type=_complex_list, default=())
    sp.add_argument("--lower", type=_complex_list, default=())
    sp.add_argument("--q", type=_complex, required=True)
    add_size(sp, "qhg", "--D", default=40)
    sp.add_argument("--at", type=_complex, default=None, metavar="Q")
    sp.add_argument("--bases", action="store_true",
                    help="include the theta-prefactored bases at 0 and infinity")
    add_output(sp, "json", ("json", "text"))

    sp = sub.add_parser("solve", help="Frobenius solution of a builtin or JSON system")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", choices=cfl.BUILTIN_SYSTEMS)
    group.add_argument("--file", default=None)
    add_size(sp, "solve", "--N", default=2)
    sp.add_argument("--z", type=_fraction, default=Fraction(1))
    add_size(sp, "solve", "--D", default=8)
    sp.add_argument("--q0", type=_complex, default=0.6)
    sp.add_argument("--at", type=_complex, default=0.15, metavar="Q")
    add_output(sp, "json", ("json", "text"))

    sp = sub.add_parser("birkhoff", help="connection value of the rank-1 cubic example")
    sp.add_argument("--q", type=_complex, required=True)
    sp.add_argument("--Q", type=_complex, required=True)
    add_output(sp, "json", ("json", "text"))

    sp = sub.add_parser("confluence", help="four-condition confluence report")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", choices=cfl.BUILTIN_SYSTEMS)
    group.add_argument("--file", default=None)
    add_size(sp, "confluence", "--N", default=2)
    sp.add_argument("--z", type=_fraction, default=Fraction(1))
    sp.add_argument("--q0", type=_complex, default=0.8)
    add_output(sp, "json", ("json",))

    sp = sub.add_parser("jfn", help="J-function coefficient tables")
    sp.add_argument("--kind", required=True,
                    choices=("kth", "kth-modified", "coh", "equivariant"))
    add_size(sp, "jfn", "--N", required=True)
    add_size(sp, "jfn", "--D", required=True)
    sp.add_argument("--lambdas", type=_complex_list, default=None)
    sp.add_argument("--z", type=_complex, default=1.0)
    sp.add_argument("--q", type=_complex, default=0.5)
    add_output(sp, "json", ("json",))

    sp = sub.add_parser("compare", help="exact degeneration comparison")
    add_size(sp, "compare", "--N", required=True)
    add_size(sp, "compare", "--D", required=True)
    sp.add_argument("--table", action="store_true",
                    help="include the plane correspondence table (N = 2)")
    add_output(sp, "json", ("json",))

    sp = sub.add_parser(
        "verify", help="run verification suites",
        description="Run the verification suites.  Each check reports its wall time: "
                    "'seconds' per check and 'total_seconds' for the run in the JSON "
                    "format, a time column in the text format.")
    sp.add_argument("--suite", default="all",
                    choices=tuple(SUITES) + ("all",))
    sp.add_argument("--seed", type=int, default=0)
    add_output(sp, "text", ("text", "json"))
    return p


# ---------------------------------------------------------------- handlers


def cmd_nd(args, cfg: CommandConfig) -> int:
    if args.dmax < 1:
        print("error: --dmax must be >= 1", file=sys.stderr)
        return 2
    table = gw.nd_recursion(args.dmax)
    if cfg.fmt == "csv":
        cfg.emit(None, lambda _: table.to_csv())
    elif cfg.fmt == "json":
        cfg.emit({"d": list(range(1, table.dmax + 1)),
                  "N_d": [str(v) for v in table.values]})
    else:
        cfg.emit(None, lambda _: "".join(
            f"N_{d} = {table[d]}\n" for d in range(1, table.dmax + 1)))
    return 0


def cmd_potential(args, cfg) -> int:
    if args.order < 1:
        print("error: --order must be >= 1", file=sys.stderr)
        return 2
    F = gw.gw_potential_p2(args.order)
    rows = [
        {"t0": k[0], "t1": k[1], "E": k[2], "t2": k[3], "coefficient": str(v)}
        for k, v in sorted(F.terms.items())
    ]
    cfg.emit({"order": args.order, "monomials": rows},
             lambda doc: "".join(
                 "t0^%(t0)d t1^%(t1)d E^%(E)d t2^%(t2)d : %(coefficient)s\n" % r
                 for r in doc["monomials"]))
    return 0


def cmd_wdvv(args, cfg) -> int:
    if args.order < 1:
        print("error: --order must be >= 1", file=sys.stderr)
        return 2
    nd = gw.nd_recursion(args.order)
    if args.perturb:
        try:
            d_str, value = args.perturb.split("=")
            d, value = int(d_str), int(value)
        except ValueError:
            print("error: --perturb expects d=VALUE", file=sys.stderr)
            return 2
        nd = gw.perturbed_nd(nd, d, value)  # ValueError (exit 2) for d outside 1..order
    res = gw.wdvv_residual_p2(args.order, nd)
    doc = {
        "order": args.order,
        "identically_zero": res.is_zero,
        "first_nonzero_E_degree": res.min_e_degree(),
        "nonzero_monomials": [
            {"E": k[2], "t2": k[3], "coefficient": str(v)}
            for k, v in sorted(res.terms.items())[:10]
        ],
    }
    cfg.emit(doc, lambda d: f"WDVV residual identically zero: {d['identically_zero']}\n")
    return 0


def _cx(z: complex):
    return [z.real, z.imag]


def cmd_theta(args, cfg) -> int:
    value = theta(args.q, args.Q)
    doc = {
        "q": _cx(args.q), "Q": _cx(args.Q), "value": _cx(value),
        "triple_product_residual": jacobi_triple_product_check(args.q, args.Q, args.tol),
    }
    cfg.emit(doc, lambda d: f"theta = {value}\n")
    return 0


def cmd_qchar(args, cfg) -> int:
    value = q_character(args.lam, args.q, args.Q)
    shift = q_character(args.lam, args.q, args.q * args.Q)
    doc = {"value": _cx(value),
           "shift_law_residual": abs(shift - args.lam * value) / abs(args.lam * value)}
    cfg.emit(doc, lambda d: f"e_(q,lam)(Q) = {value}\n")
    return 0


def cmd_qlog(args, cfg) -> int:
    value = q_log(args.q, args.Q)
    doc = {"value": _cx(value),
           "shift_law_residual": abs(q_log(args.q, args.q * args.Q) - value - 1)}
    cfg.emit(doc, lambda d: f"qlog(Q) = {value}\n")
    return 0


def cmd_qhg(args, cfg) -> int:
    spec = QHypergeometricSpec(args.upper, args.lower)
    coeffs = qhg_coefficients(spec, args.q, args.D)
    doc = {
        "r": spec.r, "s": spec.s, "q": _cx(args.q), "D": args.D,
        "coefficients": [_cx(c) for c in coeffs],
    }
    if args.at is not None:
        val = sum(coeffs[d] * args.at**d for d in range(args.D + 1))
        doc["value_at_Q"] = _cx(val)
    if args.bases:
        base0, base_inf = qhg_bases(spec, args.q, args.D)
        op = qhg_operator(spec, args.q)
        doc["basis_at_0"] = [y.label for y in base0]
        doc["basis_at_infinity"] = [y.label for y in base_inf]
        if args.at is not None:
            doc["basis_at_0_values"] = [_cx(y.eval(args.at)) for y in base0]
            doc["residuals_at_0"] = [operator_residual(op, y, args.at) for y in base0]
    cfg.emit(doc, lambda d: f"coefficients: {d['coefficients']}\n")
    return 0


def _load_system(args):
    if args.file:
        with open(args.file) as fh:
            text = fh.read()
        caps = (_limit("q-exponent", args.command), _limit("Q-exponent", args.command))
        try:  # json.JSONDecodeError is a ValueError
            return system_from_json(json.loads(text), caps)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            print(f"error: malformed system JSON: {exc}", file=sys.stderr)
            raise SystemExit(2) from exc
    return cfl.builtin_system(args.builtin, N=args.N, z=args.z)


def cmd_solve(args, cfg) -> int:
    sys_ = _load_system(args)
    sol = frobenius_solution(sys_, args.D)
    q_num = args.q0 if sys_.is_exact else None
    doc = {
        "n": sys_.n,
        "kind": sol.kind,
        "truncation": args.D,
        "shift_residual": sol.shift_residual(args.at, q_num=q_num),
        "sample_point": _cx(args.at),
    }
    cfg.emit(doc, lambda d: f"{d['kind']} solution, shift residual {d['shift_residual']:.3e}\n")
    return 0


def cmd_birkhoff(args, cfg) -> int:
    ex = cfl.MonodromyCubicExample()
    value = ex.birkhoff_theta_form(args.q, args.Q)
    shifted = ex.birkhoff_theta_form(args.q, args.q * args.Q)
    doc = {
        "value": _cx(value),
        "q_constancy_residual": abs(shifted - value) / abs(value),
        "component_limit_closed_form": _cx(ex.birkhoff_limit_closed_form(args.Q)),
    }
    cfg.emit(doc, lambda d: f"P(Q) = {value}\n")
    return 0


def cmd_confluence(args, cfg) -> int:
    sys_ = _load_system(args)
    rep = cfl.check_confluent(sys_, args.q0)
    cfg.emit(rep.to_json())
    return 0


def cmd_jfn(args, cfg) -> int:
    N, D = args.N, args.D
    if args.kind == "kth":
        jk = gw.jk_series(N, D)
        rows = [
            {"d": d, "i": i, "coefficient": repr(jk.coefficient(d, i))}
            for d in range(D + 1)
            for i in range(N + 1)
            if not jk.coefficient(d, i).is_zero
        ]
        cfg.emit({"kind": "kth", "N": N, "D": D, "basis": jk.basis, "coeffs": rows})
    elif args.kind == "kth-modified":
        cfg.emit({"kind": "kth-modified", **series_to_json(gw.jk_modified(N, D))})
    elif args.kind == "coh":
        jc = gw.jcoh_series(N, D)
        rows = [
            {"d": d, "i": i, "coefficient": str(jc.coefficient(d, i)),
             "z_exponent": jc.z_exponent(d, i)}
            for d in range(D + 1)
            for i in range(N + 1)
            if jc.coefficient(d, i) != 0
        ]
        cfg.emit({"kind": "coh", "N": N, "D": D, "basis": jc.basis, "coeffs": rows})
    else:
        lambdas = args.lambdas or tuple(i / (N + 2) for i in range(N + 1))
        spec = gw.EquivariantSpec(lambdas, z=args.z)  # resonant weights: DomainError, exit 2
        evs = gw.jk_equivariant(spec, args.q, D)
        rows = [{"index": i, "coefficients": [_cx(1 / x) for x in ev.denominators]}
                for i, ev in enumerate(evs)]
        cfg.emit({"kind": "equivariant", "N": N, "D": D,
                  "lambdas": [_cx(complex(x)) for x in lambdas], "z": _cx(complex(args.z)),
                  "q": _cx(args.q), "restrictions": rows})
    return 0


def cmd_compare(args, cfg) -> int:
    rep = gw.confluence_compare(args.N, args.D)
    doc = {
        "N": args.N,
        "D": args.D,
        "exact_match": rep.all_equal,
        "coefficients_compared": len(rep.rows),
        "failures": [list(f) for f in rep.failures],
    }
    if args.table:
        doc["p2_correspondence_table"] = rep.p2_table()
    cfg.emit(doc)
    return 0 if rep.all_equal else 1


def cmd_verify(args, cfg) -> int:
    results = run_suites([args.suite], seed=args.seed)
    doc = {
        "suite": args.suite,
        "passed": all(r.passed for r in results),
        "checks": [r.as_json() for r in results],
    }
    doc["total_seconds"] = sum(c["seconds"] for c in doc["checks"])

    def render(d):
        lines = [
            f"[{'PASS' if c['passed'] else 'FAIL'}] {c['seconds']:8.3f}s "
            f"{c['name']}: {c['detail']}"
            for c in d["checks"]
        ]
        lines.append(f"{'OK' if d['passed'] else 'FAILED'}: "
                     f"{sum(c['passed'] for c in d['checks'])}/{len(d['checks'])} checks "
                     f"in {d['total_seconds']:.3f}s")
        return "\n".join(lines) + "\n"

    cfg.emit(doc, render)
    if not doc["passed"]:
        first = next(c["name"] for c in doc["checks"] if not c["passed"])
        print(f"first failing check: {first}", file=sys.stderr)
        return 1
    return 0


HANDLERS = {
    "nd": cmd_nd,
    "potential": cmd_potential,
    "wdvv": cmd_wdvv,
    "theta": cmd_theta,
    "qchar": cmd_qchar,
    "qlog": cmd_qlog,
    "qhg": cmd_qhg,
    "solve": cmd_solve,
    "birkhoff": cmd_birkhoff,
    "confluence": cmd_confluence,
    "jfn": cmd_jfn,
    "compare": cmd_compare,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    over = _check_limits(args)
    if over:
        print(f"error: {over}", file=sys.stderr)
        return 2
    cfg = CommandConfig(fmt=args.format, output=args.output)
    try:
        return HANDLERS[args.command](args, cfg)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (DomainError, PoleProximityError, QonfError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
