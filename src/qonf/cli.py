"""Command-line surface: compute tables, evaluate special functions, run
verification suites, and emit machine-readable output.

Subcommands: nd, potential, wdvv, theta, qchar, qlog, qhg, solve, birkhoff,
confluence, jfn, compare, verify.  Long-form flags only.  Exit codes:
0 success, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
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
    _as_q,
    jacobi_triple_product_check,
    q_character,
    q_log,
    theta,
)
from .rings import QonfError, series_to_json
from .verification import SUITES, run_suites


# Every size limit of the CLI: (size, commands it applies to, largest
# accepted value).  A size flag must also be at least its SIZE_MINIMA entry,
# else 0.  The two exponents cap the powers inside the entries of a --file
# system (see qonf.polyq.parse_bivariate), and n caps its size before its
# n x n matrix is built.  Each lies well above the sizes the tests, README,
# scripts and benchmark use; n = 21 is the largest builtin (pn-j at --N 20).
SIZE_LIMITS = (
    ("--D", ("solve", "jfn", "compare"), 100),
    ("--D", ("qhg",), 10_000),
    ("--N", ("solve", "confluence", "jfn", "compare"), 20),
    ("--dmax", ("nd",), 200),
    ("--order", ("potential", "wdvv"), 50),
    ("q-exponent", ("solve", "confluence"), 1000),
    ("Q-exponent", ("solve", "confluence"), 1000),
    ("n", ("solve", "confluence"), 21),
)
SIZE_MINIMA = {"--dmax": 1, "--order": 1}


def _limit(size: str, command: str) -> int:
    return next(cap for name, cmds, cap in SIZE_LIMITS if name == size and command in cmds)


def _limits_epilog() -> str:
    return "size limits:\n" + "".join(
        f"  {name} <= {cap} for {', '.join(cmds)}\n" for name, cmds, cap in SIZE_LIMITS)


def _check_limits(args) -> None:
    """Raise ValueError for the first flag outside the values it accepts,
    before any work and whether or not the command then uses the flag."""
    command, flags = args.command, vars(args)
    for name, cmds, cap in SIZE_LIMITS:
        if name.startswith("--") and command in cmds:
            value, low = flags[name[2:]], SIZE_MINIMA.get(name, 0)
            if value < low:
                raise ValueError(f"{name} {value} must be at least {low} for {command}")
            if value > cap:
                raise ValueError(f"{name} {value} exceeds the limit {cap} for {command}")
    if flags.get("z") == 0:
        raise ValueError(f"--z 0 must be nonzero for {command}")
    if not flags.get("tol", 1) > 0:
        raise ValueError(f"--tol {args.tol} must be positive for {command}")
    for name in ("q", "q0"):
        if name in flags:
            _as_q(flags[name])


def _emit(args, payload, text_renderer=None) -> None:
    """Write payload to --output or stdout: as JSON, or in the text and csv
    formats through text_renderer when there is one."""
    if args.format == "json" or text_renderer is None:
        body = json.dumps(payload, indent=2, default=str) + "\n"
    else:
        body = text_renderer(payload)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors reach main as ValueError, to be
    reported in one line like every other input error."""

    def error(self, message):
        raise ValueError(message)


def _complex(text: str) -> complex:
    try:
        value = complex(text.replace(" ", "").replace("i", "j"))
        if cmath.isfinite(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a finite complex number: {text!r}")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _perturbation(text: str) -> tuple:
    try:
        d, value = map(int, text.split("="))
    except ValueError:
        raise argparse.ArgumentTypeError("expects d=VALUE") from None
    return d, value


def _complex_list(text: str):
    return tuple(_complex(x) for x in text.split(",") if x)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="qonf", description=__doc__, epilog=_limits_epilog(),
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
    sp.add_argument("--perturb", type=_perturbation, default=None, metavar="d=VALUE")
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


def cmd_nd(args) -> int:
    table = gw.nd_recursion(args.dmax)
    ds = range(1, table.dmax + 1)
    text = table.to_csv() if args.format == "csv" else "".join(f"N_{d} = {table[d]}\n" for d in ds)
    _emit(args, {"d": list(ds), "N_d": [str(v) for v in table.values]}, lambda _: text)
    return 0


def cmd_potential(args) -> int:
    F = gw.gw_potential_p2(args.order)
    rows = [
        {"t0": k[0], "t1": k[1], "E": k[2], "t2": k[3], "coefficient": str(v)}
        for k, v in sorted(F.terms.items())
    ]
    _emit(args, {"order": args.order, "monomials": rows},
          lambda doc: "".join(
              "t0^%(t0)d t1^%(t1)d E^%(E)d t2^%(t2)d : %(coefficient)s\n" % r
              for r in doc["monomials"]))
    return 0


def cmd_wdvv(args) -> int:
    nd = gw.nd_recursion(args.order)
    if args.perturb:
        nd = gw.perturbed_nd(nd, *args.perturb)  # ValueError (exit 2) for d outside 1..order
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
    _emit(args, doc, lambda d: f"WDVV residual identically zero: {d['identically_zero']}\n")
    return 0


def _cx(z: complex):
    return [z.real, z.imag]


def cmd_theta(args) -> int:
    value = theta(args.q, args.Q)
    doc = {
        "q": _cx(args.q), "Q": _cx(args.Q), "value": _cx(value),
        "triple_product_residual": jacobi_triple_product_check(args.q, args.Q, args.tol),
    }
    _emit(args, doc, lambda d: f"theta = {value}\n")
    return 0


def cmd_qchar(args) -> int:
    value = q_character(args.lam, args.q, args.Q)
    shift = q_character(args.lam, args.q, args.q * args.Q)
    scale = abs(args.lam * value)
    if not scale:
        raise QonfError(f"lam e_(q,lam)(Q) = {args.lam * value} underflows double precision")
    doc = {"value": _cx(value), "shift_law_residual": abs(shift - args.lam * value) / scale}
    _emit(args, doc, lambda d: f"e_(q,lam)(Q) = {value}\n")
    return 0


def cmd_qlog(args) -> int:
    value = q_log(args.q, args.Q)
    doc = {"value": _cx(value),
           "shift_law_residual": abs(q_log(args.q, args.q * args.Q) - value - 1)}
    _emit(args, doc, lambda d: f"qlog(Q) = {value}\n")
    return 0


def cmd_qhg(args) -> int:
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
    _emit(args, doc, lambda d: f"coefficients: {d['coefficients']}\n")
    return 0


def _load_system(args):
    if args.builtin:
        return cfl.builtin_system(args.builtin, N=args.N, z=args.z)
    with open(args.file) as fh:
        text = fh.read()
    caps = (_limit("q-exponent", args.command), _limit("Q-exponent", args.command))
    try:  # a ValueError of system_from_json names its field, a cap too: it passes as is
        return system_from_json(json.loads(text), caps, _limit("n", args.command))
    except (json.JSONDecodeError, KeyError, TypeError, ZeroDivisionError, RecursionError) as exc:
        raise ValueError(f"malformed system JSON: {exc}") from exc


def cmd_solve(args) -> int:
    sys_ = _load_system(args)
    sol = frobenius_solution(sys_, args.D)
    q_num = args.q0 if sys_.is_exact else None
    doc = {"n": sys_.n, "kind": sol.kind, "truncation": args.D,
           "shift_residual": sol.shift_residual(args.at, q_num=q_num),
           "sample_point": _cx(args.at)}
    _emit(args, doc,
          lambda d: f"{d['kind']} solution, shift residual {d['shift_residual']:.3e}\n")
    return 0


def cmd_birkhoff(args) -> int:
    ex = cfl.MonodromyCubicExample()
    value = ex.birkhoff_theta_form(args.q, args.Q)
    shifted = ex.birkhoff_theta_form(args.q, args.q * args.Q)
    doc = {
        "value": _cx(value),
        "q_constancy_residual": abs(shifted - value) / abs(value),
        "component_limit_closed_form": _cx(ex.birkhoff_limit_closed_form(args.Q)),
    }
    _emit(args, doc, lambda d: f"P(Q) = {value}\n")
    return 0


def cmd_confluence(args) -> int:
    sys_ = _load_system(args)
    rep = cfl.check_confluent(sys_, args.q0)
    _emit(args, rep.to_json())
    return 0


def cmd_jfn(args) -> int:
    N, D = args.N, args.D
    if args.kind == "kth":
        jk = gw.jk_series(N, D)
        rows = [
            {"d": d, "i": i, "coefficient": repr(jk.coefficient(d, i))}
            for d in range(D + 1)
            for i in range(N + 1)
            if not jk.coefficient(d, i).is_zero
        ]
        _emit(args, {"kind": "kth", "N": N, "D": D, "basis": jk.basis, "coeffs": rows})
    elif args.kind == "kth-modified":
        _emit(args, {"kind": "kth-modified", **series_to_json(gw.jk_modified(N, D))})
    elif args.kind == "coh":
        jc = gw.jcoh_series(N, D)
        rows = [
            {"d": d, "i": i, "coefficient": str(jc.coefficient(d, i)),
             "z_exponent": jc.z_exponent(d, i)}
            for d in range(D + 1)
            for i in range(N + 1)
            if jc.coefficient(d, i) != 0
        ]
        _emit(args, {"kind": "coh", "N": N, "D": D, "basis": jc.basis, "coeffs": rows})
    else:
        lambdas = args.lambdas or tuple(i / (N + 2) for i in range(N + 1))
        spec = gw.EquivariantSpec(lambdas, z=args.z)  # resonant weights: DomainError, exit 2
        evs = gw.jk_equivariant(spec, args.q, D)
        rows = [{"index": i, "coefficients": [_cx(1 / x) for x in ev.denominators]}
                for i, ev in enumerate(evs)]
        _emit(args, {"kind": "equivariant", "N": N, "D": D,
                     "lambdas": [_cx(complex(x)) for x in lambdas], "z": _cx(complex(args.z)),
                     "q": _cx(args.q), "restrictions": rows})
    return 0


def cmd_compare(args) -> int:
    rep = gw.confluence_compare(args.N, args.D)
    doc = {"N": args.N, "D": args.D, "exact_match": rep.all_equal,
           "coefficients_compared": len(rep.rows), "failures": [list(f) for f in rep.failures]}
    if args.table:
        doc["p2_correspondence_table"] = rep.p2_table()
    _emit(args, doc)
    return 0 if rep.all_equal else 1


def cmd_verify(args) -> int:
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

    _emit(args, doc, render)
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
    """Run one command.  Any input error exits 2 with one line "error: ..." on
    stderr, printed here and nowhere else."""
    try:
        args = build_parser().parse_args(argv)
        _check_limits(args)
        return HANDLERS[args.command](args)
    except (QonfError, ValueError, OSError) as exc:
        message = str(exc)
    except OverflowError as exc:  # the input drives a value past double precision
        message = f"a value overflows double precision ({exc})"
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
