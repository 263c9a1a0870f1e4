"""One workload in one process: build the inputs, run batches, check outputs.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the built copy of the
package.  With ``--setup-only`` it stops after building the inputs and
reports how long the import and the inputs took; otherwise it runs whole
batches of jobs, closed loop, until ``--seconds`` have passed and at least
MIN_BATCHES are done, and with ``--trace 1`` a further TRACED_BATCHES batches
under the span tracer.  The result is one JSON object on the last line of
standard output.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calib  # noqa: E402

TRACED_BATCHES = 3
# every run does at least this many batches, so the job count, and with it
# the tail percentile, is the same from run to run and from commit to commit
MIN_BATCHES = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--build", required=True, help="directory holding the built qonf package")
    ap.add_argument("--spans-out", help="file for the traced run's spans (.npz)")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


# ---------------------------------------------------------------- exact outputs


def _rfqs(obj):
    """Every RationalFunctionQ inside a job's exact output."""
    from qonf.rings import RationalFunctionQ

    if isinstance(obj, RationalFunctionQ):
        yield obj
    elif hasattr(obj, "terms"):  # MatrixSeries
        for t in obj.terms:
            for row in t:
                yield from _rfqs(list(row))
    elif hasattr(obj, "coeffs") and isinstance(obj.coeffs, tuple):  # JFunctionK
        for row in obj.coeffs:
            yield from _rfqs(list(row))
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _rfqs(x)


def _render(label, obj) -> str:
    """Canonical text of an exact output: coefficient reprs, or the JSON table."""
    if label == "p2_table":
        return json.dumps(obj, sort_keys=True)
    if label == "jk":
        return "\n".join(f"{d},{i}:{c!r}" for d, row in enumerate(obj.coeffs) for i, c in enumerate(row))
    if label == "gauge":
        return "\n".join(f"{m},{i},{j}:{x!r}" for m, t in enumerate(obj.terms)
                         for i, row in enumerate(t) for j, x in enumerate(row))
    raise ValueError(f"no canonical form for {label!r}")


def _sizes(obj, acc):
    """Largest q-degree and coefficient bit size, read through R.num / R.den."""
    for r in _rfqs(obj):
        for poly in (r.num, r.den):
            acc["max_q_degree"] = max(acc["max_q_degree"], len(poly) - 1)
            for c in poly:
                bits = max(int(c.numerator).bit_length(), int(c.denominator).bit_length())
                acc["max_coeff_bits"] = max(acc["max_coeff_bits"], bits)


# ---------------------------------------------------------------- batches


class Tally:
    def __init__(self):
        self.batch_s = []  # reference seconds
        self.raw_batch_s = []  # wall seconds
        self.job_ms = []
        self.raw_job_ms = []
        self.job_ms_by_key = {}
        # (job index in the batch, check index) -> passed in every batch so
        # far; index -1 stands for the job itself raising
        self.checks = {}
        self.gated_failures = []
        self.failures = []
        self.rendered = {}  # job key -> canonical text of its exact outputs
        self.sizes = {"max_q_degree": 0, "max_coeff_bits": 0}

    def _check(self, idx, i, ok):
        self.checks[(idx, i)] = self.checks.get((idx, i), True) and ok

    def record(self, idx, key, outcome, error):
        if error is not None:
            self._check(idx, -1, False)
            self.gated_failures.append(f"{key}: raised {error}")
            return
        for i, c in enumerate(outcome.checks):
            self._check(idx, i, c.ok)
            if not c.ok:
                (self.gated_failures if c.gated else self.failures).append(c.name)
        if outcome.exact and key not in self.rendered:
            self.rendered[key] = "\n".join(f"[{lab}]\n{_render(lab, obj)}" for lab, obj in outcome.exact)
            for _, obj in outcome.exact:
                _sizes(obj, self.sizes)

    def digest(self):
        if not self.rendered:
            return None
        h = hashlib.sha256()
        for key in sorted(self.rendered):
            h.update(f"## {key}\n{self.rendered[key]}\n".encode())
        return h.hexdigest()


CAL_EVERY_MS = 50.0  # take a calibration sample after this much job time


def run_batches(jobs, rng, tally, seconds=None, batches=None, tracer=None):
    """Closed loop over whole batches: ``batches`` times, or until ``seconds``
    have passed and at least MIN_BATCHES are done.

    A calibration sample is taken before each batch and after every
    ``CAL_EVERY_MS`` of job time; each job's time is scaled to reference speed
    by the mean of the two samples around it.  The batch time is the sum of
    its jobs' times, so the samples themselves are not counted.
    """
    start = time.perf_counter()
    done = 0
    job_id = 0
    while True:
        if batches is not None and done >= batches:
            break
        if seconds is not None and done >= MIN_BATCHES and time.perf_counter() - start >= seconds:
            break
        order = list(enumerate(jobs))
        rng.shuffle(order)
        gc.collect()
        results, raw_ms, ref_ms, pending = [], [], [], []
        last_cal, since = calib.kernel_s(), 0.0
        for idx, (key, fn) in order:
            if tracer is not None:
                tracer.job_id = job_id
            t = time.perf_counter()
            try:
                out, err = fn(), None
            except Exception as exc:  # a job that raises is a failed, incorrect job
                out, err = None, f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            ms = (time.perf_counter() - t) * 1e3
            results.append((idx, key, out, err))
            raw_ms.append(ms)
            ref_ms.append(None)
            pending.append(len(raw_ms) - 1)
            since += ms
            job_id += 1
            if since >= CAL_EVERY_MS or len(raw_ms) == len(order):
                cal = calib.kernel_s()
                f = calib.factor((last_cal, cal))
                for i in pending:
                    ref_ms[i] = raw_ms[i] * f
                pending, since, last_cal = [], 0.0, cal
        for (_, key, _, _), ms in zip(results, ref_ms):
            tally.job_ms.append(ms)
            tally.job_ms_by_key.setdefault(key, []).append(ms)
        tally.raw_job_ms.extend(raw_ms)
        tally.batch_s.append(sum(ref_ms) / 1e3)
        tally.raw_batch_s.append(sum(raw_ms) / 1e3)
        for idx, key, out, err in results:
            tally.record(idx, key, out, err)
        done += 1
    return tally


def count_checks(*tallies):
    """(attempted, failed) over the batch's checks, each counted once: a check
    fails if it failed in any batch of any of the tallies.  Every batch runs
    the same checks on the same inputs, so the counts depend on the seed and
    the program, not on how many batches the host's speed allowed."""
    merged = {}
    for t in tallies:
        for k, ok in t.checks.items():
            merged[k] = merged.get(k, True) and ok
    return len(merged), sum(not ok for ok in merged.values())


def percentile(sorted_vals, p):
    """Nearest-rank percentile."""
    k = max(0, -(-len(sorted_vals) * p // 100) - 1)
    return sorted_vals[int(k)]


TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)


def tail_percentile(n):
    """Highest ladder percentile that leaves at least 10 of n jobs beyond it."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - -(-n * p // 100) >= 10:
            best = p
    return best


def main(argv=None):
    args = parse_args(argv)
    build = Path(args.build).resolve()
    import qonf

    if build not in Path(qonf.__file__).resolve().parents:
        print(f"error: imported qonf from {qonf.__file__}, not from {build}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    refs = wl.references(inputs)
    jobs = wl.batch(inputs, refs)
    rng = random.Random(args.seed)
    plain = run_batches(jobs, rng, Tally(), seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    job_ms = sorted(plain.job_ms)
    tail_p = tail_percentile(MIN_BATCHES * len(jobs))
    attempted, failed = count_checks(plain)
    out = {
        "setup_s": setup_s,
        "run_s": statistics.median(plain.batch_s),
        "batches": len(plain.batch_s),
        "jobs": len(job_ms),
        "job_p50_ms": percentile(job_ms, 50),
        "job_tail_ms": percentile(job_ms, tail_p),
        "tail_percentile": tail_p,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "gated_failures": plain.gated_failures[:20],
        "failures": sorted(set(plain.failures))[:20],
        "digest": plain.digest(),
        "job_ms_by_key": {k: statistics.median(v) for k, v in plain.job_ms_by_key.items()},
        "raw": {"run_s": statistics.median(plain.raw_batch_s),
                "job_p50_ms": percentile(sorted(plain.raw_job_ms), 50),
                "job_tail_ms": percentile(sorted(plain.raw_job_ms), tail_p)},
        "sizes": plain.sizes,
        "meta": metadata(),
    }
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install(layer_targets())
        try:
            traced = run_batches(jobs, rng, Tally(), batches=TRACED_BATCHES, tracer=tracer)
        finally:
            tracer.uninstall()
        out["attempted"], out["failed"] = count_checks(plain, traced)
        out["gated_failures"] += traced.gated_failures[:20]
        if traced.digest() != out["digest"]:
            out["gated_failures"].append("exact outputs differ between the traced and plain runs")
        out["overhead_frac"] = statistics.median(traced.batch_s) / out["run_s"] - 1.0
        # calls and self time per batch; every batch does the same work
        out["layers"] = {
            name: {"calls": m["calls"] // TRACED_BATCHES if m["calls"] % TRACED_BATCHES == 0
                   else m["calls"] / TRACED_BATCHES,
                   "self_s": m["self_s"] / TRACED_BATCHES,
                   "us_per_call": m["us_per_call"]}
            for name, m in tracer.layer_metrics().items()
        }
        out["spans"] = len(tracer.name_col)
        if args.spans_out:
            tracer.save(args.spans_out, {"workload": args.workload, "seed": args.seed,
                                         "batches": TRACED_BATCHES})
    print(json.dumps(out))
    return 0


def metadata():
    import numpy

    meta = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "sympy": None,
        "sympy_ground_types": None,
        "rational_type": None,
        "nproc": len(os.sched_getaffinity(0)),
        "qonf_threads": os.environ.get("QONF_THREADS"),
    }
    try:  # sympy may leave the dependencies; the run does not need it
        import sympy
        from sympy.external.gmpy import GROUND_TYPES
        from sympy.polys.domains import QQ
    except ImportError:
        return meta
    meta.update(sympy=sympy.__version__, sympy_ground_types=GROUND_TYPES,
                rational_type=type(QQ(1)).__name__)
    return meta


def layer_targets():
    """Function object -> span name (or name chooser) at each layer boundary."""
    from qonf import confluence, gw, polyq, qdiff, qspecial, rings, verification
    from qonf.rings import RationalFunctionQ as R
    from workloads import NEAR1_SPLIT

    def rfq_new(self, num, den=None, *, _canonical=False):
        return None if _canonical else "rings.rfq_new"

    def log_qpoch(a, q, tol=1e-12):
        q = q.q if isinstance(q, qspecial.QValue) else complex(q)
        near = q != 0 and -math.log(abs(q)) < NEAR1_SPLIT
        return "qspecial.log_qpoch_infinite." + ("near1" if near else "moderate")

    targets = {
        R.__mul__: "rings.rfq_mul",
        R.__add__: "rings.rfq_add",
        R.__sub__: "rings.rfq_add",
        R.__rsub__: "rings.rfq_add",
        R.__truediv__: "rings.rfq_div",
        R.__rtruediv__: "rings.rfq_div",
        R.__init__: rfq_new,
        R.limit_q_to_1: "rings.limit_q_to_1",
        rings.limit_q_to_1: "rings.limit_q_to_1",
        rings.nil_inv: "rings.nil_inv",
        rings.nil_mul: "rings.nil_mul",
        rings.LogSeries.sigma: "rings.LogSeries.sigma",
        polyq.MatrixSeries.inverse: "polyq.MatrixSeries.inverse",
        polyq.MatrixSeries.mul: "polyq.MatrixSeries.mul",
        polyq.lin_solve: "polyq.lin_solve",
        polyq.ratfunc_matrix_series: "polyq.ratfunc_matrix_series",
        polyq.parse_bivariate: "polyq.parse_bivariate",
        qspecial.theta: "qspecial.theta",
        qspecial.q_log: "qspecial.q_log",
        qspecial.q_character: "qspecial.q_character",
        qspecial.log_theta: "qspecial.log_theta",
        qspecial.log_qpoch_infinite: log_qpoch,
    }
    for mod, names in (
        (qdiff, ("normalize_to_constant", "frobenius_solution", "gauge_residual_series",
                 "system_from_json", "qhg_bases")),
        (confluence, ("check_confluent", "limit_entry_q_to_1", "ode_frobenius_solution",
                      "limit_solution_along_path", "asymptotic_qpoch_ratio_check")),
        (gw, ("jk_series", "jk_closed_formula", "jk_qde_residual", "jcoh_ode_residual",
              "confluence_compare", "jk_equivariant")),
        (verification, ("run_suites",)),
    ):
        short = mod.__name__.rsplit(".", 1)[1]
        for n in names:
            targets[getattr(mod, n)] = f"{short}.{n}"
    return targets


if __name__ == "__main__":
    sys.exit(main())
