"""The qonf benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a source checkout.  The package under ``src/qonf`` is
copied and byte-compiled into ``perfbench/out/build`` (so nothing is written
under ``src/``), then:

- ``setup_s`` is the median, over several fresh interpreters, of the time to
  import qonf and build the workload's inputs;
- one child process runs the workload's fixed batch of jobs, closed loop,
  for ``--seconds`` (and at least ``worker.MIN_BATCHES`` batches) and checks
  every output (``workloads.py``);
- with ``--trace 1`` the same child then runs a few more batches with spans
  recorded around each layer boundary (``spans.py``), and
  ``cli.cold_start_s`` times ``python -m qonf.cli nd --dmax 4`` in fresh
  processes.

End-to-end times are in reference seconds: wall time scaled by a calibration
kernel run next to each measurement (``calib.py``), because the host's speed
drifts by more than the bounds allow.  The raw wall times are kept in the run
record.  Per-layer times from the tracer are wall times.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` (checks, not jobs: each check of the batch counted
once, as failed if it failed in any batch) and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A full
record of the run (metadata, exact-output digest, tail percentile, failed
checks) is written under ``perfbench/out/results``.  ``--all`` runs every
workload untraced and prints each end-to-end metric by name, with its unit.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("jfunction-exact", "frobenius-exact", "user-systems", "qspecial-numeric")
SETUP_REPEATS = 5
COLD_START_REPEATS = 5
CHILD_TIMEOUT_S = 150
ND_DMAX4 = "d,N_d\n1,1\n2,1\n3,12\n4,620\n"


class BenchError(Exception):
    pass


def build() -> tuple[Path, str]:
    """Copy src/qonf into perfbench/out/build and byte-compile it there,
    unless the copy already matches the sources.  Returns (dir, source sha)."""
    src = ROOT / "src" / "qonf"
    if not (src / "__init__.py").is_file():
        raise BenchError(f"no package sources at {src}")
    files = sorted(p for p in src.rglob("*.py") if "__pycache__" not in p.parts)
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(src)).encode() + b"\0" + p.read_bytes() + b"\0")
    sha = h.hexdigest()
    dest = OUT / "build"
    stamp = dest / "SOURCE_SHA256"
    if not (stamp.is_file() and stamp.read_text() == sha):
        shutil.rmtree(dest, ignore_errors=True)
        shutil.copytree(src, dest / "qonf", ignore=shutil.ignore_patterns("__pycache__"))
        if not compileall.compile_dir(dest, quiet=1):
            raise BenchError("byte-compiling the package failed")
        stamp.write_text(sha)
    return dest, sha


def child_env(build_dir: Path) -> dict:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(build_dir),
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONHASHSEED": "0",
        # the verify pool's worker plus the main thread stay within nproc
        "QONF_THREADS": str(max(1, nproc - 1)),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def run_child(cmd, env, timeout) -> str:
    """Run a child process to completion; its stdout, or BenchError."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"timed out after {timeout} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise BenchError(f"exit code {proc.returncode}: {' '.join(cmd)}")
    return out


def last_json(text: str) -> dict:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise BenchError("child printed no result")
    return json.loads(lines[-1])


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def calibrated(timed):
    """(reference seconds, wall seconds) of ``timed()``, which returns wall
    seconds; calibration samples are taken in this process around the call."""
    before = calib.kernel_s()
    wall = timed()
    return wall * calib.factor((before, calib.kernel_s())), wall


def cold_start(env) -> tuple[float, bool]:
    """Median time, in reference seconds, of a fresh `python -m qonf.cli nd
    --dmax 4`, and whether every run printed the right table."""
    outputs = []

    def once():
        t = time.perf_counter()
        outputs.append(run_child([sys.executable, "-m", "qonf.cli", "nd", "--dmax", "4"], env, 60))
        return time.perf_counter() - t

    times = [calibrated(once)[0] for _ in range(COLD_START_REPEATS)]
    return statistics.median(times), all(out == ND_DMAX4 for out in outputs)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    build_dir, src_sha = build()
    env = child_env(build_dir)
    worker = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
              "--seed", str(seed), "--build", str(build_dir)]
    setups = [calibrated(lambda: last_json(run_child(worker + ["--setup-only"], env, 60))["setup_s"])
              for _ in range(SETUP_REPEATS)]
    cmd = worker + ["--seconds", str(seconds), "--trace", str(int(trace))]
    spans_file = OUT / "spans" / f"{workload}-seed{seed}.npz"
    if trace:
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans_file)]
    res = last_json(run_child(cmd, env, CHILD_TIMEOUT_S))
    res["setup_s"] = statistics.median(ref for ref, _ in setups)
    res["raw"]["setup_s"] = statistics.median(wall for _, wall in setups)
    res["meta"].update({"git_sha": git_sha(), "source_sha256": src_sha, "seed": seed,
                        "workload": workload, "seconds": seconds})
    res["correct"] = not res["gated_failures"]
    if trace:
        res["cold_start_s"], cli_ok = cold_start(env)
        res["correct"] = res["correct"] and cli_ok
        res["spans_file"] = str(spans_file.relative_to(ROOT))
    return res


# ---------------------------------------------------------------- reporting


def end_to_end(res: dict) -> dict:
    return {
        "run_s": (res["run_s"], "s"),
        "job_p50_ms": (res["job_p50_ms"], "ms"),
        "job_tail_ms": (res["job_tail_ms"], "ms"),
        "setup_s": (res["setup_s"], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "pass_frac": ((res["attempted"] - res["failed"]) / res["attempted"], "ratio"),
    }


LAYERS = {
    "rings": ("rfq_mul", "rfq_add", "rfq_div", "rfq_new", "nil_inv", "nil_mul",
              "LogSeries.sigma", "limit_q_to_1"),
    "polyq": ("MatrixSeries.inverse", "MatrixSeries.mul", "lin_solve",
              "ratfunc_matrix_series", "parse_bivariate"),
    "qdiff": ("normalize_to_constant", "frobenius_solution", "gauge_residual_series",
              "system_from_json", "qhg_bases"),
    "confluence": ("check_confluent", "limit_entry_q_to_1", "ode_frobenius_solution",
                   "limit_solution_along_path", "asymptotic_qpoch_ratio_check"),
    "qspecial": ("theta", "q_log", "q_character", "log_theta",
                 "log_qpoch_infinite.near1", "log_qpoch_infinite.moderate"),
    "gw": ("jk_series", "jk_closed_formula", "jk_qde_residual", "jcoh_ode_residual",
           "confluence_compare", "jk_equivariant"),
    "verification": ("run_suites",),
}
LAYER_UNITS = {"calls": "count", "self_s": "s", "us_per_call": "us"}


def per_layer(res: dict) -> dict:
    """Every per-layer metric; a layer idle on this workload reports zeros."""
    out = {}
    for mod, fns in LAYERS.items():
        for fn in fns:
            m = res["layers"].get(f"{mod}.{fn}", {"calls": 0, "self_s": 0.0, "us_per_call": 0.0})
            for k, unit in LAYER_UNITS.items():
                out[f"{mod}.{fn}.{k}"] = (m[k], unit)
    out["rings.max_q_degree"] = (res["sizes"]["max_q_degree"], "degree")
    out["rings.max_coeff_bits"] = (res["sizes"]["max_coeff_bits"], "bits")
    out["cli.cold_start_s"] = (res["cold_start_s"], "s")
    out["trace.overhead_frac"] = (res["overhead_frac"], "ratio")
    return out


def save_record(res: dict, workload: str, seed: int, trace: bool, metrics: dict):
    d = OUT / "results"
    d.mkdir(parents=True, exist_ok=True)
    rec = dict(res, metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    rec.pop("layers", None)
    path = d / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")


def print_table(workload: str, res: dict, metrics: dict):
    print(f"== {workload}: {res['batches']} batches, {res['jobs']} jobs, "
          f"tail = p{res['tail_percentile']}, "
          f"{res['failed']}/{res['attempted']} checks failed, digest {res['digest']}")
    for name, (value, unit) in metrics.items():
        print(f"{workload:18s} {name:48s} {value:14.6g} {unit}")
    for name in res["gated_failures"]:
        print(f"{workload:18s} INCORRECT: {name}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload untraced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    try:
        if args.all:
            for w in WORKLOADS:
                res = measure(w, args.seed, args.seconds, False)
                metrics = end_to_end(res)
                save_record(res, w, args.seed, False, metrics)
                print_table(w, res, metrics)
            return 0
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = per_layer(res) if args.trace else end_to_end(res)
    save_record(res, args.workload, args.seed, bool(args.trace), metrics)
    print_table(args.workload, res, metrics)
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
