"""Benchmark for momsym: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload scalar_tau --seed 1 --seconds 50 --trace 0

Workloads (see workloads.py for the op lists and README.md for why each one):
`scalar_tau` and `block_2level`.  The workload runs in its
own child process (worker.py) on this checkout's `src/`, with at most two
BLAS threads and MOMSYM_QUAD_POINTS removed from its environment.

With --trace 0 the metrics are the end-to-end ones; with --trace 1 a traced
child reports the per-layer ones.  Every op's output is checked outside the
timed region.  The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`; the lines before it
print the environment and every metric by name with its unit.  The full
record, with every per-layer number, is written under `.perfbench/`.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("scalar_tau", "block_2level")
BLAS_THREADS = "2"  # the machine has two cores
SETUP_SAMPLES = 9  # cold set-ups per untraced run; setup_s is their median
RUN_LIMIT_S = 170  # a run must end within 180 s
# p75 is the highest of p75/p90/p95/p99 with at least ten samples beyond it at
# every workload's run length.  It stays fixed so that a faster program, which
# completes more samples in the same time, is compared at the same percentile.
TAIL_PERCENTILE = 75

END_TO_END = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
              "peak_rss_mb": "MiB", "setup_s": "s"}

_LAYERS = ("symbols", "matrices", "grids", "spectra", "analysis", "examples", "cli", "io")
# Times are listed in seconds only where every workload spends some; the rest
# are listed as shares of traced wall time (`trace.wall_s`), because a layer a
# workload never calls reads exactly 0 s on every run.  The record file under
# .perfbench/ holds every `*_s` value as well.
PER_LAYER = {
    **{f"{layer}.{m}": unit for layer in _LAYERS
       for m, unit in (("calls", "count"), ("errors", "count"), ("share", "ratio"))},
    "spectra.self_s": "s", "matrices.self_s": "s", "symbols.self_s": "s",
    "spectra.eig_hermitian.self_s": "s",
    "spectra.eig_hermitian.calls": "count",
    "spectra.eig_hermitian.order_max": "count",
    "spectra.eig_hermitian.order3_sum": "count",
    "spectra.eig_hermitian.real_input_frac": "ratio",
    "spectra.eig_hermitian.tridiagonal_frac": "ratio",
    "spectra.eig_general_small.calls": "count",
    "spectra.eig_general_small.self_share": "ratio",
    "spectra.distribution_test.self_share": "ratio",
    "matrices.build.self_s": "s",
    "matrices.build.calls": "count",
    "matrices.build.bytes_computed": "bytes",
    "matrices.build.real_valued_frac": "ratio",
    "matrices.io.write_share": "ratio",
    "matrices.io.read_share": "ratio",
    "matrices.io.bytes_written": "bytes",
    "matrices.io.bytes_read": "bytes",
    "io.bytes_written": "bytes",
    "io.files_written": "count",
    "analysis.sample_spectrum_approx.self_share": "ratio",
    "analysis.sample_spectrum_approx.points": "count",
    "analysis.small_eig_per_point": "count",
    "analysis.compare.self_share": "ratio",
    "analysis.momentary_error_max": "abs",
    "symbols.fourier_coefficients.self_share": "ratio",
    "symbols.fourier_coefficients.callable_calls": "count",
    "symbols.sample.points": "count",
    "symbols.algebra.self_share": "ratio",
    "grids.points": "count",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.uncovered_s": "s",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="Run one momsym benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny sizes, for checking the harness itself (selfcheck.py)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def percentile(values, p):
    """Harrell-Davis estimate of the p-th percentile.

    A weighted mean of all order statistics, with Beta(a, b) weights that
    peak at the p-th one.  The op mix is heterogeneous and each op runs only
    a few times a run, so the plain order statistic at p sits between two
    op kinds and jumps between them from run to run; these weights spread
    over the neighbouring samples instead.
    """
    v = sorted(values)
    n = len(v)
    a, b = p / 100.0 * (n + 1), (1.0 - p / 100.0) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 64  # midpoint-rule steps of the Beta density per sample
    density = [math.exp((a - 1) * math.log(t) + (b - 1) * math.log(1 - t) - log_norm)
               for t in ((j + 0.5) / (steps * n) for j in range(steps * n))]
    weights = [sum(density[steps * i:steps * (i + 1)]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, v)) / sum(weights)


def child_env():
    env = dict(os.environ)
    env.pop("MOMSYM_QUAD_POINTS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def git_commit():
    """HEAD's commit read from .git without running git; None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_child(args, mode, tag, deadline):
    result = os.path.join(OUT, f"child_{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--workdir", os.path.join(OUT, f"work_{tag}"), "--result", result]
    if mode == "measure" and args.trace:
        cmd += ["--spans", os.path.join(OUT, f"spans_{args.workload}_seed{args.seed}.jsonl")]
    if args.tiny:
        cmd.append("--tiny")
    # the child's stdout goes to our stderr: the last line of our stdout is the result
    subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    with open(result) as fh:
        out = json.load(fh)
    os.unlink(result)
    return out


def end_to_end(child, setup_samples):
    records = child["records"]
    latencies = [1000.0 * r["s"] for r in records]
    by_op = {}
    for r in records:
        by_op.setdefault(r["op"], []).append(r["s"])
    # one pass runs each op once; summing per-op medians keeps a single slow
    # op instance from moving the throughput of the whole mix
    pass_s = sum(statistics.median(v) for v in by_op.values())
    verified_frac = sum(r["ok"] for r in records) / len(records)
    tail_beyond = len(latencies) * (100 - TAIL_PERCENTILE) / 100.0
    metrics = {
        "ops_per_s": verified_frac * len(by_op) / pass_s,
        "op_ms_p50": percentile(latencies, 50),
        "op_ms_tail": percentile(latencies, TAIL_PERCENTILE),
        "peak_rss_mb": child["peak_rss_mb"],
        "setup_s": statistics.median(setup_samples),
    }
    notes = {"op_ms_tail": f"p{TAIL_PERCENTILE} of {len(latencies)} samples, "
                           f"{tail_beyond:g} beyond it",
             "setup_s": f"median of {len(setup_samples)} cold set-ups"}
    return metrics, notes


def per_op_table(records):
    by_op = {}
    for r in records:
        by_op.setdefault(r["op"], []).append(r)
    return {op: {"runs": len(rs), "median_ms": statistics.median(1000.0 * r["s"] for r in rs),
                 "failed": sum(not r["ok"] for r in rs)} for op, rs in sorted(by_op.items())}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "momsym", "__init__.py")):
        print(f"error: no momsym sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                setups.append(run_child(args, "setup", f"{tag}_setup{i}", deadline)["setup_s"])
        child = run_child(args, "measure", tag, deadline)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: benchmark child failed: {exc}", file=sys.stderr)
        return 1
    if not child["momsym_file"].startswith(SRC + os.sep):
        print(f"error: imported momsym from {child['momsym_file']}, not {SRC}", file=sys.stderr)
        return 1

    records = child["records"]
    attempted = len(records)
    failures = [r for r in records if not r["ok"]]
    # only the documented example3 defect may fail without making the run incorrect
    correct = all(r["known_defect"] for r in failures)
    momentary = [r["momentary_error"] for r in records if r["momentary_error"] is not None]
    if args.trace:
        detail = dict(child["trace"])
        detail["analysis.momentary_error_max"] = max(momentary, default=0.0)
        detail["failed_frac"] = len(failures) / attempted
        metrics = {name: {"value": detail[name], "unit": unit} for name, unit in PER_LAYER.items()}
        notes = {}
    else:
        values, notes = end_to_end(child, setups + [child["setup_s"]])
        detail = values
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": child["numpy"],
        "blas": child["blas"],
        "blas_threads": child["blas_threads"],
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": child["passes"],
        "momsym_quad_points_removed": True,
        "momsym_quad_points_was_set": "MOMSYM_QUAD_POINTS" in os.environ,
    }
    record = {"workload": args.workload, "trace": args.trace, "tiny": args.tiny, "env": env,
              "correct": correct, "attempted": attempted, "failed": len(failures),
              "failed_frac": len(failures) / attempted, "metrics": detail, "notes": notes,
              "failures": sorted({(r["op"], r["detail"]) for r in failures}),
              "ops": per_op_table(records)}
    with open(os.path.join(OUT, f"result_{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  trace {args.trace}  seed {args.seed}  "
          f"{attempted} ops in {env['passes']} passes")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for op, detail_text in record["failures"]:
        print(f"FAILED {op}: {detail_text}")
    print(f"failed_frac {record['failed_frac']:.6g} ratio ({len(failures)} of {attempted})")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
