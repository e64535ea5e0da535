"""One benchmark child process: set up one workload, run timed passes, check ops.

run.py starts one of these per workload (and a few more that only set up),
with `src/` on PYTHONPATH, at most two BLAS threads and MOMSYM_QUAD_POINTS
removed from the environment:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --mode measure|setup --workdir DIR --result FILE [--spans FILE] [--tiny]

Set-up time runs from the first line of this file, before numpy and momsym
are imported, to the end of warm-up.  One client runs a closed loop: each op
starts when the previous one and its check have finished.  Only `op.call()`
is timed; passes are whole, so every pass holds the same op mix.  With
--trace 1, the first half of the time runs untraced and the second half with
the tracer installed, so the ratio of the two gives the tracing overhead.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from workloads import WORKLOADS, Context, outcome  # noqa: E402


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("measure", "setup"), default="measure")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--tiny", action="store_true")
    return ap.parse_args(argv)


def blas_threads(np):
    """Thread count reported by the OpenBLAS that numpy bundles, or None."""
    import ctypes

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def run_op(op, pass_no, traced, tracer, digests):
    """Time one op, then check it; returns the op's record."""
    gc.collect()
    if tracer is not None:
        tracer.op = f"{op.label}#{pass_no}"
        tracer.active = traced
    error = None
    t0 = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # a failing op is counted, and the loop goes on
        error = exc
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    if error is not None:
        traceback.print_exception(error, file=sys.stderr)
        res = outcome(False, f"op raised {error!r}")
    else:
        try:
            res = op.check(result)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            res = outcome(False, f"check raised {exc!r}")
        del result
    if res["digest"] is not None and digests.setdefault(op.label, res["digest"]) != res["digest"]:
        res = outcome(False, "artifacts differ from the first pass")
    return {"op": op.label, "pass": pass_no, "traced": traced, "s": seconds, "ok": res["ok"],
            "known_defect": res["known_defect"], "detail": res["detail"],
            "momentary_error": res["momentary_error"]}


def main(argv=None):
    args = parse_args(argv)
    import numpy as np

    import momsym
    import momsym.cli  # noqa: F401  (the package does not import its CLI module)

    os.makedirs(args.workdir, exist_ok=True)
    try:
        ctx = Context(np=np, ms=momsym, workdir=args.workdir, seed=args.seed, tiny=args.tiny)
        workload = WORKLOADS[args.workload](ctx)
        for unit in workload.warmup:
            for op in unit:
                result = op.call()
                if op.check is not None:
                    op.check(result)
        setup_s = time.perf_counter() - _START
        out = {"setup_s": setup_s, "momsym_file": momsym.__file__}
        if args.mode == "measure":
            out.update(measure(args, workload))
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            out["numpy"] = np.__version__
            out["blas"] = f"{blas.get('name')} {blas.get('version')}"
            out["blas_threads"] = blas_threads(np)
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


def measure(args, workload):
    rng = random.Random(args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        phases = [(False, args.seconds / 2), (True, args.seconds / 2)]
    else:
        phases = [(False, args.seconds)]
    records, digests, passes = [], {}, {False: 0, True: 0}
    pass_no = 0
    for traced, budget in phases:
        if traced:
            tracer.install()
        spent = 0.0
        # another pass only if it should end less than half a pass past the
        # budget: the measured time then centres on the budget, and a run's
        # wall time stays near --seconds even when one pass takes 15 s
        while passes[traced] == 0 or spent + 0.5 * spent / passes[traced] < budget:
            units = list(workload.units)
            rng.shuffle(units)
            for unit in units:
                for op in unit:
                    rec = run_op(op, pass_no, traced, tracer, digests)
                    spent += rec["s"]
                    records.append(rec)
            passes[traced] += 1
            pass_no += 1
    out = {"records": records, "passes": passes[False] + passes[True]}
    if tracer is not None:
        wall = {t: sum(r["s"] for r in records if r["traced"] is t) for t in (False, True)}
        summary = tracer.summary(wall[True], passes[True])
        summary["trace.overhead_frac"] = (wall[True] / passes[True]) / (wall[False] / passes[False]) - 1.0
        out["trace"] = summary
        if args.spans:
            tracer.write_jsonl(args.spans)
    return out


if __name__ == "__main__":
    sys.exit(main())
