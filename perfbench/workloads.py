"""The benchmark's two workloads: their inputs, op lists and per-op checks.

Each workload function takes a `Context` and returns a `Workload`: the units
of one measured pass (a unit is a list of ops that must run in order; the
order of units is shuffled by the seed every pass) and the warm-up units run
once during set-up.  An op's `call` is the only timed code; its `check` runs
afterwards and returns a dict with `ok`, `known_defect`, `detail`, `digest`
(a hash of the op's artifacts, compared across passes) and
`momentary_error` (set for ops that compare a momentary symbol with an exact
spectrum on its matched grid).

The library receives only generated inputs: symbol JSON files written into
the work directory, or symbol objects built from seeded coefficients.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass

EXAMPLE1_BCS = ("dirichlet_neumann", "dirichlet", "periodic")
# example3 fails this claim at N=16 and N=24 because `compare` pairs complex
# values lexicographically; the sampled multiset still matches the exact one.
# The failure is counted in `failed`; the run stays `correct` only while the
# multiset check below holds and no other flag fails.
EXAMPLE3_KNOWN_DEFECT = "momentary_samples_match_spectrum"


@dataclass
class Context:
    np: object
    ms: object
    workdir: str
    seed: int
    tiny: bool


@dataclass
class Op:
    label: str
    call: object
    check: object


@dataclass
class Workload:
    units: list
    warmup: list


def outcome(ok, detail="", digest=None, known_defect=False, momentary_error=None):
    return {"ok": bool(ok), "detail": "" if ok else detail, "digest": digest,
            "known_defect": bool(known_defect), "momentary_error": momentary_error}


def _digest(*chunks):
    h = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.encode())
    return h.hexdigest()


def _file_digest(paths):
    h = hashlib.blake2b(digest_size=16)
    for path in paths:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def _write_symbol(path, coeffs):
    """Scalar univariate symbol file from {k: real coefficient}."""
    obj = {"d": 1, "s": 1, "r": 1,
           "coeffs": [{"k": [k], "m": [[[float(v), 0.0]]]} for k, v in sorted(coeffs.items())]}
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _cli_op(ctx, label, argv, verify):
    """An in-process `momsym.cli.main(argv)` call; verify(paths) checks its artifacts.

    argv is a list, or a function returning one when the arguments depend on
    an earlier op of the same unit.
    """
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = ctx.ms.cli.main(argv() if callable(argv) else argv)
        return rc, buf.getvalue()

    def check(result):
        rc, out = result
        if rc != 0:
            return outcome(False, f"exit code {rc}")
        paths = [ln for ln in out.splitlines() if os.path.isfile(ln)]
        if not paths:
            return outcome(False, "no artifact written")
        res = verify(paths)
        res["digest"] = _file_digest(paths)
        return res

    return Op(label, call, check)


def _load_json(paths):
    (path,) = [p for p in paths if p.endswith(".json")]
    with open(path) as fh:
        return json.load(fh)


# -- scalar_tau -----------------------------------------------------------

def scalar_tau(ctx):
    """Real symmetric tridiagonal matrices through the CLI: scenarios and compares,
    and matrix files written by `build` and read back by `spectrum`."""
    scenarios, roundtrips = _scenarios(ctx), _roundtrips(ctx)
    return Workload(units=scenarios.units + roundtrips.units,
                    warmup=scenarios.warmup + roundtrips.warmup)


def _scenarios(ctx):
    """CLI scenarios and compares; the dense complex eigensolver does most of the work."""
    f1 = _write_symbol(os.path.join(ctx.workdir, "f1.json"), {0: 2.0, 1: -1.0, -1: -1.0})
    one = _write_symbol(os.path.join(ctx.workdir, "one.json"), {0: 1.0})
    out = os.path.join(ctx.workdir, "scenarios")
    terms = ["--symbol", f1, "--scaling", '{"form":"one"}',
             "--symbol", one, "--scaling", '{"form":"inverse_power","p":2,"base":"n+1"}']

    def example_verify(paths):
        rep = _load_json(paths)
        failed = sorted(k for k, v in rep["flags"].items() if not v)
        return outcome(not failed, f"failed claims {failed}" if failed else "")

    def matched_verify(paths):
        rep = _load_json([p for p in paths if "compare_momentary" in p])
        bound = 1e-12 * (1.0 + max(abs(v) for v in rep["exact"]))
        err = rep["max_error"]
        return outcome(err <= bound, f"momentary max_error {err:.3e} > {bound:.3e}",
                       momentary_error=err)

    def mismatched_verify(n):
        def verify(paths):
            err = _load_json([p for p in paths if "compare_momentary" in p])["max_error"]
            h2 = 1.0 / (n + 1) ** 2
            return outcome(err > h2, f"mismatched max_error {err:.3e} <= h^2 {h2:.3e}")
        return verify

    def ops_at(n, full):
        ops = []
        for bc in EXAMPLE1_BCS if full else EXAMPLE1_BCS[:1]:
            ops.append(_cli_op(ctx, f"example1_{bc}_n{n}",
                               ["example", "1", "--n", str(n), "--bc", bc, "--out", out],
                               example_verify))
        if full:
            ops.append(_cli_op(ctx, f"example4_n{n}", ["example", "4", "--n", str(n), "--out", out],
                               example_verify))
        ops.append(_cli_op(ctx, f"compare_matched_n{n}",
                           ["compare"] + terms + ["--n", str(n), "--grid", "tau:0,1", "--out", out],
                           matched_verify))
        if full:
            ops.append(_cli_op(ctx, f"compare_mismatched_n{n}",
                               ["compare"] + terms + ["--n", str(n), "--grid", "tau:0,0",
                                                      "--exact-grid", "tau:0,1", "--out", out],
                               mismatched_verify(n)))
        return [[op] for op in ops]

    # n=4095 is left out: one op takes 16-17 s at the first benchmarked commit.
    small, mid, large = (15, 31, 63) if ctx.tiny else (511, 1023, 2047)
    return Workload(units=ops_at(small, True) + ops_at(mid, True) + ops_at(large, False),
                    warmup=ops_at(15, True))


def _tau_angles(np, phi, n):
    # exact grids of tau(0,1) and tau(0,0), written out apart from momsym.grids
    j = np.arange(1, n + 1, dtype=float)
    return (j - 0.5) * math.pi / (n + 0.5) if phi == 1 else j * math.pi / (n + 1)


def _roundtrips(ctx):
    """Matrix files written by `build` and read back by `spectrum`, in CSV and JSON;
    text formatting and parsing do most of the work, the eigensolver little."""
    np = ctx.np
    f = _write_symbol(os.path.join(ctx.workdir, "f.json"), {0: 2.0, 1: -1.0, -1: -1.0})
    out = os.path.join(ctx.workdir, "roundtrips")

    def pair(kind, n, fmt):
        """A build op and the spectrum op that reads the file it wrote."""
        built = {}
        phi = 1 if kind == "tau" else 0
        expect = np.sort(2.0 - 2.0 * np.cos(_tau_angles(np, phi, n)))

        def build_verify(paths):
            built["path"] = paths[0]
            return outcome(True)

        def spectrum_verify(paths):
            with open(paths[0]) as fh:
                values = ([float(v) for v in fh.read().split()] if fmt == "csv"
                          else json.load(fh)["values"])
            err = float(np.max(np.abs(np.asarray(values) - expect)))
            return outcome(err <= 1e-12, f"spectrum differs from symbol samples by {err:.3e}")

        extra = ["--phi", str(phi)] if kind == "tau" else []
        build = _cli_op(ctx, f"build_{kind}_n{n}_{fmt}",
                        ["build", "--kind", kind, "--symbol", f, "--n", str(n), *extra,
                         "--format", fmt, "--out", out], build_verify)
        spectrum = _cli_op(ctx, f"spectrum_{kind}_n{n}_{fmt}",
                           lambda: ["spectrum", "--matrix", built.pop("path", ""),
                                    "--format", fmt, "--out", out], spectrum_verify)
        return [build, spectrum]

    small, mid, large = (15, 31, 63) if ctx.tiny else (255, 511, 1023)
    cases = [(kind, n) for n in (small, mid) for kind in ("tau", "toeplitz")] + [("tau", large)]
    return Workload(units=[pair(kind, n, fmt) for kind, n in cases for fmt in ("csv", "json")],
                    warmup=[pair(kind, 7, fmt) for kind in ("tau", "toeplitz") for fmt in ("csv", "json")])


# -- block_2level ---------------------------------------------------------

def _hermitian_2x2(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return (a + a.conj().T) / 2


def _even_coefficients(rng):
    """Hermitian A_k for k in {0,1}^2, placed at every sign pattern (+-k1, +-k2).

    The symbol is then even in each variable, so the sine transforms
    diagonalise its two-level Toeplitz matrix exactly on the tau(0,0) grids.
    """
    coeffs = {}
    for k in itertools.product((0, 1), repeat=2):
        a = _hermitian_2x2(rng)
        for pos in {(s1 * k[0], s2 * k[1]) for s1 in (1, -1) for s2 in (1, -1)}:
            coeffs[pos] = a
    return coeffs


def _evaluate(np, coeffs, thetas):
    """sum_k c_k exp(i k.theta) at each row of thetas, apart from LaurentSymbol.sample."""
    ks = np.array(list(coeffs), dtype=float)
    cs = np.array(list(coeffs.values()))
    return np.einsum("pk,kij->pij", np.exp(1j * thetas @ ks.T), cs)


def _same_multiset(np, x, y, tol):
    """True when every value has as many partners within tol in y as in x itself."""
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    if x.shape != y.shape:
        return False
    for lo in range(0, x.size, 256):
        chunk = x[lo:lo + 256, None]
        near_y = np.abs(chunk - y[None, :]) <= tol
        near_x = np.abs(chunk - x[None, :]) <= tol
        if not np.array_equal(near_y.sum(axis=1), near_x.sum(axis=1)):
            return False
    return True


def block_2level(ctx):
    """Matrix-valued, complex, two-level symbols: builders, 2x2 sampling, quadrature."""
    np, ms = ctx.np, ctx.ms
    rng = np.random.default_rng(ctx.seed)
    c1, c2 = _even_coefficients(rng), _even_coefficients(rng)
    mom = ms.MomentarySymbol([(ms.CoefficientScaling.one(), ms.LaurentSymbol(c1)),
                              (ms.CoefficientScaling.ratio_N_over_n2(), ms.LaurentSymbol(c2))])
    grids = [ms.GridSpec.tau(0, 0)] * 2
    recover_coeffs = {}
    while len(recover_coeffs) < 10:
        k = tuple(int(v) for v in rng.integers(-3, 4, size=2))
        recover_coeffs[k] = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    source = ms.LaurentSymbol(recover_coeffs)

    if ctx.tiny:
        exact_sizes, large, box, ex3_steps = ((4, 4), (6, 4), (6, 6)), (8, 8), 4, (8, 16)
    else:
        exact_sizes, large, box, ex3_steps = ((16, 16), (24, 16), (24, 24)), (64, 64), 16, (8, 16, 24, 32)

    # batched eigvalsh reference for predict_large, from the drawn coefficients
    axes = [np.arange(1, n + 1) * math.pi / (n + 1) for n in large]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    weight = large[0] / large[1] ** 2
    reference = np.sort(np.linalg.eigvalsh(
        _evaluate(np, c1, pts) + weight * _evaluate(np, c2, pts)).ravel())

    def block_exact(size):
        def call():
            glt = mom.glt_symbol()
            exact = ms.eig_hermitian(ms.multilevel_toeplitz(mom.fixed_size(size), size))
            rm = ms.compare(exact, ms.sample_spectrum_approx(mom, grids, size),
                            grid=grids[0], symbol_kind="momentary", size=size)
            rg = ms.compare(exact, ms.sample_spectrum_approx(glt, grids, size),
                            grid=grids[0], symbol_kind="glt", size=size)
            return rm, rg, ms.distribution_test(exact, glt)

        def check(result):
            rm, rg, dist = result
            bound = 1e-12 * (1.0 + float(np.max(np.abs(rm.exact.values))))
            return outcome(rm.max_error <= bound,
                           f"momentary max_error {rm.max_error:.3e} > {bound:.3e}",
                           digest=_digest(rm.to_json_text(), rg.to_json_text(),
                                          repr((dist.discrete_mean, dist.integral_mean))),
                           momentary_error=rm.max_error)

        return Op(f"block_exact_{size[0]}x{size[1]}", call, check)

    def predict_check(values):
        values = np.asarray(values)
        if values.shape != reference.shape or np.iscomplexobj(values):
            return outcome(False, f"got {values.dtype} values of shape {values.shape}")
        err = float(np.max(np.abs(values - reference)))
        bound = 1e-12 * (1.0 + float(np.max(np.abs(reference))))
        return outcome(err <= bound, f"differs from eigvalsh reference by {err:.3e}",
                       digest=_digest(values.tobytes()))

    def recover_check(symbol):
        return outcome(symbol.allclose(source, 1e-12), "recovered coefficients differ",
                       digest=_digest(json.dumps(symbol.to_json(), sort_keys=True)))

    def example3(steps):
        def check(rep):
            failed = rep.failed_flags()
            digest = _digest(rep.to_json_text())
            if not failed:
                return outcome(True, digest=digest)
            report = rep.reports.get("eig_momentary")
            known = (failed == [EXAMPLE3_KNOWN_DEFECT] and report is not None
                     and _same_multiset(np, report.exact.values, report.approx, 1e-8))
            return outcome(False, f"failed claims {failed}"
                           + (" (known defect: lexicographic pairing in compare)" if known else ""),
                           digest=digest, known_defect=known)

        return Op(f"example3_N{steps}_n33", lambda: ms.example3(steps, 33), check)

    ops = [block_exact(size) for size in exact_sizes]
    ops.append(Op(f"predict_large_{large[0]}x{large[1]}",
                  lambda: ms.sample_spectrum_approx(mom, grids, large), predict_check))
    ops.append(Op(f"recover_K{box}", lambda: ms.fourier_coefficients(source, [box, box]),
                  recover_check))
    ops += [example3(steps) for steps in ex3_steps]
    warm = [block_exact((4, 4)),
            Op("predict_warm", lambda: ms.sample_spectrum_approx(mom, grids, (4, 4)), None),
            Op("recover_warm", lambda: ms.fourier_coefficients(source, [4, 4]), recover_check),
            example3(4)]
    return Workload(units=[[op] for op in ops], warmup=[[op] for op in warm])


WORKLOADS = {"scalar_tau": scalar_tau, "block_2level": block_2level}
