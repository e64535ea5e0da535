"""Desk-scale eigenvalue and singular-value routines plus distribution checks.

Wraps dense and tridiagonal solves in a small Spectrum type, provides truncated Fourier
sums, and measures how closely a spectrum follows a symbol's density: a test function's
mean over the values against its normalized integral over the domain.

It owns the rules all comparisons share: one order for exact spectra and symbol samples
before index-by-index pairing, one test for values real to rounding (|imag| <= 1e-9 *
max(1, max|v|)), one stacked solver for symbol samples (_eig_general_values), one JSON
encoding of values, one band rule (_eig_hermitian_band: a real tridiagonal matrix, from
eig_hermitian or a builder's band form, is checked on its diagonals and solved by LAPACK
stev once scipy.linalg is loaded, as it is from order _STEV_IMPORT_ORDER on, else by the
dense eigvalsh, with the same bits), and one solve boundary (_solved): a LinAlgError of
any LAPACK call, or a NaN or inf among its values, raises NumericError there alone.
"""

import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from ._io import atomic_write_text, fmt_real
from .errors import NumericError
from .symbols import LaurentSymbol

_HERM_TOL = 1e-10
_GENERAL_MAX_ORDER = 64
# distribution_test samples and solves its 512**d midpoints this many at a time, so its
# temporaries stay near cache size; the values and their mean keep their bits
_QUAD_CHUNK = 1 << 14
# The order from which a real tridiagonal solve first imports scipy.linalg for
# LAPACK stev.  On a 2-vCPU host (numpy 2.4.6, scipy 1.17.1, OpenBLAS) the
# import took 0.27-0.34 s and 28 MiB; the dense real solve of a tau matrix took
# 0.31 s at n=1535, 0.36 s at 1663 and 0.70 s at 2047, against 0.06, 0.06 and
# 0.10 s for stev, so from about n=1600 one solve pays for the import.
_STEV_IMPORT_ORDER = 1600


def _rounding_tol(values):
    """1e-9 * max(1, max|v|): parts of values this small are rounding."""
    return 1e-9 * max(1.0, float(np.abs(values).max(initial=0.0)))


def _spectral_order(values):
    """Sorting indices: real values stably ascending, complex by real part.

    A run of sorted real parts with neighbour gaps within _rounding_tol is one tie,
    ordered by imaginary part, so a conjugate pair a solver split still pairs.
    """
    order = values.real.argsort(kind="stable")
    if not np.iscomplexobj(values):
        return order
    re_sorted = values.real[order]
    run = (np.diff(re_sorted, prepend=re_sorted[:1]) > _rounding_tol(values)).cumsum()
    return order[np.lexsort((values.imag[order], run))]


def _real_part(values):
    """The real part of values when every imaginary part is rounding, else None."""
    real = np.abs(values.imag).max(initial=0.0) <= _rounding_tol(values)
    return values.real if real else None


def _json_values(values):
    """Floats for real values, [real, imag] pairs for complex ones."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        return np.stack((values.real, values.imag), -1).tolist()
    return values.astype(float).tolist()


class Spectrum:
    """Sorted spectrum values plus the kind of computation that produced them.

    kind "hermitian_eig" and "singular" hold ascending real values;
    "general_eig" holds complex values in the order of _spectral_order.
    """

    KINDS = ("hermitian_eig", "singular", "general_eig")

    def __init__(self, values, kind):
        if kind not in self.KINDS:
            raise ValueError(f"unknown spectrum kind {kind!r}")
        v = np.asarray(values, dtype=complex if kind == "general_eig" else float)
        v = v[_spectral_order(v)]
        if kind == "singular" and v.size and v[0] < 0:
            raise ValueError("singular values must be nonnegative")
        self.values = v
        self.values.flags.writeable = False
        self.kind = kind

    def __len__(self):
        return self.values.size

    def __iter__(self):
        return iter(self.values)

    def __repr__(self):
        return f"Spectrum(kind={self.kind!r}, n={len(self)})"

    def to_csv_text(self):
        if self.kind == "general_eig":
            lines = [f"{fmt_real(v.real)},{fmt_real(v.imag)}" for v in self.values]
        else:
            lines = [fmt_real(v) for v in self.values]
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        atomic_write_text(path, self.to_csv_text())

    def to_json_text(self):
        obj = {"kind": self.kind, "values": _json_values(self.values)}
        return json.dumps(obj, sort_keys=True) + "\n"


def _as_square(a, dtype=complex):
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    return a


def _hermitian_average(x, xh):
    """0.5 * (x + xh) after checking that max|x - xh| is finite and within 1e-10."""
    with np.errstate(invalid="ignore", over="ignore"):  # NaN or inf: refused here or by _solved
        dev = np.max(np.abs(x - xh), initial=0.0)
        if not np.isfinite(dev):
            raise NumericError("matrix has NaN or infinite entries")
        if dev > _HERM_TOL:
            raise ValueError("matrix is not Hermitian to 1e-10")
        return 0.5 * (x + xh)


def _solved(what, solve, *args, **kwargs):
    """solve(*args, **kwargs), the one boundary of momsym's LAPACK solves: a LinAlgError or a
    NaN or inf it returns raises NumericError, and numpy's overflow and invalid warnings stay in."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            out = solve(*args, **kwargs)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"{what} failed: {exc}") from exc
    if not all(np.isfinite(part).all() for part in (out if isinstance(out, tuple) else [out])):
        raise NumericError(f"{what} produced non-finite values")
    return out


def _band_solver(n):
    """scipy's eigvalsh_tridiagonal once importing it pays off or is paid; else None."""
    if n < _STEV_IMPORT_ORDER and "scipy.linalg" not in sys.modules:
        return None
    try:
        from scipy.linalg import eigvalsh_tridiagonal
    except ImportError:
        return None
    return eigvalsh_tridiagonal


def _band(a):
    """a's (sub, main, super) diagonals if no nonzero lies off them, else None."""
    band = [np.diagonal(a, k) for k in (-1, 0, 1)]
    return band if np.count_nonzero(a) == sum(map(np.count_nonzero, band)) else None


def _eig_hermitian_band(band, build, dense=None):
    """eig_hermitian(build()) bit for bit, where band = [sub, main, super] holds build()'s
    diagonals if it is real tridiagonal, else None; build runs only where band is None.

    _hermitian_average checks and averages the band on its diagonals; stev solves that
    average where _band_solver gives it.  Else the dense eigvalsh solves the average
    of dense, the float64 matrix the band came from (the signs of its zeros off the
    band reach LAPACK's bits), or of the band's own matrix.  A -0.0 on the main
    diagonal also takes the dense solve: its Householder reduction turns some -0.0
    diagonal entries into 0.0 (from order 33, where LAPACK blocks it) and so flips
    the sign of an exactly zero eigenvalue.
    """
    if band is None:
        return eig_hermitian(build())
    n = len(band[1])
    h = _hermitian_average(np.concatenate(band), np.concatenate(band[::-1]))
    main = h[n - 1:2 * n - 1]
    solve = _band_solver(n)
    if solve is not None and not np.signbit(main[main == 0]).any():
        w = _solved("Hermitian eigensolve", solve, main, h[:n - 1], lapack_driver="stev",
                    check_finite=False)
    elif dense is not None:  # averaged inside the boundary, which keeps its overflow quiet
        w = _solved("Hermitian eigensolve", lambda: np.linalg.eigvalsh(0.5 * (dense + dense.T)))
    else:
        a = np.zeros((n, n))
        i = np.arange(n)
        a[i[1:], i[:-1]], a[i, i], a[i[:-1], i[1:]] = np.split(h, [n - 1, 2 * n - 1])
        w = _solved("Hermitian eigensolve", np.linalg.eigvalsh, a)
    return Spectrum(w, "hermitian_eig")


def eig_hermitian(a, vectors=False):
    """Ascending real eigenvalues of a Hermitian matrix, optionally with vectors.

    Rejects input whose max deviation from its conjugate transpose exceeds
    1e-10 (ValueError) or that holds a NaN or inf (NumericError); the solve
    itself runs on the Hermitian average.  Input whose imaginary part is zero
    everywhere is checked and solved in float64: on tridiagonal input the
    values are bit-identical to the complex solve, as both LAPACK drivers
    finish on the same tridiagonal form.  Real tridiagonal input without
    vectors follows the module's band rule; stev ends in the same dsterf and so
    gives the same bits.  With vectors=True, real input gets real
    eigenvectors (columns); no caller inside momsym asks for vectors.
    """
    a = np.asarray(a)
    real = not (np.iscomplexobj(a) and a.imag.any())
    a = _as_square(a.real if real else a, float if real else complex)
    band = _band(a) if real and not vectors and a.size else None
    if band is not None:
        return _eig_hermitian_band(band, None, dense=a)
    h = _hermitian_average(a, a.conj().T)
    if vectors:
        w, v = _solved("Hermitian eigensolve", np.linalg.eigh, h)
        return Spectrum(w, "hermitian_eig"), v
    return Spectrum(_solved("Hermitian eigensolve", np.linalg.eigvalsh, h), "hermitian_eig")


def eig_general_small(a):
    """Complex eigenvalues of a small general matrix, in _spectral_order.

    Order is capped at 64.  Triangular input and 2x2 input bypass the
    iterative solver: the diagonal, respectively the quadratic formula, give
    the eigenvalues exactly, which matters for defective matrices where
    iterative solvers lose half or more of the working digits.  A NaN or inf
    entry raises NumericError.
    """
    return Spectrum(_eig_general_values(_as_square(a)[None]), "general_eig")


def _cmul(x, y):
    """Elementwise x * y from real parts, rounded as scalar complex arithmetic rounds."""
    out = np.empty_like(y)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _refuse_general_order(n):
    """ValueError for a general eigensolve of order n above _GENERAL_MAX_ORDER."""
    if n > _GENERAL_MAX_ORDER:
        raise ValueError(f"general eigensolve capped at order {_GENERAL_MAX_ORDER}, got {n}")


def _eig_general_values(a):
    """Flattened, unsorted eigenvalues of a (count, n, n) stack, each by eig_general_small's rules."""
    n = a.shape[-1]
    _refuse_general_order(n)
    if not np.isfinite(a).all():
        raise NumericError("matrix has NaN or infinite entries")
    return _solved("general eigensolve", _stacked_eigvals, a, n)


def _stacked_eigvals(a, n):
    """_eig_general_values of a checked stack of order n: diagonals, the 2x2 formula, eigvals."""
    rows, cols = np.triu_indices(n, 1)
    rest = ~(np.all(a[:, rows, cols] == 0, axis=1) | np.all(a[:, cols, rows] == 0, axis=1))
    w = np.diagonal(a, axis1=1, axis2=2).copy()
    # with no triangular sample, the 2x2 closed form reads the stack itself
    whole = n == 2 and rest.all()
    b = np.ascontiguousarray(a) if whole else a[rest]
    if n == 2:
        # np.power and _cmul keep the bits of the per-matrix formula: numpy's vectorised
        # complex multiply and x**2 (which it turns into square) round differently on
        # some SIMD builds, down to the sign of a zero imaginary part and so the sqrt branch
        t = b[:, 0, 0] + b[:, 1, 1]
        root = np.sqrt(np.power(b[:, 0, 0] - b[:, 1, 1], 2) + _cmul(4 * b[:, 0, 1], b[:, 1, 0]))
        lo, hi = (t - root) / 2, (t + root) / 2
        if whole:
            w[:, 0], w[:, 1] = lo, hi
        else:
            w[rest] = np.stack([lo, hi], axis=1)
    elif b.size:
        w[rest] = np.linalg.eigvals(b)
    return w.ravel()


def singular_values(a):
    """Ascending singular values from one SVD, accurate down to tiny values.

    A NaN or inf entry raises NumericError.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError("need a matrix")
    if not np.isfinite(a).all():
        raise NumericError("matrix has NaN or infinite entries")
    return Spectrum(_solved("singular value decomposition", np.linalg.svd, a, compute_uv=False),
                    "singular")


def fourier_sum(f, n, theta):
    """Partial Fourier sum of a scalar univariate symbol: indices |k| <= n-1."""
    if f.d != 1 or not f.is_scalar():
        raise ValueError("fourier_sum needs a scalar univariate symbol")
    kept = {k: m for k, m in f.coeffs.items() if abs(k[0]) <= int(n) - 1}
    return LaurentSymbol(kept, d=1, s=1, r=1)(theta)


@dataclass
class DistributionReport:
    """Mean of a test function over computed values vs over the symbol."""

    test_function_id: str
    discrete_mean: float
    integral_mean: float
    gap: float
    domain_measure: float


def _test_function(f_id):
    m = re.fullmatch(r"abs_power_(-?\d+)", f_id)
    if m:
        p = int(m.group(1))
        return lambda x: np.abs(x) ** p
    m = re.fullmatch(r"chebyshev_(\d+)", f_id)
    if m:
        cheb = np.polynomial.chebyshev.Chebyshev.basis(int(m.group(1)))
        return lambda x: cheb(np.asarray(x, dtype=float))
    raise ValueError(f"unknown test function id {f_id!r}; use abs_power_P or chebyshev_K")


def distribution_test(spec, f, domain=None, f_id="abs_power_1"):
    """Compare spectral and symbol means of a test function.

    discrete side: mean of F over spec.values; integral side: integral of
    F over the symbol on [-pi,pi]^d divided by the domain measure, with the
    symbol's eigenvalues used pointwise when it is matrix valued (order <= 64)
    and each sample's anti-Hermitian part within _rounding_tol.  Singular
    spectra compare against |f|.  The gap is reported, never judged: decay
    along a size sweep is the caller's assertion.
    """
    if spec.kind == "general_eig":
        raise ValueError("distribution_test needs a singular or hermitian_eig spectrum")
    F = _test_function(f_id)
    if domain is None:
        domain = [(-math.pi, math.pi)] * f.d
    if len(domain) != f.d:
        raise ValueError("domain arity does not match symbol arity")
    measure = float(np.prod([hi - lo for lo, hi in domain]))
    if f.s != f.r:
        raise ValueError("symbol is not Hermitian on the grid; cannot compare")
    if not len(spec):
        raise ValueError("distribution_test needs a nonempty spectrum")

    # tensor midpoint rule per box side; on a full period this matches trapezoid.  The
    # grid goes in even slices of its first (slowest) axis, each about _QUAD_CHUNK points
    # and, from _QUAD_CHUNK = 2 on, never one point alone (LaurentSymbol.sample_grid rounds
    # a lone value as scalar arithmetic does); each is sampled on its axes and solved on
    # its own into vals, and a solve error waits for the Hermitian verdict on the whole grid
    axes = [lo + (hi - lo) * (np.arange(512) + 0.5) / 512 for lo, hi in domain]
    size = 512 ** f.d
    vals = np.empty(size * f.s)
    done, dev, vmax, failure = 0, [], [], None
    for part in np.array_split(axes[0], min(512, -(-size // _QUAD_CHUNK))):
        samples = f.sample_grid([part, *axes[1:]])
        dev.append(np.abs(samples - samples.conj().transpose(0, 2, 1)).max())
        vmax.append(np.abs(samples).max())
        if failure is None:
            try:
                vals[done:done + samples.shape[0] * f.s] = _eig_general_values(samples).real
            except (ValueError, NumericError) as exc:
                failure = exc
        done += samples.shape[0] * f.s
    # np.max, unlike max, keeps a NaN as the whole-grid maximum kept it
    if np.max(dev) / 2 > _rounding_tol(vmax):
        raise ValueError("symbol is not Hermitian on the grid; cannot compare")
    if failure is not None:
        raise failure
    if spec.kind == "singular":
        vals = np.abs(vals)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # refused just below
        discrete = float(np.mean(F(np.asarray(spec.values, dtype=float))))
        integral = float(np.mean(F(vals)))
    if not (np.isfinite(discrete) and np.isfinite(integral)):
        raise NumericError("distribution test produced non-finite means")
    return DistributionReport(
        test_function_id=f_id,
        discrete_mean=discrete,
        integral_mean=integral,
        gap=abs(discrete - integral),
        domain_measure=measure,
    )
