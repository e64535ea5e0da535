"""Desk-scale eigenvalue and singular-value routines plus distribution checks.

Wraps dense solves in a small Spectrum type, provides truncated Fourier
sums, and measures how closely an empirical spectrum follows the density
of a symbol: the mean of a test function over the computed values against
its normalized integral over the symbol's domain.

It owns the rules all comparisons share: one order for exact spectra and
symbol samples before index-by-index pairing, one test for values real to
rounding (|imag| <= 1e-9 * max(1, max|v|)), one stacked solver for symbol
samples (_eig_general_values) and one JSON encoding of values.
"""

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from ._io import atomic_write_text, fmt_real
from .errors import NumericError
from .symbols import LaurentSymbol, _tensor_grid

_HERM_TOL = 1e-10
_GENERAL_MAX_ORDER = 64


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
    if np.iscomplexobj(values):
        return [[float(v.real), float(v.imag)] for v in values]
    return [float(v) for v in values]


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


def eig_hermitian(a, vectors=False):
    """Ascending real eigenvalues of a Hermitian matrix, optionally with vectors.

    Rejects input whose max deviation from its conjugate transpose exceeds
    1e-10 (ValueError) or that holds a NaN or inf (NumericError); the solve
    itself runs on the Hermitian average.  Input whose imaginary part is zero
    everywhere is checked and solved in float64: on tridiagonal input the
    values are bit-identical to the complex solve, as both LAPACK drivers
    finish on the same tridiagonal form.  With vectors=True, real input gets
    real eigenvectors (columns); no caller inside momsym asks for vectors.
    """
    a = np.asarray(a)
    real = not (np.iscomplexobj(a) and a.imag.any())
    a = _as_square(a.real if real else a, float if real else complex)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, reported just below
        dev = np.max(np.abs(a - a.conj().T), initial=0.0)
    if not np.isfinite(dev):
        raise NumericError("matrix has NaN or infinite entries")
    if dev > _HERM_TOL:
        raise ValueError("matrix is not Hermitian to 1e-10")
    h = 0.5 * (a + a.conj().T)
    try:
        if vectors:
            w, v = np.linalg.eigh(h)
            return Spectrum(w, "hermitian_eig"), v
        w = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Hermitian eigensolve failed: {exc}") from exc
    return Spectrum(w, "hermitian_eig")


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


def _eig_general_values(a):
    """Flattened, unsorted eigenvalues of a (count, n, n) stack, each by eig_general_small's rules."""
    n = a.shape[-1]
    if n > _GENERAL_MAX_ORDER:
        raise ValueError(f"general eigensolve capped at order {_GENERAL_MAX_ORDER}, got {n}")
    if not np.isfinite(a).all():
        raise NumericError("matrix has NaN or infinite entries")
    rows, cols = np.triu_indices(n, 1)
    rest = ~(np.all(a[:, rows, cols] == 0, axis=1) | np.all(a[:, cols, rows] == 0, axis=1))
    w = np.diagonal(a, axis1=1, axis2=2).copy()
    b = a[rest]
    if n == 2:
        # np.power and _cmul keep the bits of the per-matrix formula: numpy's vectorised
        # complex multiply and x**2 (which it turns into square) round differently on
        # some SIMD builds, down to the sign of a zero imaginary part and so the sqrt branch
        t = b[:, 0, 0] + b[:, 1, 1]
        root = np.sqrt(np.power(b[:, 0, 0] - b[:, 1, 1], 2) + _cmul(4 * b[:, 0, 1], b[:, 1, 0]))
        w[rest] = np.stack([(t - root) / 2, (t + root) / 2], axis=1)
    elif b.size:
        try:
            w[rest] = v = np.linalg.eigvals(b)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"general eigensolve failed: {exc}") from exc
        if not np.all(np.isfinite(v)):
            raise NumericError("general eigensolve produced non-finite values")
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
    try:
        w = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular value decomposition failed: {exc}") from exc
    return Spectrum(w, "singular")


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

    # tensor midpoint rule per box side; on a full period this matches trapezoid
    samples = f.sample(_tensor_grid(
        [lo + (hi - lo) * (np.arange(512) + 0.5) / 512 for lo, hi in domain]))
    if f.s != f.r or np.abs(samples - samples.conj().transpose(0, 2, 1)).max() / 2 \
            > _rounding_tol(samples):
        raise ValueError("symbol is not Hermitian on the grid; cannot compare")
    vals = _eig_general_values(samples).real
    if spec.kind == "singular":
        vals = np.abs(vals)

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
