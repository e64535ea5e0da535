"""Symbol-vs-spectrum comparison tools.

Samples size-aware or plain symbols on algebra grids, pairs the samples
index-by-index with an exact spectrum, verifies tridiagonal-plus-corners
decompositions, runs the corner-update eigenvalue bracketing check, and
measures how fast a matrix sequence's singular values vanish.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from ._io import atomic_write_text, fmt_complex, fmt_real
from .grids import GridSpec
from .matrices import _tridiagonal_band, tau_matrix
from .spectra import (Spectrum, _eig_general_values, _eig_hermitian_band, _json_values,
                      _real_part, _spectral_order, singular_values)
from .symbols import LaurentSymbol, MomentarySymbol, _tridiagonal_coeffs


@dataclass
class SpectrumReport:
    """Index-paired comparison of an exact spectrum against symbol samples."""

    exact: Spectrum
    approx: np.ndarray
    per_index_error: np.ndarray
    max_error: float
    grid: GridSpec | None = None
    symbol_kind: str = "glt"
    size: tuple = ()

    def to_csv_text(self):
        def texts(column, fmt=None):
            column = np.asarray(column)
            return map(fmt or (fmt_complex if np.iscomplexobj(column) else fmt_real),
                       column.tolist())

        lines = ["j,exact,approx,abs_error"]
        for j, cells in enumerate(zip(texts(self.exact.values), texts(self.approx),
                                      texts(self.per_index_error, fmt_real)), start=1):
            lines.append(f"{j},{','.join(cells)}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        atomic_write_text(path, self.to_csv_text())

    def to_json(self):
        return {
            "grid": self.grid.name() if self.grid is not None else None,
            "symbol_kind": self.symbol_kind,
            "size": [int(v) for v in self.size],
            "spectrum_kind": self.exact.kind,
            "max_error": float(self.max_error),
            "exact": _json_values(self.exact.values),
            "approx": _json_values(self.approx),
            "per_index_error": _json_values(self.per_index_error),
        }

    def to_json_text(self):
        return json.dumps(self.to_json(), indent=1, sort_keys=True) + "\n"

    def write_json(self, path):
        atomic_write_text(path, self.to_json_text())


def sample_spectrum_approx(sym, grid, size):
    """Sorted multiset of symbol samples over a (tensor) grid.

    `grid` is one GridSpec, or one per variable for multivariate symbols;
    `size` the matching per-variable grid lengths (scalars allowed for
    univariate symbols).  Size-aware symbols are evaluated with the full
    size multi-index.  Matrix-valued samples contribute all their
    eigenvalues.  Output is real when every sample is real to rounding,
    otherwise complex; either way in the order of spectra._spectral_order.
    """
    if isinstance(sym, LaurentSymbol):
        sym = MomentarySymbol.constant(sym)
    grids = [grid] if isinstance(grid, GridSpec) else list(grid)
    sizes = tuple(int(v) for v in np.atleast_1d(size))
    if len(grids) == 1 and sym.d > 1:
        grids = grids * sym.d
    if len(grids) != sym.d:
        raise ValueError(f"need {sym.d} grids, got {len(grids)}")
    if len(sizes) != sym.d:
        raise ValueError(f"need {sym.d} sizes, got {len(sizes)}")
    if sym.s != sym.r:
        raise ValueError("spectral sampling needs square-valued symbols")

    axes = [g.angles(n) for g, n in zip(grids, sizes)]
    vals = _eig_general_values(sym.sample_grid(axes, sizes))
    real = _real_part(vals)
    vals = vals if real is None else real
    return vals[_spectral_order(vals)]


def compare(exact, approx, grid=None, symbol_kind="glt", size=()):
    """Pair an exact spectrum with sorted symbol samples, index by index."""
    approx = np.asarray(approx)
    if len(exact) != approx.shape[0]:
        raise ValueError(f"length mismatch: {len(exact)} exact vs {approx.shape[0]} samples")
    approx = approx[_spectral_order(approx)]
    err = np.abs(exact.values - approx)
    return SpectrumReport(
        exact=exact,
        approx=approx,
        per_index_error=err,
        max_error=float(np.max(err, initial=0.0)),
        grid=grid,
        symbol_kind=symbol_kind,
        size=tuple(int(v) for v in np.atleast_1d(size)),
    )


def _reports(exact, grid, n, **symbols):
    """Compare exact with each keyword symbol sampled on grid at size n; keywords are kinds."""
    return tuple(compare(exact, sample_spectrum_approx(sym, grid, n), grid=grid,
                         symbol_kind=kind, size=(n,))
                 for kind, sym in symbols.items())


def verify_tau_decomposition(a, f, eps, phi):
    """Check a == tau_matrix(f, eps, phi, n) elementwise.

    Returns (ok, residual) with residual the max absolute entry difference
    and ok true when it is below 1e-12 * (1 + max|a|).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("tau decomposition check needs a square matrix")
    t = tau_matrix(f, eps, phi, a.shape[0])
    residual = float(np.max(np.abs(a - t), initial=0.0))
    amax = float(np.max(np.abs(a), initial=0.0))
    return residual <= 1e-12 * (1.0 + amax), residual


@dataclass
class InterlacingReport:
    """Corner-update bracketing of eigenvalues, interior indices only.

    Eigenvalues of the three corner variants (phi = -1, -1/2, 0) are sorted
    descending, matching a symbol that decreases across (0, pi).  The stated
    bracketing puts the middle variant between the other two at the same
    index; the tighter shifted-index upper bound is tracked separately
    because it is not equivalent and can fail.
    """

    n: int
    js: list  # 1-based interior indices checked
    stated_holds: bool
    shifted_upper_holds: bool
    stated_fail_j: list = field(default_factory=list)
    shifted_fail_j: list = field(default_factory=list)
    eig_phi_m1: np.ndarray = None
    eig_phi_m12: np.ndarray = None
    eig_phi_0: np.ndarray = None


def interlacing_check(f, n):
    """Bracket the phi=-1/2 corner variant between phi=-1 and phi=0.

    Needs a symmetric tridiagonal symbol with positive off-diagonal
    coefficient (so the symbol decreases on [0, pi]) and n >= 4.
    """
    _, f1 = _tridiagonal_coeffs(f, real_symmetric=True)
    if f1 <= 0:
        raise ValueError("off-diagonal coefficient must be positive "
                         "(symbol must decrease on [0, pi])")
    n = int(n)
    if n < 4:
        raise ValueError("need n >= 4")

    def eig_desc(phi):
        return _eig_hermitian_band(_tridiagonal_band(f, n, 0.0, phi),
                                   lambda: tau_matrix(f, 0.0, phi, n)).values[::-1]

    lam_m1, lam_m12, lam_0 = eig_desc(-1.0), eig_desc(-0.5), eig_desc(0.0)
    js = list(range(2, n))
    tol = 1e-12 * max(1.0, float(np.max(np.abs(lam_0))))
    i = np.arange(1, n - 1)
    # ~(x <= y + tol) rather than x > y + tol, so a NaN counts as a failure
    stated = ~((lam_m1[i] <= lam_m12[i] + tol) & (lam_m12[i] <= lam_0[i] + tol))
    shifted = ~(lam_m12[i] <= lam_0[i + 1] + tol)
    stated_fail, shifted_fail = (i[stated] + 1).tolist(), (i[shifted] + 1).tolist()
    return InterlacingReport(
        n=n,
        js=js,
        stated_holds=not stated_fail,
        shifted_upper_holds=not shifted_fail,
        stated_fail_j=stated_fail,
        shifted_fail_j=shifted_fail,
        eig_phi_m1=lam_m1,
        eig_phi_m12=lam_m12,
        eig_phi_0=lam_0,
    )


def zero_distribution_stats(seq_builder, sizes, rank_tol=1e-10):
    """Per-size rank/order and nuclear-norm/order of a matrix sequence.

    Both ratios tending to zero certifies that the sequence's singular
    values cluster at zero; either route suffices.
    """
    out = []
    for n in sizes:
        a = np.asarray(seq_builder(n), dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("sequence builder must return square matrices")
        sv = singular_values(a).values
        smax = float(sv[-1]) if sv.size else 0.0
        rank = int(np.sum(sv > rank_tol * smax)) if smax > 0 else 0
        out.append({
            "size": int(a.shape[0]),
            "rank_over_size": rank / a.shape[0],
            "trace_norm_over_size": float(np.sum(sv)) / a.shape[0],
        })
    return out
