"""Four end-to-end scenarios contrasting size-aware and asymptotic symbols.

Each scenario builds a concrete structured matrix family, computes its
exact spectrum, samples both the asymptotic (size-independent) symbol and
the size-aware symbol on the algebra's grid, and records named boolean
flags for every claim the scenario is expected to satisfy:

1. second-difference matrix under three boundary conditions: the
   size-aware symbol sampled on the matching corner grid is spectrally
   exact while the asymptotic symbol is off by h^2 per index;
2. a non-Hermitian bidiagonal family whose eigenvalues a constant
   size-aware symbol captures exactly, plus the Gram matrix whose top
   eigenvalue is an outlier for the asymptotic symbol only;
3. a two-level block family from a space-time discretization, reordered
   by a permutation into multilevel block Toeplitz form, with complex
   eigenvalues recovered by 2x2 samples of the size-aware symbol;
4. a multigrid-style coarsening of scenario 1, where the coarse matrix is
   again Toeplitz-plus-corner with a size-aware symbol.
"""

import json
import math
import re

import numpy as np

from ._io import atomic_write_text
from .analysis import _reports, compare, sample_spectrum_approx, verify_tau_decomposition
from .grids import GridSpec
from .matrices import _refuse_oversized, multilevel_toeplitz, multilevel_toeplitz_rect, toeplitz
from .spectra import (Spectrum, _eig_hermitian_band, eig_general_small, eig_hermitian,
                      singular_values)
from .symbols import (CoefficientScaling, LaurentSymbol, MomentarySymbol,
                      block_reinterpret, symmetrize_tridiagonal)

_EXACT_TOL = 1e-15


class ExampleReport:
    """Results of one scenario: claim flags, comparison reports, diagnostics."""

    def __init__(self, example_id, params):
        self.example_id = str(example_id)
        self.params = dict(params)
        self.flags = {}
        self.reports = {}
        self.notes = {}

    @property
    def passed(self):
        return all(self.flags.values())

    def failed_flags(self):
        return sorted(k for k, v in self.flags.items() if not v)

    def _params_tag(self):
        return "_".join(f"{k}{self.params[k]}" for k in sorted(self.params)
                        if isinstance(self.params[k], int))

    def to_json_text(self):
        obj = {
            "example": self.example_id,
            "params": self.params,
            "passed": self.passed,
            "flags": self.flags,
            "notes": self.notes,
            "reports": {label: rep.to_json() for label, rep in self.reports.items()},
        }
        return json.dumps(obj, indent=1, sort_keys=True) + "\n"

    def write_artifacts(self, outdir, fmt="json"):
        """Write example<id>_<params>.json and one CSV per comparison report."""
        import os

        tag = f"example{self.example_id}_{self._params_tag()}"
        paths = []
        if fmt in ("json", "both"):
            path = os.path.join(outdir, f"{tag}.json")
            atomic_write_text(path, self.to_json_text())
            paths.append(path)
        if fmt in ("csv", "both"):
            for label, rep in sorted(self.reports.items()):
                safe = re.sub(r"[^A-Za-z0-9_.-]", "-", label)
                path = os.path.join(outdir, f"{tag}_{safe}.csv")
                rep.write_csv(path)
                paths.append(path)
        return paths


def second_difference_symbol():
    """The symbol 2 - 2cos(theta) of the central second-difference stencil."""
    return LaurentSymbol({0: 2.0, 1: -1.0, -1: -1.0})


def _const_symbol(value=1.0):
    return LaurentSymbol({0: value})


def _shifted_second_difference(grid, n):
    """grid's matrix of 2 - 2cos(theta), plus h^2 I with h = 1/(n+1)."""
    h = 1.0 / (n + 1)
    a = grid.matrix(second_difference_symbol(), n)
    a.flat[::n + 1] += h * h
    return a


def h2xn_dirichlet_neumann(n):
    """Scaled second-difference matrix with a Neumann corner: diag 2+h^2, last 1+h^2."""
    return _shifted_second_difference(GridSpec.tau(0, 1), int(n))


# each boundary condition's matrix lies in the algebra of its matched grid
_BC_GRIDS = {
    "dirichlet_neumann": GridSpec.tau(0, 1),
    "dirichlet": GridSpec.tau(0, 0),
    "periodic": GridSpec("circulant"),
}


def example1(n, bc="dirichlet_neumann"):
    """Second-difference matrix: size-aware symbol is exact on the matched grid.

    The matrix is tridiagonal 2+h^2 with a boundary-condition-dependent
    correction (h = 1/(n+1)): a -1 corner for mixed conditions, none for
    pure Dirichlet, wrap-around for periodic.  The matched grid reproduces
    the spectrum exactly through the size-aware symbol 2 + h^2 - 2cos(theta);
    the asymptotic symbol misses by exactly h^2 at every index, and by
    O(h) when additionally sampled on the wrong grid.
    """
    n = int(n)
    if n < 2:
        raise ValueError("need n >= 2")
    h = 1.0 / (n + 1)
    f1 = second_difference_symbol()
    f_mom = MomentarySymbol([
        (CoefficientScaling.one(), f1),
        (CoefficientScaling.inverse_power(2, "n+1"), _const_symbol()),
    ])

    if bc not in _BC_GRIDS:
        raise ValueError(f"unknown boundary condition {bc!r}")
    matched = _BC_GRIDS[bc]

    band = matched.band(second_difference_symbol(), n)
    if band is not None:  # None for periodic, whose corners lie off the band
        band[1] += h * h
    exact = _eig_hermitian_band(band, lambda: _shifted_second_difference(matched, n))
    rep = ExampleReport("1", {"n": n, "bc": bc})
    rep.notes["h"] = h

    rep.reports["momentary_matched"], rep.reports["glt_matched"] = _reports(
        exact, matched, n, momentary=f_mom, glt=f_mom.glt_symbol())
    rep.flags["momentary_exact_on_matched_grid"] = \
        rep.reports["momentary_matched"].max_error <= 1e-12
    rep.flags["glt_error_equals_h_squared_on_matched_grid"] = bool(
        np.max(np.abs(rep.reports["glt_matched"].per_index_error - h * h)) <= 1e-12)

    mismatch = GridSpec.tau(0, 0)
    if mismatch.name() != matched.name():
        rep.reports["glt_mismatched"] = _reports(exact, mismatch, n, glt=f_mom.glt_symbol())[0]
        rep.flags["glt_mismatched_grid_error_exceeds_h_squared"] = \
            rep.reports["glt_mismatched"].max_error > h * h
        rep.notes["glt_mismatched_max_error_over_h"] = \
            rep.reports["glt_mismatched"].max_error / h
    return rep


def _bracketed(values, f, lower_grid, upper_grid, n):
    """Whether f's sorted samples on lower_grid and upper_grid bracket sorted values, to 1e-12."""
    lower, upper = (sample_spectrum_approx(f, grid, n) for grid in (lower_grid, upper_grid))
    tol = 1e-12 * max(1.0, float(np.max(np.abs(values))))
    return bool(np.all(values >= lower - tol) and np.all(values <= upper + tol))


def example2(n):
    """Bidiagonal family: constant size-aware eigenvalue symbol, Gram outlier.

    X is lower bidiagonal with diagonal 2+h (h = 1/n) and unit subdiagonal,
    so every eigenvalue is exactly 2+h: the size-aware eigenvalue symbol is
    the constant 2+h, while the asymptotic one (the constant 2) is off by h
    everywhere.  The Gram matrix X^T X is tridiagonal-plus-corner; its top
    eigenvalue exceeds the asymptotic symbol's maximum but stays within the
    size-aware symbol's range, and every eigenvalue is bracketed by the
    size-aware symbol's values on the two neighboring corner grids.
    """
    n = int(n)
    if n < 3:
        raise ValueError("need n >= 3")
    h = 1.0 / n
    f1 = LaurentSymbol({0: 2.0, 1: 1.0})
    x_mom = MomentarySymbol([
        (CoefficientScaling.one(), f1),
        (CoefficientScaling.inverse_power(1, "n"), _const_symbol()),
    ])
    x = toeplitz(x_mom.fixed_size(n), n)

    rep = ExampleReport("2", {"n": n})
    rep.notes["h"] = h

    exact = eig_general_small(x)
    rep.flags["all_eigenvalues_equal_2_plus_h"] = bool(
        np.max(np.abs(exact.values - (2.0 + h))) <= 1e-15)

    eig_mom = symmetrize_tridiagonal(x_mom)
    grid = GridSpec.tau(0, 0)
    rep.reports["eig_momentary"], rep.reports["eig_glt"] = _reports(
        exact, grid, n, momentary=eig_mom, glt=eig_mom.glt_symbol())
    rep.flags["momentary_eigenvalue_symbol_exact"] = \
        rep.reports["eig_momentary"].max_error <= 1e-14
    rep.flags["glt_eigenvalue_error_equals_h"] = bool(
        np.max(np.abs(rep.reports["eig_glt"].per_index_error - h)) <= 1e-14)

    g_mom = x_mom.hermitian() * x_mom
    g_fixed = g_mom.fixed_size(n)
    gram = x.conj().T @ x
    phi = -1.0 / (2.0 + h)
    ok, residual = verify_tau_decomposition(gram, g_fixed, 0.0, phi)
    rep.flags["gram_matches_corner_decomposition"] = ok
    rep.notes["gram_tau_residual"] = residual

    gram_eigs = eig_hermitian(gram)
    sv = singular_values(x)
    rep.flags["singular_values_are_gram_eig_roots"] = bool(
        np.max(np.abs(sv.values ** 2 - gram_eigs.values)) <= 1e-10 * (1 + gram_eigs.values[-1]))

    glt_gram_max = float(np.max(sample_spectrum_approx(
        g_mom.glt_symbol(), GridSpec("uniform-open"), 4096)))
    g_fixed_max = float(g_fixed(0.0).real)
    top = float(gram_eigs.values[-1])
    rep.notes["gram_top_eigenvalue"] = top
    rep.notes["glt_symbol_max"] = 9.0
    rep.notes["momentary_symbol_max"] = g_fixed_max
    rep.flags["gram_top_eigenvalue_outlier_for_glt_symbol"] = \
        top > 9.0 and top <= g_fixed_max
    rep.notes["glt_symbol_grid_max"] = glt_gram_max

    rep.flags["gram_eigenvalues_bracketed_by_neighbor_grids"] = _bracketed(
        gram_eigs.values, g_fixed, GridSpec.tau(0, -1), GridSpec.tau(0, 0), n)

    rep.reports["gram_momentary"], rep.reports["gram_glt"] = _reports(
        gram_eigs, grid, n, momentary=g_fixed, glt=g_mom.glt_symbol())
    return rep


# example 3 dof couplings: S_A and D_A within a time step, S_B to the previous one
S_A = np.array([[9.0, -9.0], [3.0, 5.0]])
D_A = np.diag([3.0, 1.0])
S_B = np.array([[0.0, -12.0], [0.0, 4.0]])
# the size-free part of the eigenvalue symbol, over the cell angle alone
_F1_CELL = LaurentSymbol({0: D_A, 1: -D_A / 2, -1: -D_A / 2})


def _example3_blocks(N, n):
    m = n - 1
    c = N / (12.0 * n * n)
    two_plus_cos = LaurentSymbol({0: 2.0, 1: 0.5, -1: 0.5})
    one_minus_cos = LaurentSymbol({0: 1.0, 1: -0.5, -1: -0.5})
    t2p = toeplitz(two_plus_cos, m)
    t1m = toeplitz(one_minus_cos, m)
    a_blk = c * np.kron(S_A, t2p) + np.kron(D_A, t1m)
    b_blk = c * np.kron(S_B, t2p)
    # the step symbol: a_blk within a step, b_blk from the previous one
    return LaurentSymbol({0: a_blk, 1: b_blk})


def _example3_symbols():
    """The two-level momentary symbol f1 + (N/n^2) f2 of the reordered matrix."""
    f1 = LaurentSymbol({(0,) + k: m for k, m in _F1_CELL.coeffs.items()})
    f2 = LaurentSymbol({
        (0, 0): S_A / 6, (0, 1): S_A / 24, (0, -1): S_A / 24,
        (1, 0): S_B / 6, (1, 1): S_B / 24, (1, -1): S_B / 24,
    })
    return MomentarySymbol([(CoefficientScaling.one(), f1),
                            (CoefficientScaling.ratio_N_over_n2(), f2)])


def example3(N, n):
    """Space-time block family: complex spectrum from 2x2 size-aware samples.

    The assembled matrix is block lower bidiagonal over N identical steps;
    a (step, dof, cell) -> (step, cell, dof) reordering turns it into a
    two-level block Toeplitz matrix plus an N/n^2-scaled correction, exactly.
    Because the step blocks repeat, the spectrum is the diagonal block's
    spectrum with multiplicity N; computing it from that block sidesteps
    the severe forward-error blowup iterative solvers suffer on eigenvalues
    of multiplicity N.  Each spectrum point comes from a 2x2 eigenproblem of
    the size-aware symbol, sampled at angles j*pi/n; values can be complex.
    """
    N, n = int(N), int(n)
    if N < 2 or n < 3:
        raise ValueError("need N >= 2 and n >= 3")
    m = n - 1
    # guards the N-step order, not the s-step one, so the refused sizes and exit code stay
    _refuse_oversized(2 * N * m, 2 * N * m, 72)
    blocks = _example3_blocks(N, n)
    two_level = _example3_symbols().fixed_size((N, n))
    # block Toeplitz matrices whose step offsets lie within s - 1 agree at N steps exactly
    # when they agree at s steps, with the same max |residual|
    s = min(N, 1 + max(blocks.degree()[0], two_level.degree()[0]))
    assembly = toeplitz(blocks, s)
    rep = ExampleReport("3", {"N": N, "n": n})
    rep.notes["order"] = 2 * N * m

    # (step t, dof p, cell x) with x fastest -> (t, x, p) with p fastest
    perm = np.arange(2 * s * m).reshape(s, 2, m).transpose(0, 2, 1).ravel()
    residual = assembly[np.ix_(perm, perm)] - multilevel_toeplitz(two_level, (s, m))
    structural_err = float(np.max(np.abs(residual)))
    # c * S_A and (N/n^2) * S_A/6 may differ in the last ulp of entries that grow with N
    bound = _EXACT_TOL * max(1.0, float(np.max(np.abs(assembly))))
    rep.flags["reordering_yields_two_level_toeplitz_form"] = structural_err <= bound
    rep.notes["structural_residual"] = structural_err

    # symmetrized 2x2 coefficient with the same trace and determinant as the
    # raw dof coupling, so the sampled eigenvalues are unchanged
    m27 = np.array([[9.0, 1j * math.sqrt(27.0)], [1j * math.sqrt(27.0), 5.0]])
    pert_u = LaurentSymbol({0: m27 / 6, 1: m27 / 24, -1: m27 / 24})
    eig_mom = MomentarySymbol([
        (CoefficientScaling.one(), _F1_CELL),
        (CoefficientScaling.ratio_N_over_n2(), pert_u),
    ])
    rep.flags["glt_symbol_is_size_free_part"] = eig_mom.glt_symbol() == _F1_CELL

    block_spec = eig_general_small(assembly[:2 * m, :2 * m])
    exact = Spectrum(np.tile(block_spec.values, N), "general_eig")

    grid = GridSpec.tau(0, 0)
    mom_fixed = eig_mom.fixed_size((N, n))
    mom_vals = sample_spectrum_approx(mom_fixed, grid, m)
    mom_all = np.tile(np.asarray(mom_vals, dtype=complex), N)
    glt_vals = sample_spectrum_approx(_F1_CELL, grid, m)
    glt_all = np.tile(np.asarray(glt_vals, dtype=complex), N)

    rep.reports["eig_momentary"] = compare(exact, mom_all, grid=grid,
                                           symbol_kind="momentary", size=(N, n))
    rep.reports["eig_glt"] = compare(exact, glt_all, grid=grid,
                                     symbol_kind="glt", size=(N, n))
    rep.flags["momentary_samples_match_spectrum"] = \
        rep.reports["eig_momentary"].max_error <= 1e-8
    rep.notes["momentary_spectral_error"] = rep.reports["eig_momentary"].max_error
    rep.notes["glt_spectral_error"] = rep.reports["eig_glt"].max_error
    return rep


def example4(n):
    """Coarsened second-difference matrix: again Toeplitz-plus-corner.

    An interpolation matrix P with columns (1, 2, 1)/stride 2 is built three
    equivalent ways (explicit stencil; truncated block Toeplitz of a 2x1
    symbol; Toeplitz of 2+2cos(theta) times a cutting matrix), and the
    block-symbol identity behind the third form is checked coefficientwise.
    The coarse matrix P^T (h^2 X) P is Toeplitz with symbol
    4 + 6h^2 + 2(h^2 - 2)cos(theta) plus a single -1 corner, stays in the
    corner-correction algebra, and its eigenvalues are bracketed by the
    size-aware symbol on the two neighboring grids.
    """
    n = int(n)
    if n < 5 or n % 2 == 0:
        raise ValueError("need odd n >= 5")
    m = (n - 1) // 2
    half = (n + 1) // 2
    h = 1.0 / (n + 1)
    rep = ExampleReport("4", {"n": n})
    rep.notes["h"] = h

    p_stencil = np.zeros((n, m), dtype=complex)
    for j in range(m):
        p_stencil[2 * j:2 * j + 3, j] = (1.0, 2.0, 1.0)

    # the other two constructions of P live only inside this comparison, so none is
    # held through the Galerkin product below
    p_sym = LaurentSymbol({0: [[1.0], [2.0]], 1: [[1.0], [0.0]]})
    g = LaurentSymbol({0: 2.0, 1: 1.0, -1: 1.0})
    f_cut = LaurentSymbol({0: [[0.0], [1.0]]})
    rep.flags["interpolation_constructions_agree"] = bool(
        np.array_equal(p_stencil, multilevel_toeplitz_rect(p_sym, (half,), (half,))[:n, :m])
        and np.array_equal(p_stencil, toeplitz(g, n)
                           @ multilevel_toeplitz_rect(f_cut, (half,), (half,))[:n, :m]))
    rep.flags["block_symbol_times_cut_equals_stencil_symbol"] = \
        (block_reinterpret(g, 2) * f_cut) == p_sym

    y = p_stencil.conj().T @ h2xn_dirichlet_neumann(n) @ p_stencil
    y_mom = MomentarySymbol([
        (CoefficientScaling.one(), LaurentSymbol({0: 4.0, 1: -2.0, -1: -2.0})),
        (CoefficientScaling.inverse_power(2, "n+1"),
         LaurentSymbol({0: 6.0, 1: 1.0, -1: 1.0})),
    ])
    y_fixed = y_mom.fixed_size(n)
    resid = y - toeplitz(y_fixed, m)
    resid[-1, -1] += 1.0  # the -1 corner
    resid = float(np.max(np.abs(resid)))
    rep.flags["coarse_matrix_is_toeplitz_plus_corner"] = resid <= _EXACT_TOL
    rep.notes["toeplitz_plus_corner_residual"] = resid

    phi = 1.0 / (2.0 - h * h)
    ok, residual = verify_tau_decomposition(y, y_fixed, 0.0, phi)
    rep.flags["coarse_matrix_in_corner_algebra"] = ok
    rep.notes["tau_residual"] = residual

    y_eigs = eig_hermitian(y)
    rep.flags["coarse_eigenvalues_bracketed_by_neighbor_grids"] = _bracketed(
        y_eigs.values, y_fixed, GridSpec.tau(0, 1), GridSpec.tau(0, 0), m)

    rep.reports["coarse_momentary"], rep.reports["coarse_glt"] = _reports(
        y_eigs, GridSpec.tau(0, 0), m, momentary=y_fixed, glt=y_mom.glt_symbol())
    return rep


def run_example(example_id, **params):
    """Dispatch by id 1..4 and return the ExampleReport."""
    table = {"1": example1, "2": example2, "3": example3, "4": example4}
    key = str(example_id)
    if key not in table:
        raise ValueError(f"unknown example id {example_id!r}")
    return table[key](**params)
