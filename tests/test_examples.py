import json
import sys
import tracemalloc

import numpy as np
import pytest

import momsym.examples as examples
import momsym.matrices as matrices
from momsym import (CoefficientScaling, GridSpec, LaurentSymbol, MomentarySymbol, Spectrum,
                    compare, eig_general_small, example1, example2, example3, example4,
                    identity_rect, multilevel_toeplitz, run_example,
                    sample_spectrum_approx, toeplitz)


class TestExample1:
    @pytest.mark.parametrize("n", [5, 7, 15, 31, 63])
    def test_neumann_corner_sweep(self, n):
        rep = example1(n)
        assert rep.passed, rep.failed_flags()
        assert rep.reports["momentary_matched"].max_error <= 1e-12
        h2 = 1.0 / (n + 1) ** 2
        errs = rep.reports["glt_matched"].per_index_error
        assert np.abs(errs - h2).max() <= 1e-12

    def test_dirichlet_variant(self):
        rep = example1(7, bc="dirichlet")
        assert rep.passed, rep.failed_flags()
        assert rep.reports["momentary_matched"].grid.name() == "tau:0,0"

    def test_periodic_variant(self):
        rep = example1(8, bc="periodic")
        assert rep.passed, rep.failed_flags()
        assert rep.reports["momentary_matched"].grid.name() == "circulant"

    def test_mismatched_grid_error_is_larger(self):
        rep = example1(15)
        mism = rep.reports["glt_mismatched"].max_error
        h = 1.0 / 16
        assert mism > h * h
        assert rep.notes["glt_mismatched_max_error_over_h"] == pytest.approx(
            mism / h)

    def test_rejects_unknown_bc(self):
        with pytest.raises(ValueError):
            example1(7, bc="robin")

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            example1(1)


class TestExample2:
    @pytest.mark.parametrize("n", [4, 5, 8, 16, 64])
    def test_sweep(self, n):
        rep = example2(n)
        assert rep.passed, rep.failed_flags()

    def test_eigenvalues_are_exactly_2_plus_h(self):
        n = 4
        h = 1.0 / n
        x = toeplitz(LaurentSymbol({0: 2.0 + h, 1: 1.0}), n)
        got = eig_general_small(x).values
        assert np.all(got == 2.0 + h)

    def test_glt_eigenvalue_error_is_h(self):
        rep = example2(8)
        errs = rep.reports["eig_glt"].per_index_error
        assert np.abs(errs - 1.0 / 8).max() <= 1e-14

    def test_top_gram_eigenvalue_window_n5(self):
        rep = example2(5)
        top = rep.notes["gram_top_eigenvalue"]
        assert top > rep.notes["glt_symbol_max"] == 9.0
        assert top <= rep.notes["momentary_symbol_max"] == pytest.approx(10.24)

    def test_gram_reports_present(self):
        rep = example2(6)
        assert rep.reports["gram_momentary"].max_error \
            < rep.reports["gram_glt"].max_error


def _kron_example3(N, n):
    """example3 with its matrix assembled from Kronecker products with identities and
    its structural reference built as two builds, a scale and a sum: the reference
    whose report text the one-build path must reproduce."""
    S_A, S_B, D_A = examples.S_A, examples.S_B, examples.D_A
    m, c = n - 1, N / (12.0 * n * n)
    t2p = toeplitz(LaurentSymbol({0: 2.0, 1: 0.5, -1: 0.5}), m)
    t1m = toeplitz(LaurentSymbol({0: 1.0, 1: -0.5, -1: -0.5}), m)
    a_blk = c * np.kron(S_A, t2p) + np.kron(D_A, t1m)
    b_blk = c * np.kron(S_B, t2p)
    full = np.kron(np.eye(N), a_blk) + np.kron(np.eye(N, k=-1), b_blk)
    rep = examples.ExampleReport("3", {"N": N, "n": n})
    rep.notes["order"] = full.shape[0]
    perm = np.arange(2 * N * m).reshape(N, 2, m).transpose(0, 2, 1).ravel()
    reordered = full[np.ix_(perm, perm)]
    f1 = LaurentSymbol({(0,) + k: v for k, v in examples._F1_CELL.coeffs.items()})
    f2 = LaurentSymbol({(0, 0): S_A / 6, (0, 1): S_A / 24, (0, -1): S_A / 24,
                        (1, 0): S_B / 6, (1, 1): S_B / 24, (1, -1): S_B / 24})
    reference = multilevel_toeplitz(f1, (N, m)) \
        + (N / float(n) ** 2) * multilevel_toeplitz(f2, (N, m))
    err = float(np.max(np.abs(reordered - reference)))
    rep.flags["reordering_yields_two_level_toeplitz_form"] = err <= 1e-15
    rep.notes["structural_residual"] = err
    m27 = np.array([[9.0, 1j * np.sqrt(27.0)], [1j * np.sqrt(27.0), 5.0]])
    eig_mom = MomentarySymbol([
        (CoefficientScaling.one(), examples._F1_CELL),
        (CoefficientScaling.ratio_N_over_n2(),
         LaurentSymbol({0: m27 / 6, 1: m27 / 24, -1: m27 / 24}))])
    rep.flags["glt_symbol_is_size_free_part"] = eig_mom.glt_symbol() == examples._F1_CELL
    exact = Spectrum(np.tile(eig_general_small(full[:2 * m, :2 * m]).values, N), "general_eig")
    grid = GridSpec.tau(0, 0)
    for kind, sym in (("momentary", eig_mom.fixed_size((N, n))), ("glt", examples._F1_CELL)):
        approx = np.tile(np.asarray(sample_spectrum_approx(sym, grid, m), dtype=complex), N)
        rep.reports[f"eig_{kind}"] = compare(exact, approx, grid=grid, symbol_kind=kind,
                                             size=(N, n))
    rep.flags["momentary_samples_match_spectrum"] = \
        rep.reports["eig_momentary"].max_error <= 1e-8
    rep.notes["momentary_spectral_error"] = rep.reports["eig_momentary"].max_error
    rep.notes["glt_spectral_error"] = rep.reports["eig_glt"].max_error
    return rep


def _report_texts(rep):
    return rep.to_json_text(), {label: r.to_csv_text() for label, r in rep.reports.items()}


class TestExample3:
    @pytest.mark.parametrize("N,n", [(2, 4), (3, 5), (4, 8), (16, 33), (24, 33)])
    def test_sweep(self, N, n):
        rep = example3(N, n)
        assert rep.passed, rep.failed_flags()
        assert rep.notes["structural_residual"] <= 1e-15
        assert rep.notes["momentary_spectral_error"] <= 1e-8

    def test_momentary_beats_glt_by_orders(self):
        rep = example3(3, 5)
        assert rep.notes["glt_spectral_error"] > 0.01
        assert rep.notes["momentary_spectral_error"] < 1e-8

    def test_order_matches_reordering(self):
        rep = example3(2, 4)
        # N blocks of 2 x (n - 1) unknowns
        assert rep.notes["order"] == 2 * 2 * 3

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            example3(1, 4)
        with pytest.raises(ValueError):
            example3(2, 2)

    def test_memory_guard_covers_measured_peak(self):
        # the guard's 72 bytes per entry of the N-step order is far above the s-step check's peak
        order = 2 * 8 * 32
        tracemalloc.start()
        try:
            example3(8, 33)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 73 * order * order

    def test_peak_memory_per_entry(self):
        # only s-step matrices are built, so the peak stays far below one N-step matrix
        order = 2 * 8 * 32
        tracemalloc.start()
        try:
            example3(8, 33)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 34 * order * order

    def test_no_matrix_of_the_n_step_order(self):
        # one complex matrix of order 2 * 32 * 32 would take 64 MiB
        tracemalloc.start()
        try:
            example3(32, 33)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_step_count_covers_the_supports(self, monkeypatch):
        # a block at step offset 2 lies outside the reference and must show in the residual
        step_symbol = examples._example3_blocks

        def with_offset_2(N, n):
            coeffs = step_symbol(N, n).coeffs
            coeffs[(2,)] = np.full(coeffs[(0,)].shape, 1e-3)
            return LaurentSymbol(coeffs)

        monkeypatch.setattr(examples, "_example3_blocks", with_offset_2)
        rep = example3(4, 5)
        assert rep.flags["reordering_yields_two_level_toeplitz_form"] is False
        assert rep.notes["structural_residual"] == 1e-3

    @pytest.mark.parametrize("N", [2, 3, 5, 8])
    @pytest.mark.parametrize("n", [3, 4, 6, 9, 17, 33])
    def test_reports_match_kron_assembly(self, N, n):
        assert _report_texts(example3(N, n)) == _report_texts(_kron_example3(N, n))

    def test_memory_guard_before_assembly(self, monkeypatch):
        # 72 bytes per entry of the order 2N(n-1): exactly that runs, one byte less is refused
        order = 2 * 2 * 3
        monkeypatch.setattr(matrices, "_physical_memory", lambda: 72 * order * order)
        assert example3(2, 4).notes["order"] == order
        monkeypatch.setattr(matrices, "_physical_memory", lambda: 72 * order * order - 1)
        monkeypatch.setattr(examples, "_example3_blocks", None)  # never reached
        with pytest.raises(ValueError, match=f"a dense {order} x {order} build would exceed"):
            example3(2, 4)


    @pytest.mark.parametrize("N,n", [(34, 3), (5000, 33)])
    def test_structural_bound_grows_with_the_entries(self, monkeypatch, N, n):
        # c * S_A and (N/n^2) * S_A/6 differ in the last ulp of entries that grow with N, so
        # the residual passes 1e-15 though the reordering is exact; N = 5000 needs the guard
        # of the N-step order lifted
        monkeypatch.setattr(matrices, "_physical_memory", lambda: 1 << 62)
        rep = example3(N, n)
        assert rep.notes["structural_residual"] > examples._EXACT_TOL
        assert rep.passed, rep.failed_flags()


def _dense_coarse_matrix(n):
    """P^H (h^2 X_n) P by two dense products, P built one (1, 2, 1) column at a time."""
    p = np.zeros((n, (n - 1) // 2), dtype=complex)
    for j in range(p.shape[1]):
        p[2 * j:2 * j + 3, j] = (1.0, 2.0, 1.0)
    return p.conj().T @ examples.h2xn_dirichlet_neumann(n) @ p


class TestExample4:
    @pytest.mark.parametrize("n", [7, 15, 31])
    def test_sweep(self, n):
        rep = example4(n)
        assert rep.passed, rep.failed_flags()
        assert rep.notes["toeplitz_plus_corner_residual"] == 0.0

    def test_coarse_symbol_coefficients(self):
        n = 7
        rep = example4(n)
        h2 = 1.0 / (n + 1) ** 2
        mom = rep.reports["coarse_momentary"]
        m = (n - 1) // 2
        assert len(mom.exact) == m
        # coarse operator symbol: (4 - 4cos) + h^2 (6 + 2cos); max at theta=pi
        glt_top = 8.0
        assert mom.exact.values[-1] <= glt_top + h2 * 4

    def test_exact_eigenvalues_bracketed_per_index(self):
        # the corner weight 1/(2 - h^2) sits between the tabulated 0 and 1
        # variants, so each eigenvalue lands between the size-aware symbol
        # sampled on the two neighboring grids
        from momsym import tau_eigen_grid
        n = 15
        rep = example4(n)
        assert rep.flags["coarse_eigenvalues_bracketed_by_neighbor_grids"]
        mom = rep.reports["coarse_momentary"]
        m = (n - 1) // 2
        exact = mom.exact.values
        h2 = 1.0 / (n + 1) ** 2
        for grid, side in ((tau_eigen_grid(0, 1, m), -1), (tau_eigen_grid(0, 0, m), 1)):
            samples = np.sort((4 - 4 * np.cos(grid)) + h2 * (6 + 2 * np.cos(grid)))
            assert np.all(side * (samples - exact) >= -1e-12)

    @pytest.mark.parametrize("n", [5, 7, 9, 15, 33, 63, 127])
    def test_reports_match_identity_products(self, n, monkeypatch):
        # the reference cuts each rectangular build by I_(n x n+1) on the left and
        # I_((n+1)/2 x (n-1)/2) on the right; example 4 takes the leading n x (n-1)/2 slice
        want = _report_texts(example4(n))
        build = examples.multilevel_toeplitz_rect

        def cut(f, n_vec, m_vec):
            x = build(f, n_vec, m_vec)
            return identity_rect(n, x.shape[0]) @ x @ identity_rect(x.shape[1], (n - 1) // 2)

        monkeypatch.setattr(examples, "multilevel_toeplitz_rect", cut)
        assert _report_texts(example4(n)) == want

    def test_coarse_matrix_is_the_dense_galerkin_product(self):
        # same values as P^H X P; only the sign of a zero may differ (at (m-1, m-3) for
        # n = 7 mod 8, where the dense product leaves -0.0)
        for n in [*range(5, 260, 2), 511, 1023]:
            assert np.array_equal(examples._coarse_matrix(n), _dense_coarse_matrix(n)), n

    @pytest.mark.parametrize("scipy_linalg", ["blocked", "loaded"])
    def test_reports_match_dense_galerkin_product(self, scipy_linalg, monkeypatch):
        if scipy_linalg == "blocked":
            monkeypatch.setitem(sys.modules, "scipy.linalg", None)  # the dense solve
        else:
            pytest.importorskip("scipy.linalg")
        for n in range(5, 260, 2):
            with monkeypatch.context() as mp:
                mp.setattr(examples, "_coarse_matrix", _dense_coarse_matrix)
                want = _report_texts(example4(n))
            assert _report_texts(example4(n)) == want, n

    def test_peak_memory_at_n_1023(self):
        # the Galerkin product applies P's stencil, so it holds X and X P, and the peak is
        # toeplitz(g, n) beside P in the check of P's third construction (24.6 MiB); the
        # two dense products took it to 39.9 MiB
        tracemalloc.start()
        try:
            example4(1023)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 28 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"

    def test_rejects_even_or_tiny_n(self):
        with pytest.raises(ValueError):
            example4(8)
        with pytest.raises(ValueError):
            example4(3)


class TestReportsAndDispatch:
    def test_run_example_dispatch(self):
        rep = run_example("1", n=7)
        assert rep.example_id == "1" and rep.passed

    def test_run_example_unknown_id(self):
        with pytest.raises(ValueError):
            run_example("9", n=5)

    def test_json_artifact_roundtrip(self, tmp_path):
        rep = example1(7)
        paths = rep.write_artifacts(tmp_path, fmt="both")
        json_paths = [p for p in paths if p.endswith(".json")]
        csv_paths = [p for p in paths if p.endswith(".csv")]
        assert len(json_paths) == 1 and len(csv_paths) == len(rep.reports)
        obj = json.loads(open(json_paths[0]).read())
        assert obj["example"] == "1"
        assert obj["passed"] is True
        assert set(obj["flags"]) == set(rep.flags)

    def test_artifacts_deterministic(self, tmp_path):
        rep = example2(5)
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir(), b.mkdir()
        pa = rep.write_artifacts(str(a))
        pb = rep.write_artifacts(str(b))
        assert open(pa[0]).read() == open(pb[0]).read()

    def test_failed_flags_listing(self):
        rep = example1(7)
        rep.flags["synthetic_failure"] = False
        assert not rep.passed
        assert rep.failed_flags() == ["synthetic_failure"]


def test_momentary_symbol_max_note_matches_formula():
    # top of the size-aware Gram symbol at theta=0: 1 + (2+h)^2 + 2(2+h)
    rep = example2(5)
    h = 0.2
    want = 1 + (2 + h) ** 2 + 2 * (2 + h)
    assert rep.notes["momentary_symbol_max"] == pytest.approx(want, abs=1e-9)


def test_example2_bracketing_uses_neighbor_grids():
    rep = example2(12)
    assert rep.flags["gram_eigenvalues_bracketed_by_neighbor_grids"]


def test_example3_symbol_is_size_free_part():
    rep = example3(2, 5)
    assert rep.flags["glt_symbol_is_size_free_part"]


def test_example4_block_symbol_identity():
    rep = example4(9)
    assert rep.flags["block_symbol_times_cut_equals_stencil_symbol"]
    assert rep.flags["interpolation_constructions_agree"]
