import json
import math

import numpy as np
import pytest

import momsym.analysis as analysis
from momsym import (CoefficientScaling, GridSpec, LaurentSymbol,
                    MomentarySymbol, Spectrum, compare, eig_general_small, eig_hermitian,
                    h2xn_dirichlet_neumann, interlacing_check,
                    sample_spectrum_approx, tau_matrix, toeplitz,
                    verify_tau_decomposition, zero_distribution_stats)
from momsym.spectra import _real_part, _spectral_order


def second_diff():
    return LaurentSymbol({0: 2.0, 1: -1.0, -1: -1.0})


def reaction_diffusion_momentary(n_plus_one_base=True):
    base = "n+1" if n_plus_one_base else "n"
    return MomentarySymbol([
        (CoefficientScaling.one(), second_diff()),
        (CoefficientScaling.inverse_power(2, base), LaurentSymbol({0: 1.0})),
    ])


class TestSampling:
    def test_plain_symbol_on_standard_grid(self):
        got = sample_spectrum_approx(second_diff(), GridSpec.tau(0, 0), 3)
        want = np.sort([2 - math.sqrt(2), 2.0, 2 + math.sqrt(2)])
        assert np.allclose(got, want, atol=1e-14)

    def test_size_aware_sampling_is_exact_for_matched_algebra(self):
        n = 9
        a = h2xn_dirichlet_neumann(n)
        exact = eig_hermitian(a)
        approx = sample_spectrum_approx(reaction_diffusion_momentary(),
                                        GridSpec.tau(0, 1), n)
        assert np.abs(np.sort(exact.values) - approx).max() <= 1e-13

    def test_constant_symbol(self):
        got = sample_spectrum_approx(LaurentSymbol({0: 2.1}),
                                     GridSpec.parse("uniform-open"), 10)
        assert np.allclose(got, np.full(10, 2.1), atol=0)

    def test_matrix_valued_contributes_all_eigenvalues(self):
        blk = LaurentSymbol({0: np.diag([3.0, 1.0])})
        got = sample_spectrum_approx(blk, GridSpec.tau(0, 0), 4)
        assert got.shape == (8,)
        assert np.allclose(np.sort(got), [1, 1, 1, 1, 3, 3, 3, 3], atol=0)

    def test_bivariate_tensor_grid(self):
        f = LaurentSymbol({(0, 0): 2.0, (1, 0): 1.0, (-1, 0): 1.0})
        got = sample_spectrum_approx(f, GridSpec.tau(0, 0), (3, 2))
        assert got.shape == (6,)

    def test_complex_samples_sorted_lexicographically(self):
        f = LaurentSymbol({1: 1.0})
        got = sample_spectrum_approx(f, GridSpec.parse("circulant"), 4)
        assert np.iscomplexobj(got)
        assert np.array_equal(got, got[np.lexsort((got.imag, got.real))])

    @pytest.mark.parametrize("kind", ["complex2", "complex3", "upper3", "real2_rotation"])
    def test_stacked_solver_bytes_match_per_point_formulas(self, kind):
        # the stacked solve must reproduce, bit for bit and signed zeros included,
        # one scalar solve per grid point: the diagonal of triangular samples,
        # np.sqrt(complex(disc)) for 2x2 ones, np.linalg.eigvals otherwise
        rng = np.random.default_rng(91)
        s = int(kind[-1]) if kind[-1].isdigit() else 2
        if kind == "real2_rotation":
            rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
            f = LaurentSymbol({0: 2.0 * np.eye(2) + rot, 1: rot, -1: 0.5 * rot.T})
        else:
            coeffs = {k: rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
                      for k in (-2, -1, 0, 1)}
            if kind.startswith("upper"):
                coeffs = {k: np.triu(m) for k, m in coeffs.items()}
            f = LaurentSymbol(coeffs)
        for grid, n in ((GridSpec.parse("circulant"), 64), (GridSpec.tau(0, 1), 33)):
            vals = []
            for a in f.sample(grid.angles(n)):
                if np.all(np.triu(a, 1) == 0) or np.all(np.tril(a, -1) == 0):
                    vals.extend(np.diag(a))
                elif a.shape == (2, 2):
                    t = a[0, 0] + a[1, 1]
                    disc = (a[0, 0] - a[1, 1]) ** 2 + 4 * a[0, 1] * a[1, 0]
                    root = np.sqrt(complex(disc))
                    vals.extend([(t - root) / 2, (t + root) / 2])
                else:
                    vals.extend(np.linalg.eigvals(a))
            want = np.array(vals, dtype=complex)
            real = _real_part(want)
            want = want if real is None else real
            want = want[_spectral_order(want)]
            got = sample_spectrum_approx(f, grid, n)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_grid_count_mismatch(self):
        f = LaurentSymbol({(0, 0): 1.0})
        with pytest.raises(ValueError):
            sample_spectrum_approx(f, [GridSpec.tau(0, 0)] * 3, (2, 2))


class TestCompare:
    def test_identical_lists_give_zero(self):
        spec = eig_hermitian(toeplitz(second_diff(), 5))
        rep = compare(spec, spec.values.copy())
        assert rep.max_error == 0.0
        assert np.all(rep.per_index_error == 0.0)

    def test_glt_uniform_error_on_matched_grid(self):
        n = 7
        h2 = 1.0 / (n + 1) ** 2
        exact = eig_hermitian(h2xn_dirichlet_neumann(n))
        approx = sample_spectrum_approx(second_diff(), GridSpec.tau(0, 1), n)
        rep = compare(exact, approx, grid=GridSpec.tau(0, 1), size=n)
        assert np.abs(rep.per_index_error - h2).max() <= 1e-12

    def test_glt_on_mismatched_grid_is_first_order(self):
        n = 15
        h = 1.0 / (n + 1)
        exact = eig_hermitian(h2xn_dirichlet_neumann(n))
        approx = sample_spectrum_approx(second_diff(), GridSpec.tau(0, 0), n)
        rep = compare(exact, approx, grid=GridSpec.tau(0, 0), size=n)
        assert rep.max_error > h ** 2
        assert rep.max_error < 4 * h

    def test_sorting_handles_permuted_input(self):
        spec = eig_hermitian(toeplitz(second_diff(), 6))
        rep = compare(spec, spec.values[::-1].copy())
        assert rep.max_error == 0.0

    def test_length_mismatch(self):
        spec = eig_hermitian(np.eye(3))
        with pytest.raises(ValueError):
            compare(spec, np.ones(4))

    def test_general_spectrum_pairing(self):
        spec = eig_general_small(np.diag([1.0, 2.0]) + 0j)
        rep = compare(spec, np.array([2.0 + 0j, 1.0 + 0j]))
        assert rep.max_error == 0.0

    def test_conjugate_pair_split_by_rounding(self):
        # a solver may split the real parts of a conjugate pair by one ulp;
        # both sides must still pair a+bi with a+bi, not with a-bi
        a, b = 2.5, 0.75
        exact = Spectrum([complex(np.nextafter(a, 0), b), complex(a, -b)], "general_eig")
        rep = compare(exact, np.array([complex(a, b), complex(a, -b)]))
        assert rep.max_error <= 1e-15

    def test_report_serialization(self, tmp_path):
        spec = eig_hermitian(toeplitz(second_diff(), 4))
        rep = compare(spec, spec.values + 0.5, grid=GridSpec.tau(0, 0),
                      symbol_kind="momentary", size=4)
        csv_lines = rep.to_csv_text().splitlines()
        assert csv_lines[0] == "j,exact,approx,abs_error"
        assert len(csv_lines) == 5
        obj = json.loads(rep.to_json_text())
        assert obj["grid"] == "tau:0,0"
        assert obj["symbol_kind"] == "momentary"
        assert obj["size"] == [4]
        assert obj["max_error"] == pytest.approx(0.5)
        path = tmp_path / "rep.json"
        rep.write_json(path)
        assert json.loads(path.read_text()) == obj

    def test_array_size_matches_tuple(self):
        spec = eig_hermitian(toeplitz(second_diff(), 4))
        reports = [compare(spec, spec.values, grid=GridSpec.tau(0, 0), size=size)
                   for size in ((16, 16), np.array([16, 16]), np.int64(16), (16,))]
        texts = [rep.to_json_text() for rep in reports]
        assert texts[0] == texts[1] and texts[2] == texts[3]


class TestTauVerification:
    def test_gram_of_shifted_bidiagonal(self):
        n = 5
        h = 1.0 / n
        x = toeplitz(LaurentSymbol({0: 2.0 + h, 1: 1.0}), n)
        g = LaurentSymbol({0: 1 + (2 + h) ** 2, 1: 2 + h, -1: 2 + h})
        ok, resid = verify_tau_decomposition(x.T @ x, g, 0, -1.0 / (2 + h))
        assert ok and resid <= 1e-12 * (1 + 10.3)

    def test_plain_toeplitz_is_tau_without_corners(self):
        f = second_diff()
        ok, resid = verify_tau_decomposition(toeplitz(f, 6), f, 0, 0)
        assert ok and resid == 0.0

    def test_random_admissible_decompositions(self):
        rng = np.random.default_rng(81)
        for _ in range(10):
            c0, c1 = rng.normal(size=2)
            f = LaurentSymbol({0: c0, 1: c1, -1: c1})
            eps, phi = rng.uniform(-1, 1, size=2)
            a = tau_matrix(f, eps, phi, 6)
            ok, resid = verify_tau_decomposition(a, f, eps, phi)
            assert ok and resid == 0.0

    def test_detects_mismatch(self):
        f = second_diff()
        a = toeplitz(f, 5)
        a[2, 2] += 1e-6
        ok, resid = verify_tau_decomposition(a, f, 0, 0)
        assert not ok
        assert resid == pytest.approx(1e-6)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            verify_tau_decomposition(np.ones((2, 3)), second_diff(), 0, 0)


class TestInterlacing:
    def test_pure_cosine_bracket_holds(self):
        f = LaurentSymbol({1: 1.0, -1: 1.0})
        for n in (4, 6, 32):
            rep = interlacing_check(f, n)
            assert rep.stated_holds
            assert rep.stated_fail_j == []
            assert rep.js == list(range(2, n))

    def test_shifted_upper_bound_is_reported_not_asserted(self):
        # the tighter shifted-index bound genuinely fails; the report must
        # carry that fact rather than hide it
        f = LaurentSymbol({1: 1.0, -1: 1.0})
        rep = interlacing_check(f, 8)
        assert isinstance(rep.shifted_upper_holds, bool)
        assert rep.shifted_fail_j == [] or not rep.shifted_upper_holds

    def test_descending_sort_matches_decreasing_symbol(self):
        f = LaurentSymbol({0: 3.0, 1: 2.0, -1: 2.0})
        rep = interlacing_check(f, 10)
        assert rep.stated_holds
        assert np.all(np.diff(rep.eig_phi_0) < 0)

    @pytest.mark.parametrize("nan_at", [None, 3])
    def test_fail_lists_match_per_index_loop(self, monkeypatch, nan_at):
        # the masked comparison must list the same j as a loop over j, and a
        # NaN eigenvalue must count as a failure rather than pass silently
        if nan_at is not None:
            solve = analysis._eig_hermitian_band

            def nan_in_middle_variant(band, build):
                values = solve(band, build).values.copy()
                if band[1][-1] == -0.5:  # the phi = -1/2 band of the cosine symbol
                    values[nan_at] = np.nan
                return Spectrum(values, "hermitian_eig")

            monkeypatch.setattr(analysis, "_eig_hermitian_band", nan_in_middle_variant)
        n = 32
        rep = interlacing_check(LaurentSymbol({1: 1.0, -1: 1.0}), n)
        lo, mid, hi = rep.eig_phi_m1, rep.eig_phi_m12, rep.eig_phi_0
        tol = 1e-12 * max(1.0, float(np.max(np.abs(hi))))
        stated = [j for j in range(2, n)
                  if not (lo[j - 1] <= mid[j - 1] + tol and mid[j - 1] <= hi[j - 1] + tol)]
        shifted = [j for j in range(2, n) if not mid[j - 1] <= hi[j] + tol]
        assert rep.stated_fail_j == stated and rep.shifted_fail_j == shifted
        assert all(type(j) is int for j in stated + shifted)
        assert shifted and rep.stated_holds == (nan_at is None)

    def test_rejects_increasing_symbol(self):
        with pytest.raises(ValueError):
            interlacing_check(LaurentSymbol({0: 4.0, 1: -1.0, -1: -1.0}), 8)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            interlacing_check(LaurentSymbol({1: 1.0, -1: 1.0}), 3)


class TestZeroDistribution:
    def test_corner_sequence_has_vanishing_rank_ratio(self):
        def corner(n):
            r = np.zeros((n, n))
            r[0, -1] = 1.0
            return r

        stats = zero_distribution_stats(corner, [4, 8, 16])
        ratios = [s["rank_over_size"] for s in stats]
        assert ratios == [1 / 4, 1 / 8, 1 / 16]

    def test_scaled_identity_has_vanishing_trace_norm_ratio(self):
        def dampener(n):
            return np.eye(n) / (n + 1) ** 2

        stats = zero_distribution_stats(dampener, [4, 8, 16])
        ratios = [s["trace_norm_over_size"] for s in stats]
        assert ratios == pytest.approx([1 / 25, 1 / 81, 1 / 289], abs=1e-15)
        assert all(s["rank_over_size"] == 1.0 for s in stats)

    def test_zero_matrix(self):
        stats = zero_distribution_stats(lambda n: np.zeros((n, n)), [3])
        assert stats[0]["rank_over_size"] == 0.0
        assert stats[0]["trace_norm_over_size"] == 0.0

    def test_rejects_non_square_builder(self):
        with pytest.raises(ValueError):
            zero_distribution_stats(lambda n: np.zeros((n, n + 1)), [3])
