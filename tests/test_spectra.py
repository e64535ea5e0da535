import math

import numpy as np
import pytest

from momsym import (LaurentSymbol, NumericError, Spectrum, circulant,
                    circulant_grid, distribution_test, eig_general_small,
                    eig_hermitian, fourier_sum, identity_rect,
                    singular_values, tau_matrix, toeplitz)


def second_diff():
    return LaurentSymbol({0: 2.0, 1: -1.0, -1: -1.0})


def quadratic_roots(a):
    # independent 2x2 oracle straight from the characteristic polynomial
    b = -(a[0, 0] + a[1, 1])
    c = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    disc = complex(b * b - 4 * c) ** 0.5
    return sorted([(-b - disc) / 2, (-b + disc) / 2], key=lambda z: (z.real, z.imag))


class TestSpectrum:
    def test_real_kinds_sorted_ascending(self):
        s = Spectrum([3.0, 1.0, 2.0], "hermitian_eig")
        assert np.array_equal(s.values, [1.0, 2.0, 3.0])

    def test_general_sorted_lexicographically(self):
        s = Spectrum([1 + 2j, 1 - 1j, 0 + 5j], "general_eig")
        assert np.array_equal(s.values, [5j, 1 - 1j, 1 + 2j])

    def test_negative_singular_rejected(self):
        with pytest.raises(ValueError):
            Spectrum([-0.5, 1.0], "singular")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Spectrum([1.0], "fancy")

    def test_values_frozen(self):
        s = Spectrum([1.0, 2.0], "hermitian_eig")
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_json_text(self):
        assert Spectrum([2.0, 1.0], "hermitian_eig").to_json_text() \
            == '{"kind": "hermitian_eig", "values": [1.0, 2.0]}\n'
        assert Spectrum([1 + 2j], "general_eig").to_json_text() \
            == '{"kind": "general_eig", "values": [[1.0, 2.0]]}\n'

    def test_csv_text(self):
        assert Spectrum([2.0, 1.0], "hermitian_eig").to_csv_text() == "1.0\n2.0\n"
        assert Spectrum([1 + 2j], "general_eig").to_csv_text() == "1.0,2.0\n"

    def test_write_csv(self, tmp_path):
        path = tmp_path / "s.csv"
        Spectrum([0.5], "singular").write_csv(path)
        assert path.read_text() == "0.5\n"


class TestEigHermitian:
    def test_laplacian_2x2(self):
        got = eig_hermitian([[2.0, -1.0], [-1.0, 2.0]]).values
        assert np.allclose(got, [1.0, 3.0], atol=1e-14)

    def test_tau_matrix_matches_grid_samples(self):
        # tridiagonal second difference of order 4: eigenvalues 2 - 2cos(j pi / 5)
        a = tau_matrix(second_diff(), 0, 0, 4)
        got = eig_hermitian(a).values
        want = np.sort(2 - 2 * np.cos(np.arange(1, 5) * math.pi / 5))
        assert np.allclose(got, want, atol=1e-13)

    def test_identity(self):
        got = eig_hermitian(np.eye(6)).values
        assert np.allclose(got, np.ones(6), atol=0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.ones((2, 3)))

    def test_vectors_reconstruct(self):
        rng = np.random.default_rng(71)
        a = rng.normal(size=(6, 6))
        a = a + a.T
        spec, v = eig_hermitian(a, vectors=True)
        assert np.abs(v @ np.diag(spec.values) @ v.T - a).max() <= 1e-12

    def test_trace_identity(self):
        rng = np.random.default_rng(72)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        a = a + a.conj().T
        got = eig_hermitian(a).values
        assert np.sum(got) == pytest.approx(np.trace(a).real, abs=1e-11)


class TestEigGeneralSmall:
    def test_jordan_block_exact(self):
        got = eig_general_small([[2.0, 0.0], [1.0, 2.0]]).values
        assert np.array_equal(got, [2.0 + 0j, 2.0 + 0j])

    def test_triangular_bidiagonal_exact(self):
        # defective to the point where iterative solvers lose half the digits
        n, h = 32, 1.0 / 32
        x = toeplitz(LaurentSymbol({0: 2.0 + h, 1: 1.0}), n)
        got = eig_general_small(x).values
        assert np.all(got == 2.0 + h)

    def test_two_by_two_matches_quadratic_formula(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            got = eig_general_small(a).values
            want = quadratic_roots(a)
            assert np.allclose(got, want, atol=1e-12)

    def test_diagonal(self):
        got = eig_general_small(np.diag([3.0, 1.0, 2.0])).values
        assert np.array_equal(got, [1.0, 2.0, 3.0])

    def test_single_entry(self):
        assert eig_general_small([[5.0 + 1j]]).values[0] == 5.0 + 1j

    def test_order_cap(self):
        with pytest.raises(ValueError):
            eig_general_small(np.eye(65))

    def test_dense_matches_hermitian_route(self):
        rng = np.random.default_rng(74)
        a = rng.normal(size=(5, 5))
        a = a + a.T
        got = np.sort(eig_general_small(a).values.real)
        want = eig_hermitian(a).values
        assert np.allclose(got, want, atol=1e-10)


class TestSingularValues:
    def test_truncated_identity(self):
        got = singular_values(identity_rect(3, 2)).values
        assert np.allclose(got, [1.0, 1.0], atol=1e-14)

    def test_bidiagonal_matches_gram_route(self):
        n = 4
        h = 1.0 / n
        x = toeplitz(LaurentSymbol({0: 2.0 + h, 1: 1.0}), n)
        got = singular_values(x).values
        want = np.sqrt(eig_hermitian(x.T @ x).values)
        assert np.allclose(got, want, atol=1e-10)

    def test_zero_matrix(self):
        got = singular_values(np.zeros((3, 5))).values
        assert np.array_equal(got, np.zeros(3))

    def test_tiny_values_recovered(self):
        # a Gram-matrix route squares the condition number and loses these
        rng = np.random.default_rng(7)
        want = np.array([1e-12, 1e-9, 1e-6, 1e-3, 1.0, 2.0])
        q1, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        q2, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        got = singular_values(q1 @ np.diag(want) @ q2).values
        assert np.all(np.abs(got - want) / want < 1e-3)

    def test_solver_failure_is_numeric_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NumericError):
            singular_values(np.eye(2))

    def test_wide_uses_smaller_side(self):
        rng = np.random.default_rng(75)
        a = rng.normal(size=(2, 6))
        got = singular_values(a).values
        assert got.shape == (2,)
        assert np.allclose(got, np.sort(np.linalg.svd(a, compute_uv=False)), atol=1e-12)


class TestFourierSum:
    def test_full_sum_at_pi(self):
        assert fourier_sum(second_diff(), 3, math.pi) == pytest.approx(4.0, abs=1e-14)

    def test_truncation_drops_far_coefficients(self):
        f = LaurentSymbol({0: 1.0, 3: 1.0, -3: 1.0})
        assert fourier_sum(f, 3, 0.7) == pytest.approx(1.0, abs=1e-15)
        full = fourier_sum(f, 4, 0.7)
        assert full == pytest.approx(1.0 + 2 * math.cos(3 * 0.7), abs=1e-13)

    def test_circulant_eigenvalues_are_partial_sums(self):
        rng = np.random.default_rng(76)
        c0, c1 = rng.normal(size=2)
        f = LaurentSymbol({0: c0, 1: c1, -1: c1})
        for n in (4, 7):
            got = eig_hermitian(circulant(f, n)).values
            want = np.sort([fourier_sum(f, n, t).real for t in circulant_grid(n)])
            assert np.allclose(got, want, atol=1e-12)

    def test_rejects_matrix_valued(self):
        with pytest.raises(ValueError):
            fourier_sum(LaurentSymbol({0: np.eye(2)}), 3, 0.0)


class TestDistribution:
    def test_trace_identity_gap_is_zero(self):
        f = second_diff()
        for n in (8, 16):
            spec = eig_hermitian(toeplitz(f, n))
            rep = distribution_test(spec, f, f_id="abs_power_1")
            assert rep.gap <= 1e-13
            assert rep.domain_measure == pytest.approx(2 * math.pi)

    def test_quadratic_gap_decreases(self):
        f = second_diff()
        gaps = []
        for n in (8, 16, 32, 64):
            spec = eig_hermitian(toeplitz(f, n))
            gaps.append(distribution_test(spec, f, f_id="abs_power_2").gap)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        # exact finite-size defect for this symbol: 2/n
        assert gaps[0] == pytest.approx(0.25, abs=1e-12)

    def test_corner_perturbation_vanishes(self):
        f = LaurentSymbol({0: 0.0}, d=1, s=1, r=1)
        means = []
        for n in (4, 8, 16):
            r = np.zeros((n, n))
            r[0, -1] = 1.0
            rep = distribution_test(singular_values(r), f, f_id="abs_power_1")
            means.append(rep.discrete_mean)
            assert rep.integral_mean == 0.0
        assert np.allclose(means, [1 / 4, 1 / 8, 1 / 16], atol=1e-15)

    def test_matrix_valued_symbol(self):
        from momsym import multilevel_toeplitz
        blk = LaurentSymbol({0: np.diag([3.0, 1.0])})
        spec = eig_hermitian(multilevel_toeplitz(blk, (6,)))
        rep = distribution_test(spec, blk, f_id="abs_power_1")
        assert rep.gap <= 1e-13

    def test_chebyshev_test_function(self):
        f = second_diff()
        spec = eig_hermitian(toeplitz(f, 16))
        rep = distribution_test(spec, f, f_id="chebyshev_2")
        assert math.isfinite(rep.gap)

    def test_rejects_general_spectrum(self):
        spec = eig_general_small([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            distribution_test(spec, second_diff())

    def test_rejects_complex_symbol(self):
        spec = eig_hermitian(np.eye(3))
        with pytest.raises(ValueError):
            distribution_test(spec, LaurentSymbol({1: 1.0}))

    def test_unknown_test_function(self):
        spec = eig_hermitian(np.eye(3))
        with pytest.raises(ValueError):
            distribution_test(spec, second_diff(), f_id="sine")

    def test_env_quadrature_override(self, monkeypatch):
        monkeypatch.setenv("MOMSYM_QUAD_POINTS", "600")
        f = second_diff()
        spec = eig_hermitian(toeplitz(f, 8))
        rep = distribution_test(spec, f, f_id="abs_power_2")
        assert rep.gap == pytest.approx(0.25, abs=1e-12)
