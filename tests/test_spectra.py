import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momsym import (LaurentSymbol, NumericError, Spectrum, circulant,
                    circulant_grid, distribution_test, eig_general_small,
                    eig_hermitian, fourier_sum, identity_rect,
                    singular_values, tau_matrix, toeplitz)
from momsym.examples import h2xn_dirichlet_neumann
from momsym.spectra import _real_part
from momsym.symbols import _tensor_grid

TAU_PAIRS = [(e, p) for e in (-1, 0, 1) for p in (-1, 0, 1)]


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
        # a real matrix stored as complex128, as the builders return it, gets real vectors too
        for stored in (a, a.astype(complex)):
            spec, v = eig_hermitian(stored, vectors=True)
            assert v.dtype == np.float64
            assert np.abs(v @ np.diag(spec.values) @ v.T - a).max() <= 1e-12

    def test_complex_vectors_reconstruct(self):
        rng = np.random.default_rng(76)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        a = a + a.conj().T
        spec, v = eig_hermitian(a, vectors=True)
        assert v.dtype == np.complex128
        assert np.abs(v @ np.diag(spec.values) @ v.conj().T - a).max() <= 1e-12

    def test_trace_identity(self):
        rng = np.random.default_rng(72)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        a = a + a.conj().T
        got = eig_hermitian(a).values
        assert np.sum(got) == pytest.approx(np.trace(a).real, abs=1e-11)


def complex_reference(a):
    """The dense complex solve eig_hermitian ran on every input before real arithmetic."""
    return np.linalg.eigvalsh(np.asarray(a).astype(complex))


_entries = st.floats(-100, 100, allow_subnormal=False)


@st.composite
def real_tridiagonals(draw):
    n = draw(st.integers(1, 40))
    diag = draw(st.lists(_entries, min_size=n, max_size=n))
    off = draw(st.lists(_entries, min_size=n - 1, max_size=n - 1))
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def tridiagonal_family():
    f = second_diff()
    g = LaurentSymbol({0: 3.0, 1: -1.25, -1: -1.25})
    for n in (7, 64, 512):
        for e, p in TAU_PAIRS:
            yield f"tau_{e}_{p}_n{n}", tau_matrix(f, e, p, n)
        yield f"tau_g_n{n}", tau_matrix(g, 1, -1, n)
        yield f"toeplitz_n{n}", toeplitz(g, n)
        yield f"h2xn_dirichlet_neumann_n{n}", h2xn_dirichlet_neumann(n)


class TestRealArithmetic:
    """Real input is solved in float64; on tridiagonal input the bits match the complex solve."""

    @settings(deadline=None)
    @given(real_tridiagonals())
    def test_random_tridiagonal_bytes_match_complex_solve(self, a):
        assert eig_hermitian(a).values.tobytes() == complex_reference(a).tobytes()

    @pytest.mark.parametrize("a", [pytest.param(a, id=name) for name, a in tridiagonal_family()])
    def test_family_bytes_match_complex_solve(self, a):
        # the builders return complex128 with a zero imaginary part
        assert a.dtype == np.complex128
        assert eig_hermitian(a).values.tobytes() == complex_reference(a).tobytes()

    @pytest.mark.parametrize("n,seed", [(5, 81), (40, 82), (200, 83)])
    def test_dense_symmetric_agrees_with_complex_solve(self, n, seed):
        a = np.random.default_rng(seed).normal(size=(n, n))
        a = a + a.T
        got, want = eig_hermitian(a).values, complex_reference(a)
        assert np.abs(got - want).max() <= 1e-13 * (1 + np.abs(want).max())

    @pytest.mark.parametrize("n,seed", [(5, 84), (40, 85)])
    def test_complex_hermitian_bytes_unchanged(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = a + a.conj().T
        assert eig_hermitian(a).values.tobytes() == complex_reference(a).tobytes()

    @pytest.mark.parametrize("vectors", [False, True])
    def test_solver_sees_float64_for_real_input(self, monkeypatch, vectors):
        seen = []
        for name in ("eigvalsh", "eigh"):
            def spy(a, *args, _solve=getattr(np.linalg, name), **kwargs):
                seen.append(a.dtype)
                return _solve(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        real = tau_matrix(second_diff(), 0, 1, 6)
        herm = np.array([[2.0, 1j], [-1j, 2.0]])
        for a in (real, real.real, [[2, -1], [-1, 2]], herm):
            eig_hermitian(a, vectors=vectors)
        assert seen == [np.float64] * 3 + [np.complex128]


class TestExactToRounding:
    """Tau spectra against a 50-digit mpmath reference that does not use LAPACK."""

    @pytest.mark.parametrize("e,p", TAU_PAIRS)
    def test_tau_matches_mpmath(self, e, p):
        symbols = [second_diff(), LaurentSymbol({0: 3.0, 1: -1.25, -1: -1.25})]
        with mpmath.workdps(50):
            for f, n in [(f, n) for f in symbols for n in (1, 2, 5, 12)]:
                a = tau_matrix(f, e, p, n).real
                want = sorted(mpmath.eigsy(mpmath.matrix(a.tolist()), eigvals_only=True))
                want = np.array([float(w) for w in want])
                got = eig_hermitian(a).values
                assert np.abs(got - want).max() <= 1e-14 * (1 + np.abs(want).max())


@pytest.mark.parametrize("solve,a", [
    (eig_hermitian, [[np.nan, 0.0], [0.0, 1.0]]),
    (eig_hermitian, [[np.nan, 1.0], [1.0, 0.0]]),
    (eig_hermitian, [[np.inf, 0.0], [0.0, 1.0]]),
    (eig_hermitian, [[1.0, -np.inf], [-np.inf, 1.0]]),
    (eig_hermitian, [[complex(1.0, np.inf), 0.0], [0.0, 1.0]]),
    (singular_values, [[np.inf, 0.0], [0.0, 1.0]]),
    (singular_values, [[1.0, np.nan, 0.0]]),
    (eig_general_small, [[np.nan, 1.0], [1.0, 0.0]]),
    (eig_general_small, [[np.nan, 0.0], [1.0, 0.0]]),
    (eig_general_small, [[np.inf]]),
    (eig_general_small, np.diag([1.0, np.nan, 2.0]) + np.eye(3, k=1)),
], ids=lambda v: getattr(v, "__name__", None))
def test_non_finite_entries_raise_numeric_error(solve, a):
    with pytest.raises(NumericError):
        solve(a)


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

    def test_matches_coefficient_loop(self):
        # the loop fourier_sum ran before it evaluated the truncated symbol
        def loop(f, n, theta):
            total = 0j
            for (k,), m in f.coeffs.items():
                if abs(k) <= n - 1:
                    total += complex(m[0, 0]) * np.exp(1j * k * float(theta))
            return total

        rng = np.random.default_rng(77)
        for _ in range(40):
            ks = rng.choice(np.arange(-6, 7), size=rng.integers(1, 8), replace=False)
            f = LaurentSymbol({int(k): complex(*rng.normal(size=2)) for k in ks})
            for n in (1, 3, 7):
                theta = rng.uniform(-math.pi, math.pi)
                got = fourier_sum(f, n, theta)
                assert isinstance(got, complex)
                assert abs(got - loop(f, n, theta)) <= 4e-15


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
        with pytest.raises(ValueError, match="not Hermitian"):
            distribution_test(spec, LaurentSymbol({1: 1.0}))

    def test_unknown_test_function(self):
        spec = eig_hermitian(np.eye(3))
        with pytest.raises(ValueError):
            distribution_test(spec, second_diff(), f_id="sine")

    @staticmethod
    def _reference_integral_mean(f, f_id, kind):
        """integral_mean as distribution_test computed it with _real_part and eigvalsh."""
        F = {"abs_power_1": np.abs, "abs_power_2": lambda x: np.abs(x) ** 2}[f_id]
        axis = -math.pi + 2 * math.pi * (np.arange(512) + 0.5) / 512
        samples = f.sample(_tensor_grid([axis] * f.d))
        if f.is_scalar():
            vals = _real_part(samples[:, 0, 0])
        else:
            vals = np.linalg.eigvalsh(samples).ravel()
        return float(np.mean(F(np.abs(vals) if kind == "singular" else vals)))

    @staticmethod
    def _hermitian_symbol(rng, d, s):
        """c_{-k} = c_k^H, so every sample is Hermitian up to rounding."""
        c0 = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
        coeffs = {(0,) * d: c0 + c0.conj().T}
        for k in [(1,), (2,)] if d == 1 else [(1, 0), (0, 1), (1, -1)]:
            c = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
            coeffs[k], coeffs[tuple(-v for v in k)] = c, c.conj().T
        return LaurentSymbol(coeffs, d=d, s=s, r=s)

    def test_scalar_means_match_real_part_path_bitwise(self):
        rng = np.random.default_rng(78)
        spec = {"hermitian_eig": eig_hermitian(np.diag([-1.0, 0.5, 2.0])),
                "singular": singular_values(np.diag([0.5, 2.0, 3.0]))}
        for d in (1, 2):
            for _ in range(4):
                f = self._hermitian_symbol(rng, d, 1)
                for f_id in ("abs_power_1", "abs_power_2"):
                    for kind, sp in spec.items():
                        rep = distribution_test(sp, f, f_id=f_id)
                        assert rep.integral_mean == self._reference_integral_mean(f, f_id, kind)

    def test_hermitian_2x2_means_match_eigvalsh(self):
        rng = np.random.default_rng(79)
        spec = eig_hermitian(np.eye(4))
        for d in (1, 2):
            for _ in range(2):
                f = self._hermitian_symbol(rng, d, 2)
                for f_id in ("abs_power_1", "abs_power_2"):
                    want = self._reference_integral_mean(f, f_id, "hermitian_eig")
                    got = distribution_test(spec, f, f_id=f_id).integral_mean
                    assert abs(got - want) <= 1e-13

    @pytest.mark.parametrize("f", [
        LaurentSymbol({0: [[1.0, 1.0], [0.0, 1.0]]}),
        LaurentSymbol({0: [[1.0, 2.0, 3.0]]}),
    ], ids=["non_normal_2x2", "rect_1x3"])
    def test_non_hermitian_matrix_symbol_refused(self, f):
        with pytest.raises(ValueError, match="not Hermitian"):
            distribution_test(eig_hermitian(np.eye(3)), f)

    def test_abs_power_2_gap_at_512_midpoints(self):
        f = second_diff()
        spec = eig_hermitian(toeplitz(f, 8))
        rep = distribution_test(spec, f, f_id="abs_power_2")
        assert rep.gap == pytest.approx(0.25, abs=1e-12)
