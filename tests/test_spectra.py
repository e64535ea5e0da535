import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momsym.examples as examples
import momsym.matrices as matrices
import momsym.spectra as spectra
from momsym import (GridSpec, LaurentSymbol, NumericError, Spectrum, circulant,
                    circulant_grid, distribution_test, eig_general_small,
                    eig_hermitian, example1, fourier_sum, identity_rect,
                    interlacing_check, singular_values, tau_matrix, toeplitz)
from momsym.examples import h2xn_dirichlet_neumann
from momsym.spectra import _real_part
from momsym.symbols import _tensor_grid
from test_symbols import _ENTRY_PARTS, sample_broadcast

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
        # tridiagonal input reaches stev instead of eigvalsh once scipy.linalg is loaded, which
        # depends on what ran before; whichever solver ran must see float64 for real input
        seen = []
        solvers = [(np.linalg, "eigvalsh"), (np.linalg, "eigh")]
        if "scipy.linalg" in sys.modules:
            solvers.append((sys.modules["scipy.linalg"], "eigvalsh_tridiagonal"))
        for module, name in solvers:
            def spy(a, *args, _solve=getattr(module, name), **kwargs):
                seen.append(np.result_type(a, *args))
                return _solve(a, *args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        real = tau_matrix(second_diff(), 0, 1, 6)
        herm = np.array([[2.0, 1j], [-1j, 2.0]])
        for a in (real, real.real, [[2, -1], [-1, 2]], herm):
            eig_hermitian(a, vectors=vectors)
        assert seen == [np.float64] * 3 + [np.complex128]


def dense_reference(a):
    """The dense real solve eig_hermitian runs on real input without scipy."""
    a = np.asarray(a, dtype=float)
    return np.linalg.eigvalsh(0.5 * (a + a.T))


@st.composite
def band_cases(draw):
    """Real symmetric tridiagonals with repeated, clustered or split spectra and signed zeros."""
    n = draw(st.integers(1, 40))
    diag = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0]) | _entries, min_size=n, max_size=n))
    off = draw(st.lists(st.sampled_from([0.0, -0.0, 1e-300, 1e-17, 1e-8]) | _entries,
                        min_size=n - 1, max_size=n - 1))
    a = np.full((n, n), draw(st.sampled_from([0.0, -0.0])))
    a[np.diag_indices(n)] = diag
    a[np.arange(n - 1), np.arange(1, n)] = off
    a[np.arange(1, n), np.arange(n - 1)] = off
    return a


class TestBandRoute:
    """Real tridiagonal input without vectors goes to LAPACK stev; bits match the dense solve."""

    @pytest.fixture
    def band_calls(self, monkeypatch):
        pytest.importorskip("scipy.linalg")
        calls = []

        def spy(band, solve, _solve_band=spectra._eigvalsh_band):
            calls.append(len(band[1]))
            return _solve_band(band, solve)
        monkeypatch.setattr(spectra, "_eigvalsh_band", spy)
        return calls

    @settings(deadline=None, max_examples=300)
    @given(band_cases())
    def test_random_bytes_match_dense_solve(self, a):
        pytest.importorskip("scipy.linalg")
        assert eig_hermitian(a).values.tobytes() == dense_reference(a).tobytes()

    def test_real_tridiagonal_takes_band_route(self, band_calls):
        f = second_diff()
        for a in (tau_matrix(f, 1, -1, 9), tau_matrix(f, 1, -1, 9).real, [[3.0]], np.eye(4)):
            eig_hermitian(a)
        eig_hermitian(tau_matrix(f, 1, -1, 9), vectors=True)
        eig_hermitian(circulant(f, 9))  # corners off the band
        eig_hermitian([[2.0, 1j], [-1j, 2.0]])
        eig_hermitian(np.diag([1.0, -0.0, 2.0]))  # the dense solve decides a -0.0's sign
        assert band_calls == [9, 9, 1, 4]

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("e,p", TAU_PAIRS)
    def test_tau_with_shift_at_import_order(self, e, p, offset):
        pytest.importorskip("scipy.linalg")
        n = spectra._STEV_IMPORT_ORDER + offset
        a = tau_matrix(second_diff(), e, p, n) + (1.0 / (n + 1)) ** 2 * np.eye(n)
        assert eig_hermitian(a).values.tobytes() == dense_reference(a.real).tobytes()

    @pytest.mark.parametrize("a", [
        [[1.0, -np.inf], [-np.inf, 1.0]], [[np.nan, 1.0], [1.0, 0.0]], [[np.inf, 0.0], [0.0, 1.0]],
        [[1.0, np.nan], [1.0, 1.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, np.inf], [0.0, 0.0, 1.0]],
        np.diag([1.0, 2.0, -np.inf])], ids=["sub_super_inf", "diag_nan", "diag_inf",
                                           "super_nan", "super_inf", "last_diag_inf"])
    def test_non_finite_band_raises(self, band_calls, a):
        with pytest.raises(NumericError, match="matrix has NaN or infinite entries"):
            eig_hermitian(a)
        assert band_calls == [len(a)]

    def test_non_hermitian_band_raises(self, band_calls):
        a = tau_matrix(second_diff(), 0, 0, 5).real
        a[3, 2] += 2e-10
        with pytest.raises(ValueError, match="matrix is not Hermitian to 1e-10"):
            eig_hermitian(a)
        a[3, 2] -= 1.5e-10  # within the tolerance the average is solved
        assert eig_hermitian(a).values.tobytes() == dense_reference(a).tobytes()
        assert band_calls == [5, 5]

    @pytest.mark.parametrize("n", [7, spectra._STEV_IMPORT_ORDER])
    def test_dense_fallback_without_scipy(self, monkeypatch, band_calls, n):
        a = tau_matrix(second_diff(), -1, 1, n) + (1.0 / (n + 1)) ** 2 * np.eye(n)
        want = dense_reference(a.real).tobytes()
        assert eig_hermitian(a).values.tobytes() == want
        monkeypatch.setitem(sys.modules, "scipy.linalg", None)  # the import raises ImportError
        dense = []
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda h, _solve=np.linalg.eigvalsh: dense.append(h.dtype) or _solve(h))
        assert eig_hermitian(a).values.tobytes() == want
        assert band_calls == [n] and dense == [np.float64]

    # every grid with a band form, and symbols whose builds hold signed zeros: the
    # band entries are 0.0 + f_k, also for a complex f_k with a zero imaginary part
    _GRIDS = [GridSpec.tau(e, p) for e, p in TAU_PAIRS] + [GridSpec("uniform-open")]
    _SYMBOLS = [LaurentSymbol({0: -0.0, 1: 1.5, -1: 1.5}),
                LaurentSymbol({0: complex(2.0, -0.0), 1: complex(-1.0, 0.0), -1: -1.0}),
                LaurentSymbol({0: 1.0, 1: -0.0, -1: -0.0})]
    _ROUTES = [("stev", n) for n in (2, 3, 33, 64, 1599, 1600, 1601)] \
        + [("dense", n) for n in (2, 3, 33, 64)]

    @pytest.fixture
    def route(self, request, monkeypatch):
        pytest.importorskip("scipy.linalg")
        if request.param == "dense":
            monkeypatch.setattr(spectra, "_band_solver", lambda n: None)
        return request.param

    @pytest.mark.parametrize("route, n", _ROUTES, indirect=["route"])
    def test_grid_spectra_match_dense_build(self, route, n):
        # from the import order on, each symbol at one order: a dense build there takes 40 MB
        symbols = self._SYMBOLS if n < 1599 else [self._SYMBOLS[n - 1599]]
        for spec in self._GRIDS:
            for f in symbols:
                want = eig_hermitian(spec.matrix(f, n)).values.tobytes()
                assert spec.exact_spectrum(f, n).values.tobytes() == want, (spec, f.coeffs)

    @pytest.mark.parametrize("route, n", _ROUTES, indirect=["route"])
    def test_example1_and_interlacing_match_dense_build(self, route, n):
        for bc, grid in examples._BC_GRIDS.items():  # the h^2 shift on the main diagonal
            want = eig_hermitian(examples._shifted_second_difference(grid, n)).values.tobytes()
            assert example1(n, bc).reports["momentary_matched"].exact.values.tobytes() == want
        if n >= 4:
            f = self._SYMBOLS[0]
            rep = interlacing_check(f, n)
            for phi, got in zip((-1.0, -0.5, 0.0), (rep.eig_phi_m1, rep.eig_phi_m12, rep.eig_phi_0)):
                assert got.tobytes() == eig_hermitian(tau_matrix(f, 0, phi, n)).values[::-1].tobytes()

    def test_band_fallback_without_scipy(self, monkeypatch):
        n = spectra._STEV_IMPORT_ORDER
        want = dense_reference(tau_matrix(second_diff(), 0, 1, n).real).tobytes()
        monkeypatch.setitem(sys.modules, "scipy.linalg", None)  # the import raises ImportError
        assert GridSpec.tau(0, 1).exact_spectrum(second_diff(), n).values.tobytes() == want

    def test_callers_solve_from_the_band(self, band_calls, monkeypatch):
        builds = []

        def spy(f, n_vec, m_vec, _build=matrices.multilevel_toeplitz_rect):
            builds.append(n_vec)
            return _build(f, n_vec, m_vec)
        monkeypatch.setattr(matrices, "multilevel_toeplitz_rect", spy)
        f = second_diff()
        GridSpec.tau(1, -1).exact_spectrum(f, 9)
        GridSpec("uniform-open").exact_spectrum(f, 8)
        example1(7)
        example1(6, "dirichlet")
        interlacing_check(LaurentSymbol({0: 2.0, 1: 1.0, -1: 1.0}), 5)
        assert builds == [] and band_calls == [9, 8, 7, 6, 5, 5, 5]
        # off the band (a circulant's corners, a nonzero imaginary part) the build is dense
        example1(5, "periodic")
        GridSpec("uniform-open").exact_spectrum(LaurentSymbol({0: 2.0, 1: 1j, -1: -1j}), 4)
        assert builds == [5, 4] and len(band_calls) == 7

    def test_band_route_holds_no_dense_matrix(self, band_calls):
        n = 4095  # the dense build alone takes 256 MiB
        for call in (lambda: GridSpec.tau(0, 1).exact_spectrum(second_diff(), n),
                     lambda: example1(n)):
            call()  # imports and caches outside the measurement
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, f"{peak / 2 ** 20:.1f} MiB"

    def test_import_only_from_import_order(self):
        pytest.importorskip("scipy.linalg")
        code = ("import sys; import numpy as np; import momsym.spectra as s\n"
                "def tri(n): return np.eye(n) * 2 - np.eye(n, k=1) - np.eye(n, k=-1)\n"
                "s.eig_hermitian(tri(s._STEV_IMPORT_ORDER - 1))\n"
                "print('scipy.linalg' in sys.modules)\n"
                "s.eig_hermitian(tri(s._STEV_IMPORT_ORDER))\n"
                "print('scipy.linalg' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout.split() == ["False", "True"]


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


class TestStacked2x2:
    """_eig_general_values on 2x2 stacks: each matrix's values have the bits of
    eig_general_small, whichever of the stack's matrices are triangular."""

    @staticmethod
    def _stack(rng, triangular):
        parts = [0.0, -0.0, 1.0, -2.5]
        a = rng.normal(size=(96, 2, 2)) + 1j * rng.normal(size=(96, 2, 2))
        a[::3] = rng.choice(parts, (32, 2, 2)) + 1j * rng.choice(parts, (32, 2, 2))
        a[1::5] = a[1::5].real
        upper, lower = triangular[::2], triangular[1::2]
        a[upper, 1, 0] = rng.choice([0.0, -0.0], len(upper))
        a[lower, 0, 1] = 0.0
        return a

    @pytest.mark.parametrize("triangular", [[], [0, 7, 50, 95], list(range(96))],
                             ids=["none", "some", "all"])
    def test_matches_per_matrix_bitwise(self, triangular):
        rng = np.random.default_rng(len(triangular))
        a = self._stack(rng, np.array(triangular, dtype=int))
        w = spectra._eig_general_values(a).reshape(-1, 2)
        for one, values in zip(a, w):
            assert Spectrum(values, "general_eig").values.tobytes() \
                == eig_general_small(one).values.tobytes()

    @pytest.mark.parametrize("a, error", [
        (np.full((3, 65, 65), np.nan), (ValueError,
                                        "general eigensolve capped at order 64, got 65")),
        (np.array([np.eye(2), [[1.0, 2.0], [3.0, np.nan]]], dtype=complex),
         (NumericError, "matrix has NaN or infinite entries")),
        (np.array([[[1.0, 2.0], [np.inf, 1.0]]] * 4, dtype=complex),
         (NumericError, "matrix has NaN or infinite entries")),
    ], ids=["cap_before_nan", "nan_some_triangular", "inf_none_triangular"])
    def test_refusals_keep_type_text_and_order(self, a, error):
        with pytest.raises((ValueError, NumericError)) as got:
            spectra._eig_general_values(a)
        assert (type(got.value), str(got.value)) == error


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


def distribution_whole_grid(spec, f, f_id):
    """(samples, [discrete_mean, integral_mean, gap]) as distribution_test computed them
    from one sample of the whole 512**d midpoint grid, by the broadcast sample formula."""
    F = spectra._test_function(f_id)
    lo, hi = -math.pi, math.pi
    samples = sample_broadcast(f, _tensor_grid(
        [lo + (hi - lo) * (np.arange(512) + 0.5) / 512] * f.d))
    if np.abs(samples - samples.conj().transpose(0, 2, 1)).max() / 2 \
            > spectra._rounding_tol(samples):
        raise ValueError("symbol is not Hermitian on the grid; cannot compare")
    vals = spectra._eig_general_values(samples).real
    if spec.kind == "singular":
        vals = np.abs(vals)
    discrete = float(np.mean(F(np.asarray(spec.values, dtype=float))))
    integral = float(np.mean(F(vals)))
    return samples, [discrete, integral, abs(discrete - integral)]


def hermitian_symbol(draw, d, s):
    """c_{-k} = c_k^H and c_0 = a + a^H, so each sample is Hermitian up to rounding;
    entries may be zero, -0.0 or real."""
    def matrix():
        return np.array(draw(st.lists(st.builds(complex, _ENTRY_PARTS, _ENTRY_PARTS),
                                      min_size=s * s, max_size=s * s))).reshape(s, s)
    c0 = matrix()
    coeffs = {(0,) * d: c0 + c0.conj().T}
    for k in draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), max_size=3)):
        if any(k):
            c = matrix()
            coeffs[k], coeffs[tuple(-v for v in k)] = c, c.conj().T
    return LaurentSymbol(coeffs, d=d, s=s, r=s)


_SPECTRA = {"hermitian_eig": eig_hermitian(np.diag([-1.0, 0.5, 2.0])),
            "singular": singular_values(np.diag([0.5, 2.0, 3.0]))}


class TestDistributionChunks:
    """distribution_test samples and solves its grid in parts, with the bits of one
    whole-grid sample; _QUAD_CHUNK is patched down so that parts end mid-axis."""

    @staticmethod
    def _check(spec, f, f_id, chunk):
        """The means, and every sample the solver gets, bitwise as from one whole sample."""
        samples, means = distribution_whole_grid(spec, f, f_id)
        solve = mock.Mock(wraps=spectra._eig_general_values)
        with mock.patch.object(spectra, "_QUAD_CHUNK", chunk), \
                mock.patch.object(spectra, "_eig_general_values", solve):
            rep = distribution_test(spec, f, f_id=f_id)
        assert [x.hex() for x in (rep.discrete_mean, rep.integral_mean, rep.gap)] \
            == [x.hex() for x in means]
        solved = np.concatenate([call.args[0] for call in solve.call_args_list])
        assert solved.tobytes() == samples.tobytes()

    # 7, 73 and 511 leave one point over at the end of a 512-point axis
    @settings(deadline=None, max_examples=40)
    @given(st.data(), st.sampled_from([spectra._QUAD_CHUNK, 7, 73, 511]) | st.integers(2, 3000))
    def test_means_match_whole_grid_bitwise(self, data, chunk):
        d, s = data.draw(st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]))
        f = hermitian_symbol(data.draw, d, s)
        kind = data.draw(st.sampled_from(sorted(_SPECTRA)))
        f_id = data.draw(st.sampled_from(["abs_power_1", "abs_power_2", "chebyshev_2"]))
        self._check(_SPECTRA[kind], f, f_id, chunk)

    @pytest.mark.parametrize("chunk", [7, 73, 511])
    def test_no_point_is_sampled_alone(self, chunk):
        # LaurentSymbol.sample rounds the last midpoint of this symbol alone otherwise
        # than within the axis, so a part of one point would change the samples' bits
        f = LaurentSymbol({0: -0.45, 1: 2.04 - 2.56j, -1: 2.04 + 2.56j,
                           3: 0.42 - 0.57j, -3: 0.42 + 0.57j})
        self._check(_SPECTRA["hermitian_eig"], f, "abs_power_1", chunk)

    @pytest.mark.parametrize("chunk", [1536, spectra._QUAD_CHUNK])
    def test_3x3_two_level_means_match_whole_grid_bitwise(self, chunk):
        f = TestDistribution._hermitian_symbol(np.random.default_rng(80), 2, 3)
        self._check(_SPECTRA["singular"], f, "abs_power_2", chunk)

    def _refusal(self, f, domain=None, chunk=64):
        with mock.patch.object(spectra, "_QUAD_CHUNK", chunk), \
                pytest.raises((ValueError, NumericError)) as got:
            distribution_test(eig_hermitian(np.eye(3)), f, domain=domain)
        return type(got.value), str(got.value)

    def test_rectangular_symbol_refused_before_sampling(self, monkeypatch):
        monkeypatch.setattr(LaurentSymbol, "sample", mock.Mock(side_effect=AssertionError))
        monkeypatch.setattr(LaurentSymbol, "sample_grid", mock.Mock(side_effect=AssertionError))
        assert self._refusal(LaurentSymbol({0: [[1.0, 2.0, 3.0]]})) == (
            ValueError, "symbol is not Hermitian on the grid; cannot compare")

    @pytest.mark.parametrize("chunk", [64, spectra._QUAD_CHUNK])
    def test_non_hermitian_over_order_cap_is_refused_as_not_hermitian(self, chunk):
        # f - f^H = 2c(1 - cos t) (n - n^T): within rounding on the first 64 midpoints of
        # [0, 1], beyond it on the last, so the first part's solve fails (order 65) first
        n = np.zeros((65, 65))
        n[0, 1] = 1.0
        c = 1e-8
        f = LaurentSymbol({0: 2 * np.eye(65) + 2 * c * n, 1: -c * n, -1: -c * n})
        assert self._refusal(f, [(0.0, 1.0)], chunk) == (
            ValueError, "symbol is not Hermitian on the grid; cannot compare")

    @pytest.mark.parametrize("chunk", [64, spectra._QUAD_CHUNK])
    def test_hermitian_over_order_cap_raises_the_solver_error(self, chunk):
        assert self._refusal(LaurentSymbol({0: np.eye(65)}), chunk=chunk) == (
            ValueError, "general eigensolve capped at order 64, got 65")

    @pytest.mark.parametrize("f", [LaurentSymbol({0: 1.0, 1: np.nan}),
                                   LaurentSymbol({0: [[1.0, 0.0], [0.0, np.nan]]})],
                             ids=["scalar", "2x2"])
    def test_non_finite_sample_raises_the_solver_error(self, f):
        assert self._refusal(f) == (NumericError, "matrix has NaN or infinite entries")

    def test_two_level_2x2_quadrature_peak_memory(self):
        # the symbol kind the block_2level benchmark draws: Hermitian 2x2 A_k at every
        # sign pattern of k in {0, 1}^2, nine keys; one whole-grid sample peaked at 64 MiB
        rng = np.random.default_rng(11)
        coeffs = {}
        for k in itertools.product((0, 1), repeat=2):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for pos in {(s1 * k[0], s2 * k[1]) for s1 in (1, -1) for s2 in (1, -1)}:
                coeffs[pos] = a + a.conj().T
        f = LaurentSymbol(coeffs)
        assert len(f.coeffs) == 9
        spec = eig_hermitian(np.diag([1.0, 2.0]))
        distribution_test(spec, f)  # imports and caches outside the measurement
        tracemalloc.start()
        try:
            distribution_test(spec, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 << 20, f"{peak / 2 ** 20:.1f} MiB"
