import math
import re
import tracemalloc

import numpy as np
import pytest

import momsym.matrices as matrices
from momsym import (GridSpec, LaurentSymbol, ParseError, circulant,
                    circulant_grid, circulant_real_transform, eig_general_small,
                    eig_hermitian, fourier_matrix,
                    grid_ordering_check, grid_ordering_detail, tau_eigen_grid,
                    tau_eigvec_matrix, tau_matrix, toeplitz,
                    uniform_open_grid)

ALL_PAIRS = [(e, p) for e in (-1, 0, 1) for p in (-1, 0, 1)]


def random_tridiagonal(rng):
    c0, c1 = rng.normal(), rng.normal()
    return LaurentSymbol({0: c0, 1: c1, -1: c1})


class TestTauGrids:
    def test_plain_grid(self):
        got = tau_eigen_grid(0, 0, 3)
        assert np.allclose(got, [math.pi / 4, math.pi / 2, 3 * math.pi / 4], atol=1e-15)

    def test_bottom_weakened_grid(self):
        got = tau_eigen_grid(0, 1, 2)
        assert np.allclose(got, [math.pi / 5, 3 * math.pi / 5], atol=1e-15)

    def test_both_strengthened_grid_reaches_pi(self):
        got = tau_eigen_grid(-1, -1, 4)
        assert np.allclose(got, np.arange(1, 5) * math.pi / 4, atol=1e-15)

    def test_both_weakened_grid_starts_at_zero(self):
        got = tau_eigen_grid(1, 1, 3)
        assert got[0] == 0.0
        assert np.allclose(got, [0, math.pi / 3, 2 * math.pi / 3], atol=1e-15)

    def test_weights_outside_range_rejected(self):
        with pytest.raises(ValueError):
            tau_eigen_grid(2, 0, 3)

    def test_all_grids_increasing_within_period(self):
        for eps, phi in ALL_PAIRS:
            for n in (1, 2, 7, 16):
                g = tau_eigen_grid(eps, phi, n)
                assert g.shape == (n,)
                assert np.all(np.diff(g) > 0)
                assert g[0] >= 0.0 and g[-1] <= math.pi + 1e-15

    def test_transposed_pairs_share_grids(self):
        for (e1, p1), (e2, p2) in [((-1, 0), (0, -1)), ((-1, 1), (1, -1)), ((0, 1), (1, 0))]:
            for n in (3, 8):
                assert np.array_equal(tau_eigen_grid(e1, p1, n), tau_eigen_grid(e2, p2, n))

    def test_uniform_open_matches_plain_tau(self):
        assert np.array_equal(uniform_open_grid(6), tau_eigen_grid(0, 0, 6))


class TestTauEigenvectors:
    def test_diagonalizes_laplacian_2x2(self):
        q = tau_eigvec_matrix(0, 0, 2)
        a = np.array([[2.0, -1.0], [-1.0, 2.0]])
        d = q.T @ a @ q
        assert np.allclose(np.diag(d), [1.0, 3.0], atol=1e-14)
        assert np.allclose(d - np.diag(np.diag(d)), 0, atol=1e-14)

    def test_orthogonal_all_pairs(self):
        for eps, phi in ALL_PAIRS:
            for n in (2, 5, 16):
                q = tau_eigvec_matrix(eps, phi, n)
                assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-12

    def test_diagonalizes_every_corner_variant(self):
        rng = np.random.default_rng(61)
        for eps, phi in ALL_PAIRS:
            f = random_tridiagonal(rng)
            n = 7
            a = tau_matrix(f, eps, phi, n).real
            q = tau_eigvec_matrix(eps, phi, n)
            d = q.T @ a @ q
            offdiag = d - np.diag(np.diag(d))
            assert np.abs(offdiag).max() <= 1e-10
            want = np.array([f(t).real for t in tau_eigen_grid(eps, phi, n)])
            assert np.allclose(np.diag(d), want, atol=1e-10)

    def test_bottom_weakened_diagonalization(self):
        f = LaurentSymbol({0: 2.0, 1: -1.0, -1: -1.0})
        n = 3
        q = tau_eigvec_matrix(0, 1, n)
        d = q.T @ tau_matrix(f, 0, 1, n).real @ q
        want = 2 - 2 * np.cos(tau_eigen_grid(0, 1, n))
        assert np.allclose(np.diag(d), want, atol=1e-13)


class TestCirculantTransforms:
    def test_circulant_grid_values(self):
        assert np.allclose(circulant_grid(4), [0, math.pi / 2, math.pi, 3 * math.pi / 2],
                           atol=1e-15)
        assert np.array_equal(circulant_grid(1), [0.0])

    def test_fourier_matrix_small(self):
        assert np.array_equal(fourier_matrix(1), [[1.0]])
        want = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.allclose(fourier_matrix(2), want, atol=1e-15)

    def test_fourier_unitary(self):
        for n in (2, 5, 9):
            f = fourier_matrix(n)
            assert np.abs(f.conj().T @ f - np.eye(n)).max() <= 1e-13

    def test_fourier_diagonalizes_second_difference(self):
        c = circulant(LaurentSymbol({0: 2.0, 1: -1.0, -1: -1.0}), 4)
        f = fourier_matrix(4)
        d = f.conj().T @ c @ f
        assert np.allclose(np.diag(d), [0, 2, 4, 2], atol=1e-13)
        assert np.abs(d - np.diag(np.diag(d))).max() <= 1e-13

    def test_real_transform_orthogonal(self):
        for n in (2, 4, 5, 8, 13):
            q = circulant_real_transform(n)
            assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-12

    def test_real_transform_diagonalizes_symmetric_circulant(self):
        rng = np.random.default_rng(62)
        for n in (4, 5, 9):
            c0, c1, c2 = rng.normal(size=3)
            f = LaurentSymbol({0: c0, 1: c1, -1: c1, 2: c2, -2: c2})
            c = circulant(f, n).real
            q = circulant_real_transform(n)
            d = q.T @ c @ q
            assert np.abs(d - np.diag(np.diag(d))).max() <= 1e-10
            want = np.array([f(t).real for t in circulant_grid(n)])
            assert np.allclose(np.diag(d), want, atol=1e-10)


class TestGridSpec:
    def test_parse_tau(self):
        spec = GridSpec.parse("tau:0,1")
        assert spec.family == "tau" and (spec.eps, spec.phi) == (0, 1)
        assert spec.name() == "tau:0,1"
        assert spec == GridSpec.tau(0, 1)

    def test_parse_other_families(self):
        assert GridSpec.parse("circulant").family == "circulant"
        assert GridSpec.parse("uniform-open").family == "uniform-open"

    def test_parse_rejects_unknown(self):
        with pytest.raises(ParseError):
            GridSpec.parse("wobble")
        with pytest.raises(ParseError):
            GridSpec.parse("tau:5,0")
        with pytest.raises(ParseError):
            GridSpec.parse("tau:1")
        with pytest.raises(ParseError, match="bad tau grid name 'tau:0,x'"):
            GridSpec.parse("tau:0,x")

    def test_angles_dispatch(self):
        assert np.array_equal(GridSpec.tau(0, 0).angles(4), tau_eigen_grid(0, 0, 4))
        assert np.array_equal(GridSpec.parse("circulant").angles(4), circulant_grid(4))
        assert np.array_equal(GridSpec.parse("uniform-open").angles(4), uniform_open_grid(4))

    @pytest.mark.parametrize("spec, build", [pytest.param(s, b, id=s.name()) for s, b in [
        *[(GridSpec.tau(e, p), lambda f, n, e=e, p=p: tau_matrix(f, e, p, n))
          for e, p in ALL_PAIRS],
        (GridSpec("circulant"), circulant),
        (GridSpec("uniform-open"), toeplitz),
    ]])
    def test_matrix_dispatch(self, spec, build):
        f = LaurentSymbol({0: 2.5, 1: -1.0, -1: -1.0})
        assert np.array_equal(spec.matrix(f, 6), build(f, 6))

    def test_equal_specs_hash_alike(self):
        assert len({GridSpec.tau(0, 1), GridSpec.parse("tau:0,1")}) == 1
        assert len({GridSpec(family) for family in ("circulant", "uniform-open")}) == 2

    def test_custom_family_is_gone(self):
        with pytest.raises(ValueError, match="unknown grid family 'custom'"):
            GridSpec("custom")

    @pytest.mark.parametrize("weights", [(), (0,), (None, 1), (float("nan"), 0)])
    def test_missing_corner_weight_rejected(self, weights):
        with pytest.raises(ValueError, match="unsupported corner pair"):
            GridSpec("tau", *weights)
        if len(weights) == 2:
            with pytest.raises(ValueError, match="unsupported corner pair"):
                GridSpec.tau(*weights)

    @pytest.mark.parametrize("family", ["circulant", "uniform-open"])
    def test_only_tau_takes_corner_weights(self, family):
        with pytest.raises(ValueError, match="takes no corner weights"):
            GridSpec(family, 1, 0)


def _reference_spectrum(spec, f, n):
    """The exact spectrum by the try-Hermitian, else-general rule, built without GridSpec."""
    if spec.family == "tau":
        a = tau_matrix(f, spec.eps, spec.phi, n)
    else:
        a = {"circulant": circulant, "uniform-open": toeplitz}[spec.family](f, n)
    try:
        return eig_hermitian(a)
    except ValueError:
        return eig_general_small(a)


_SPECTRUM_SYMBOLS = {
    "f1": {0: 2.0, 1: -1.0, -1: -1.0},
    "herm_c": {0: 2.0, 1: 1j, -1: -1j},
    "ns4": {-1: -1.0, 0: 3.0, 1: 0.5, 2: 0.25},
    "blk2": {0: [[2.0, 1.0], [1.0, 2.0]], 1: [[-1.0, 0.0], [0.5, -1.0]],
             -1: [[-1.0, 0.5], [0.0, -1.0]]},
}
_ALL_GRIDS = [GridSpec.tau(e, p) for e, p in ALL_PAIRS] \
    + [GridSpec("circulant"), GridSpec("uniform-open")]


@pytest.mark.parametrize("spec, name, n", [
    pytest.param(spec, name, n, id=f"{spec.name()}-{name}-{n}")
    for spec in _ALL_GRIDS
    for name in _SPECTRUM_SYMBOLS if name != "blk2" or spec.family == "uniform-open"
    for n in ((2, 7, 32) if name == "blk2" else (2, 7, 64))])
def test_exact_spectrum_matches_reference_bits(spec, name, n):
    f = LaurentSymbol(_SPECTRUM_SYMBOLS[name])
    try:
        want = _reference_spectrum(spec, f, n)
    except ValueError as exc:
        # a symbol outside the algebra (ns4 on a tau grid) fails alike on both sides
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            spec.exact_spectrum(f, n)
        return
    got = spec.exact_spectrum(f, n)
    assert got.kind == want.kind
    assert got.values.tobytes() == want.values.tobytes()


def test_non_symmetric_band_over_order_cap_is_refused_before_the_build():
    # the band route fails on symmetry; from order 65 the general solve is refused on the
    # order alone, where the dense build took 1.6 s and 79 MiB at n = 2047
    pytest.importorskip("scipy.linalg")  # without it the band route itself builds dense
    f, spec, n = LaurentSymbol({0: 3.0, 1: 0.25, -1: 0.75}), GridSpec("uniform-open"), 2047
    message = f"^general eigensolve capped at order 64, got {n}$"
    with pytest.raises(ValueError, match=message):
        spec.exact_spectrum(f, n)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            spec.exact_spectrum(f, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"{peak / 2 ** 20:.1f} MiB"
    want = _reference_spectrum(spec, f, 64)  # at the cap the general solve still runs
    got = spec.exact_spectrum(f, 64)
    assert got.kind == want.kind == "general_eig"
    assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("spec, coeffs, message", [
    (GridSpec.tau(0, 0), {0: 2.0, 1: 1j, -1: -1j},
     "tridiagonal symbol needs equal off-diagonal coefficients"),
    (GridSpec("circulant"), {0: 1.0, 70: 1.0},
     "symbol support must lie within -(n-1)..(n-1) for n=65"),
], ids=["tau", "circulant"])
def test_build_error_over_order_cap_keeps_the_builders_message(spec, coeffs, message):
    # the dense matrix is built before any solve, so above order 64 its build error is
    # never replaced by the general solve's refusal
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        spec.exact_spectrum(LaurentSymbol(coeffs), 65)


class TestOrdering:
    def test_chain_holds_across_sizes(self):
        for n in (1, 2, 5, 11, 15, 100):
            assert grid_ordering_check(n)

    def test_detail_reports_the_crossing_link(self):
        n = 9
        detail = grid_ordering_detail(n)
        crossing = "tau(-1,1) < tau(0,0)"
        assert not detail[crossing]["holds_for_all_j"]
        # the relation reverses past mid-spectrum; at 2j == n+1 both angles are
        # pi/2 up to one rounding unit, so the tie index may land either way
        fails = set(detail[crossing]["failing_j"])
        assert {j for j in range(1, n + 1) if 2 * j > n + 1} <= fails
        assert all(2 * j >= n + 1 for j in fails)
        for label, info in detail.items():
            if label != crossing:
                assert info["holds_for_all_j"], label

    def test_detail_equalities_exact(self):
        detail = grid_ordering_detail(12)
        for label, info in detail.items():
            if "=" in label:
                assert info["holds_for_all_j"] and info["failing_j"] == []


class TestBandForm:
    """GridSpec.band gives the three diagonals of GridSpec.matrix, bit for bit, in O(n)."""

    _SYMBOLS = [{0: 2.0, 1: -1.0, -1: -1.0}, {0: -0.0, 1: complex(0.5, -0.0), -1: 0.5},
                {0: 1.0, 1: -0.0, -1: -0.0}, {0: 3.0, 1: 0.25, -1: 0.75}]

    @staticmethod
    def _bits(x):
        return np.ascontiguousarray(x, dtype=float).view(np.uint64)

    @pytest.mark.parametrize("spec", _ALL_GRIDS, ids=lambda spec: spec.name())
    @pytest.mark.parametrize("n", [1, 2, 5, 33])
    def test_band_holds_the_dense_bits(self, spec, n):
        for coeffs in self._SYMBOLS:
            f = LaurentSymbol(coeffs)
            try:
                a = spec.matrix(f, n)
            except ValueError:  # a non-symmetric tau symbol; a circulant wider than n
                assert spec.band(f, n) is None
                continue
            band = spec.band(f, n)
            if spec.family == "circulant":  # the corners lie off the band
                assert band is None
                continue
            assert not a.imag.any() and all(d.dtype == np.float64 for d in band)
            want = [np.diagonal(a.real, k) for k in (-1, 0, 1)]
            assert all(np.array_equal(self._bits(d), self._bits(w)) for d, w in zip(band, want))
            assert np.count_nonzero(a) == sum(map(np.count_nonzero, want))

    def test_no_band_where_the_matrix_is_not_real_tridiagonal(self):
        spec = GridSpec("uniform-open")
        for coeffs in ({0: 2.0, 1: 1j, -1: -1j}, {0: complex(2.0, 1e-300)},
                       _SPECTRUM_SYMBOLS["ns4"], _SPECTRUM_SYMBOLS["blk2"]):
            assert spec.band(LaurentSymbol(coeffs), 4) is None
        assert spec.band(LaurentSymbol(_SPECTRUM_SYMBOLS["f1"]), 0) is None  # the build raises
        # order 1 has no off-diagonal, so only f0 must be real
        assert spec.band(LaurentSymbol({0: 2.0, 1: 1j, -1: -1j}), 1)[1].tolist() == [2.0]

    def test_band_refuses_what_the_dense_build_refuses(self, monkeypatch):
        monkeypatch.setattr(matrices, "_physical_memory", lambda: 48 * 100 * 100)
        f = LaurentSymbol(_SPECTRUM_SYMBOLS["f1"])
        for spec in (GridSpec.tau(0, 1), GridSpec("uniform-open")):
            assert len(spec.band(f, 100)[1]) == 100
            with pytest.raises(ValueError) as dense:
                spec.matrix(f, 101)
            with pytest.raises(ValueError, match=re.escape(str(dense.value))):
                spec.band(f, 101)
