import os
import tempfile
import tracemalloc
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momsym.matrices as matrices
from momsym import (LaurentSymbol, ParseError, circulant, circulant_grid,
                    circulant_real_transform, fourier_matrix, identity_rect, kron,
                    matrix_to_csv_text, matrix_to_json_text, multilevel_toeplitz,
                    multilevel_toeplitz_rect, read_matrix_csv,
                    read_matrix_json, shift_matrix, tau_eigen_grid,
                    tau_eigvec_matrix, tau_matrix, toeplitz,
                    toeplitz_rect, write_matrix_csv, write_matrix_json)
from momsym._io import fmt_complex, fmt_real


def second_diff():
    return LaurentSymbol({0: 2.0, 1: -1.0, -1: -1.0})


def random_scalar_symbol(rng, deg=3, hermitian=False):
    coeffs = {0: complex(rng.normal(), 0.0 if hermitian else rng.normal())}
    for k in range(1, deg + 1):
        c = rng.normal() + 1j * rng.normal()
        coeffs[k] = c
        coeffs[-k] = np.conj(c) if hermitian else rng.normal() + 1j * rng.normal()
    return LaurentSymbol(coeffs)


class TestToeplitz:
    def test_second_difference(self):
        want = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
        assert np.array_equal(toeplitz(second_diff(), 3), want)

    def test_constant_gives_identity(self):
        assert np.array_equal(toeplitz(LaurentSymbol({0: 1.0}), 4), np.eye(4))

    def test_one_sided_bidiagonal(self):
        f = LaurentSymbol({0: 2.0, 1: 1.0})
        want = [[2, 0, 0], [1, 2, 0], [0, 1, 2]]
        assert np.array_equal(toeplitz(f, 3), want)

    def test_nonpositive_size(self):
        with pytest.raises(ValueError):
            toeplitz(second_diff(), 0)

    def test_oversized_build_refused(self, monkeypatch):
        monkeypatch.setattr(matrices, "_physical_memory", lambda: 2 ** 20)
        with pytest.raises(ValueError, match="physical memory"):
            toeplitz(second_diff(), 1000)

    def test_hermitian_iff_symbol_hermitian(self):
        rng = np.random.default_rng(51)
        f = random_scalar_symbol(rng, hermitian=True)
        a = toeplitz(f, 7)
        assert np.allclose(a, a.conj().T, atol=0)
        g = random_scalar_symbol(rng, hermitian=False)
        b = toeplitz(g, 7)
        assert not np.allclose(b, b.conj().T, atol=1e-12)

    def test_square_block_coefficients(self):
        g2 = LaurentSymbol({0: [[2.0, 1.0], [1.0, 2.0]], 1: [[0.0, 1.0], [0.0, 0.0]],
                            -1: [[0.0, 0.0], [1.0, 0.0]]})
        a = toeplitz(g2, 2)
        want = np.array([[2, 1, 0, 0],
                         [1, 2, 1, 0],
                         [0, 1, 2, 1],
                         [0, 0, 1, 2]], dtype=float)
        assert np.array_equal(a, want)

    def test_rectangular_coefficients_rejected(self):
        p = LaurentSymbol({0: [[1.0], [2.0]], 1: [[1.0], [0.0]]})
        with pytest.raises(ValueError):
            toeplitz(p, 3)


class TestMultilevelToeplitz:
    def test_one_level_matches_toeplitz(self):
        f = second_diff()
        assert np.array_equal(multilevel_toeplitz(f, (5,)), toeplitz(f, 5))

    def test_single_mode_two_level(self):
        f = LaurentSymbol({(1, 0): 1.0})
        want = np.kron(np.eye(2, k=-1), np.eye(2))
        assert np.array_equal(multilevel_toeplitz(f, (2, 2)), want)

    def test_two_level_identity(self):
        f = LaurentSymbol({(0, 0): np.eye(2)})
        assert np.array_equal(multilevel_toeplitz(f, (3, 4)), np.eye(24))

    def test_separable_product_is_kron(self):
        rng = np.random.default_rng(52)
        a = random_scalar_symbol(rng, deg=2)
        b = random_scalar_symbol(rng, deg=2)
        coeffs = {(k1[0], k2[0]): a.coeff(k1) * b.coeff(k2)[0, 0]
                  for k1 in a.support() for k2 in b.support()}
        f = LaurentSymbol(coeffs, d=2, s=1, r=1)
        got = multilevel_toeplitz(f, (4, 5))
        want = np.kron(toeplitz(a, 4), toeplitz(b, 5))
        assert np.allclose(got, want, atol=1e-14)

    def test_size_arity_mismatch(self):
        with pytest.raises(ValueError):
            multilevel_toeplitz(second_diff(), (2, 3))


class TestCirculant:
    def test_second_difference_wraps(self):
        want = [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]]
        assert np.array_equal(circulant(second_diff(), 4), want)

    def test_constant_identity(self):
        assert np.array_equal(circulant(LaurentSymbol({0: 1.0}), 3), np.eye(3))

    def test_single_mode_is_forward_shift(self):
        got = circulant(LaurentSymbol({1: 1.0}), 3)
        assert np.array_equal(got, shift_matrix(3))

    def test_support_too_wide(self):
        with pytest.raises(ValueError):
            circulant(LaurentSymbol({3: 1.0, -3: 1.0}), 3)

    def test_commutes_with_shift(self):
        rng = np.random.default_rng(53)
        for n in (4, 7, 12):
            f = random_scalar_symbol(rng, deg=3)
            c, z = circulant(f, n), shift_matrix(n)
            assert np.abs(c @ z - z @ c).max() <= 1e-13


class TestShift:
    def test_small_cases(self):
        assert np.array_equal(shift_matrix(1), [[1.0]])
        assert np.array_equal(shift_matrix(2), [[0, 1], [1, 0]])

    def test_order_n(self):
        z = shift_matrix(4)
        assert np.array_equal(np.linalg.matrix_power(z, 4), np.eye(4))
        assert not np.array_equal(np.linalg.matrix_power(z, 2), np.eye(4))


class TestTau:
    def test_bottom_corner_modification(self):
        got = tau_matrix(second_diff(), 0, 1, 3)
        want = [[2, -1, 0], [-1, 2, -1], [0, -1, 1]]
        assert np.array_equal(got, want)

    def test_no_modification_matches_toeplitz(self):
        f = second_diff()
        assert np.array_equal(tau_matrix(f, 0, 0, 5), toeplitz(f, 5))

    def test_gram_of_shifted_bidiagonal(self):
        # X lower bidiagonal with 2 + h on the diagonal; X^T X lands in the
        # corner algebra with phi = -1 / (2 + h)
        n = 4
        h = 1.0 / n
        x = toeplitz(LaurentSymbol({0: 2.0 + h, 1: 1.0}), n)
        g = LaurentSymbol({0: 1 + (2 + h) ** 2, 1: 2 + h, -1: 2 + h})
        got = tau_matrix(g, 0, -1.0 / (2 + h), n)
        assert np.allclose(got, x.T @ x, atol=1e-13)

    def test_corner_weight_bounds(self):
        for eps, phi in [(2.0, 0), (np.nan, 0), (0, np.nan), (-np.inf, 0)]:
            with pytest.raises(ValueError, match=r"corner weights must lie in \[-1, 1\]"):
                tau_matrix(second_diff(), eps, phi, 4)

    def test_differs_from_toeplitz_only_in_corners(self):
        rng = np.random.default_rng(54)
        for _ in range(5):
            c0, c1 = rng.normal(), rng.normal()
            f = LaurentSymbol({0: c0, 1: c1, -1: c1})
            eps, phi = rng.uniform(-1, 1, size=2)
            diff = tau_matrix(f, eps, phi, 6) - toeplitz(f, 6)
            mask = np.zeros((6, 6), dtype=bool)
            mask[0, 0] = mask[5, 5] = True
            assert np.all(diff[~mask] == 0)
            assert diff[0, 0] == pytest.approx(eps * c1, abs=1e-15)
            assert diff[5, 5] == pytest.approx(phi * c1, abs=1e-15)


class TestRectangular:
    def test_identity_rect(self):
        assert np.array_equal(identity_rect(3, 3), np.eye(3))
        assert np.array_equal(identity_rect(3, 2), [[1, 0], [0, 1], [0, 0]])
        assert np.array_equal(identity_rect(2, 3), [[1, 0, 0], [0, 1, 0]])

    def test_tall_toeplitz_rect(self):
        got = toeplitz_rect(second_diff(), 3, 2)
        assert np.array_equal(got, [[2, -1], [-1, 2], [0, -1]])

    def test_constant_rect(self):
        assert np.array_equal(toeplitz_rect(LaurentSymbol({0: 1.0}), 4, 2),
                              identity_rect(4, 2))

    def test_wide_toeplitz_rect(self):
        got = toeplitz_rect(second_diff(), 2, 4)
        assert np.array_equal(got, [[2, -1, 0, 0], [-1, 2, -1, 0]])

    def test_leading_submatrix_property(self):
        rng = np.random.default_rng(55)
        for _ in range(5):
            f = random_scalar_symbol(rng, deg=2)
            n, m = rng.integers(2, 9, size=2)
            big = toeplitz(f, max(n, m))
            assert np.array_equal(toeplitz_rect(f, n, m), big[:n, :m])

    @pytest.mark.parametrize("n, m", [(3, 5), (5, 3)])
    def test_leading_block_bytes(self, n, m):
        # entries that are zero by construction are +0.0, as in the square build
        f = LaurentSymbol({-1: -0.5, 0: 2.0, 1: -1.5 + 0.25j, 2: -0.75})
        assert toeplitz_rect(f, n, m).tobytes() == toeplitz(f, max(n, m))[:n, :m].tobytes()

    def test_multilevel_rect_one_level(self):
        f = second_diff()
        got = multilevel_toeplitz_rect(f, (4,), (2,))
        assert np.array_equal(got, toeplitz_rect(f, 4, 2))

    def test_interpolation_blocks(self):
        p = LaurentSymbol({0: [[1.0], [2.0]], 1: [[1.0], [0.0]]})
        got = multilevel_toeplitz_rect(p, (3,), (3,))
        want = np.array([[1, 0, 0], [2, 0, 0],
                         [1, 1, 0], [0, 2, 0],
                         [0, 1, 1], [0, 0, 2]], dtype=float)
        assert got.shape == (6, 3)
        assert np.array_equal(got, want)

    def test_column_selector_blocks(self):
        f_cut = LaurentSymbol({0: [[0.0], [1.0]]})
        got = multilevel_toeplitz_rect(f_cut, (2,), (2,))
        want = np.array([[0, 0], [1, 0], [0, 0], [0, 1]], dtype=float)
        assert np.array_equal(got, want)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            multilevel_toeplitz_rect(second_diff(), (3, 3), (2,))


BIVARIATE = LaurentSymbol({(0, 0): 2.0, (1, 0): -1.0, (-1, 0): -1.0})


@pytest.mark.parametrize("call", [
    lambda: toeplitz(BIVARIATE, 3),
    lambda: toeplitz_rect(BIVARIATE, 3, 2),
    lambda: circulant(BIVARIATE, 3),
    lambda: multilevel_toeplitz(BIVARIATE, (3, 0)),
    lambda: tau_matrix(second_diff(), 0, 0, 0),
    lambda: tau_eigvec_matrix(0, 0, 0),
    lambda: fourier_matrix(0),
    lambda: circulant_real_transform(0),
    lambda: tau_eigen_grid(0, 0, 0),
    lambda: circulant_grid(0),
], ids=["toeplitz_bivariate", "toeplitz_rect_bivariate", "circulant_bivariate",
        "multilevel_size_0", "tau_matrix_n0", "tau_eigvec_matrix_n0", "fourier_matrix_n0",
        "circulant_real_transform_n0", "tau_eigen_grid_n0", "circulant_grid_n0"])
def test_wrapper_rejections_come_from_the_kernel(call):
    # size, arity and univariate checks live in multilevel_toeplitz_rect and the
    # grid functions; the builders and transforms on top of them still refuse
    with pytest.raises(ValueError):
        call()


_floats = st.floats(-4, 4, allow_subnormal=False)
# real, complex, integer and purely imaginary coefficient entries
_entries = st.one_of(_floats, st.builds(complex, _floats, _floats), st.integers(-3, 3),
                     st.builds(lambda y: 1j * y, _floats))


@st.composite
def kernel_cases(draw):
    """(symbol, n_vec, m_vec): d in {1, 2}, s, r in {1, 2}, sizes 1..6, support -7..7."""
    d, s, r = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    keys = draw(st.lists(st.tuples(*[st.integers(-7, 7)] * d), max_size=6, unique=True))
    coeffs = {k: np.array(draw(st.lists(_entries, min_size=s * r, max_size=s * r)),
                          dtype=complex).reshape(s, r) for k in keys}
    sizes = st.tuples(*[st.integers(1, 6)] * d)
    return LaurentSymbol(coeffs, d=d, s=s, r=r), draw(sizes), draw(sizes)


@st.composite
def circulant_cases(draw):
    """(symbol, n) with support in -(n-1)..(n-1), some residue pairs cancelling."""
    n = draw(st.integers(1, 8))
    coeffs = draw(st.dictionaries(st.integers(-(n - 1), n - 1), _entries, max_size=2 * n - 1))
    pairs = draw(st.lists(st.integers(1, n - 1), max_size=3)) if n > 1 else []
    for k in pairs:
        coeffs[k - n] = -coeffs.setdefault(k, 1.5 - 0.5j)
    return LaurentSymbol(coeffs, d=1, s=1, r=1), n


class TestDiagonalFill:
    """Every builder matches, byte for byte, the construction it replaced."""

    @settings(deadline=None, max_examples=300)
    @given(kernel_cases())
    def test_kernel_matches_kron_sum(self, case):
        f, n_vec, m_vec = case
        want = np.zeros((f.s * int(np.prod(n_vec)), f.r * int(np.prod(m_vec))), dtype=complex)
        for k, coeff in f.coeffs.items():
            want += np.kron(reduce(np.kron, [np.eye(ni, mi, k=-ki)
                                             for ki, ni, mi in zip(k, n_vec, m_vec)]), coeff)
        assert multilevel_toeplitz_rect(f, n_vec, m_vec).tobytes() == want.tobytes()

    @settings(deadline=None, max_examples=300)
    @given(circulant_cases())
    def test_circulant_matches_modular_loop(self, case):
        f, n = case
        want, i = np.zeros((n, n), dtype=complex), np.arange(n)
        for (k,), m in f.coeffs.items():
            want[i, (i - k) % n] += complex(m[0, 0])
        assert circulant(f, n).tobytes() == want.tobytes()

    def test_cancelling_residue_pair_leaves_positive_zero(self):
        f = LaurentSymbol({1: 0.5 - 2.0j, -3: -0.5 + 2.0j, 0: -1.0})
        assert circulant(f, 4).tobytes() == np.diag(np.full(4, -1.0 + 0.0j)).tobytes()

    @pytest.mark.parametrize("n", range(1, 40))
    def test_shift_matches_fill(self, n):
        want, i = np.zeros((n, n), dtype=complex), np.arange(n)
        want[i, (i - 1) % n] = 1
        assert shift_matrix(n).tobytes() == want.tobytes()

    def test_identity_rect_matches_eye(self):
        for n in range(1, 9):
            for m in range(1, 9):
                assert identity_rect(n, m).tobytes() == np.eye(n, m, dtype=complex).tobytes()

    @pytest.mark.parametrize("build, rows, cols", [
        (lambda: toeplitz(second_diff(), 5), 5, 5),
        (lambda: circulant(second_diff(), 5), 5, 5),
        (lambda: identity_rect(3, 4), 3, 4),
    ], ids=["toeplitz", "circulant", "identity_rect"])
    def test_memory_guard_boundary(self, monkeypatch, build, rows, cols):
        # 48 bytes per entry is the budget: exactly that builds, one byte less is refused
        monkeypatch.setattr(matrices, "_physical_memory", lambda: 48 * rows * cols)
        assert build().shape == (rows, cols)
        monkeypatch.setattr(matrices, "_physical_memory", lambda: 48 * rows * cols - 1)
        with pytest.raises(ValueError, match="physical memory"):
            build()


class TestKron:
    def test_matches_numpy(self):
        rng = np.random.default_rng(56)
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(3, 2))
        assert np.array_equal(kron(a, b), np.kron(a, b))

    def test_product_symbol_gives_kron_of_blocks(self):
        # one factor per level: T_(n1,n2) of the separable symbol is the kron
        rng = np.random.default_rng(57)
        a = random_scalar_symbol(rng, deg=1, hermitian=True)
        b = random_scalar_symbol(rng, deg=1, hermitian=True)
        coeffs = {(k1[0], k2[0]): a.coeff(k1) * b.coeff(k2)[0, 0]
                  for k1 in a.support() for k2 in b.support()}
        f = LaurentSymbol(coeffs, d=2)
        got = multilevel_toeplitz(f, (3, 3))
        assert np.allclose(got, kron(toeplitz(a, 3), toeplitz(b, 3)), atol=1e-14)


class TestMatrixIO:
    def test_csv_roundtrip_complex(self, tmp_path):
        rng = np.random.default_rng(58)
        a = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        path = tmp_path / "m.csv"
        write_matrix_csv(a, path)
        assert np.array_equal(read_matrix_csv(path), a)

    def test_csv_text_entries(self):
        text = matrix_to_csv_text(np.array([[2.0, -1.0]]))
        assert text.splitlines()[0] == "2.0+0.0j,-1.0+0.0j"

    def test_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(59)
        a = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
        path = tmp_path / "m.json"
        write_matrix_json(a, path)
        assert np.array_equal(read_matrix_json(path), a)

    def test_ragged_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ParseError):
            read_matrix_csv(path)

    def test_bad_complex_entry_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,zap\n")
        with pytest.raises(ParseError):
            read_matrix_csv(path)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 2}')
        with pytest.raises(ParseError):
            read_matrix_json(path)

    def test_json_entry_count_must_match_header(self, tmp_path):
        path = tmp_path / "count.json"
        path.write_text('{"rows":2,"cols":2,"data":[[1,0]]}')
        with pytest.raises(ParseError, match="has 1 entries, expected 4"):
            read_matrix_json(path)

    @pytest.mark.parametrize("z, text", [
        (complex(0.0, -0.0), "0.0-0.0j"), (complex(-0.0, 0.0), "-0.0+0.0j"),
        (complex(1.0, -np.inf), "1.0-infj"), (complex(1.0, np.nan), "1.0-nanj"),
        (complex(1.0, -np.nan), "1.0-nanj")])
    def test_csv_cell_keeps_imaginary_sign(self, z, text):
        assert fmt_complex(z) == text


def csv_text_per_cell(a):
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    return "\n".join(",".join(fmt_complex(v) for v in row) for row in a) + "\n"


def json_text_per_cell(a):
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    data = ",".join(f"[{fmt_real(v.real)},{fmt_real(v.imag)}]" for v in a.ravel())
    return f'{{"rows":{a.shape[0]},"cols":{a.shape[1]},"data":[{data}]}}\n'


def read_csv_per_cell(path):
    """complex() of every cell of every non-blank line, then the shape checks."""
    try:
        with open(path) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
        rows = [[complex(cell.strip().replace(" ", "")) for cell in ln.split(",")]
                for ln in lines]
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read matrix CSV {path}: {exc}") from exc
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ParseError(f"ragged or empty matrix CSV {path}")
    a = np.array(rows, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise ParseError(f"cannot read matrix CSV {path}: non-finite entry")
    return a


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


_NAN_PAYLOAD = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(float)
_ONE_ULP = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]
# finite values that format alike or nearly so: signed zeros, subnormals, neighbours
_FINITE_POOL = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), 5e-324, -5e-324,
                complex(0.0, 5e-324), 2.2250738585072014e-308, *_ONE_ULP,
                complex(_ONE_ULP[0], _ONE_ULP[2]), 0.1, -2.5 + 1j, 1j, 1e300 - 1e-300j]
_NONFINITE_POOL = [np.inf, -np.inf, complex(0.0, -np.inf), np.nan, complex(1.0, np.nan),
                   *_NAN_PAYLOAD, complex(0.0, _NAN_PAYLOAD[1])]


@st.composite
def pooled_matrices(draw, pool):
    """A rows x cols complex matrix, 1..7 each way: drawn from pool, or all but
    surely distinct."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    if draw(st.booleans()):
        values = draw(st.lists(st.sampled_from(pool), min_size=rows * cols,
                               max_size=rows * cols))
    else:
        re, im = np.random.default_rng(draw(st.integers(0, 2 ** 32))).normal(
            size=(2, rows * cols))
        values = re + 1j * im
    return np.array(values, dtype=complex).reshape(rows, cols)


# cell texts that parse alike, parse apart, hold spaces, or do not parse at all
_CELLS = ["0", "0.0+0.0j", "-0.0-0.0j", "0-0j", " 1 ", "1 + 2j", "(1+2j)", "5e-324",
          "-5e-324j", "1.0000000000000002", "0.9999999999999999", "2.5e3-1j", "nan+0j",
          "inf", "zap", "", "1+", " ", "1,,2"]


@st.composite
def csv_texts(draw):
    """CSV text built from _CELLS: rows of 1..4 cells, usually all one width,
    with blank lines and CRLF endings mixed in."""
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        cols = width if draw(st.integers(0, 4)) else draw(st.integers(1, 4))
        lines.append(",".join(draw(st.lists(st.sampled_from(_CELLS), min_size=cols,
                                            max_size=cols))))
        if not draw(st.integers(0, 4)):
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


class TestMatrixIOPerDistinctValue:
    """The writers and the CSV reader match, byte for byte, the per-cell code they replaced."""

    @settings(deadline=None, max_examples=300)
    @given(pooled_matrices(_FINITE_POOL + _NONFINITE_POOL), st.integers(1, 20))
    def test_writers_match_per_cell_formatting(self, a, block):
        # small blocks put block boundaries inside and between rows
        with mock.patch.object(matrices, "_BLOCK_ENTRIES", block):
            assert matrix_to_csv_text(a) == csv_text_per_cell(a)
            assert matrix_to_json_text(a) == json_text_per_cell(a)

    @settings(deadline=None, max_examples=300)
    @given(pooled_matrices(_FINITE_POOL), st.integers(1, 20))
    def test_reader_matches_per_cell_parsing(self, a, block):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(matrices, "_BLOCK_ENTRIES", block):
            path = os.path.join(tmp, "m.csv")
            write_matrix_csv(a, path)
            got = read_matrix_csv(path)
            assert np.array_equal(_bits(got), _bits(read_csv_per_cell(path)))  # signbit too
            assert got.shape == a.shape and np.array_equal(_bits(got), _bits(a))

    @settings(deadline=None, max_examples=500)
    @given(csv_texts(), st.integers(1, 20))
    def test_reader_errors_match_per_cell_parsing(self, text, block):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(matrices, "_BLOCK_ENTRIES", block):
            path = os.path.join(tmp, "m.csv")
            with open(path, "w", newline="") as fh:
                fh.write(text)
            try:
                want = read_csv_per_cell(path)
            except ParseError as exc:
                with pytest.raises(ParseError) as got:
                    read_matrix_csv(path)
                assert str(got.value) == str(exc)
            else:
                assert np.array_equal(_bits(read_matrix_csv(path)), _bits(want))

    def test_empty_and_blank_files_are_refused_as_empty(self, tmp_path):
        for text in ("", "\n \n\t\n"):
            path = tmp_path / "m.csv"
            path.write_text(text)
            with pytest.raises(ParseError, match="^ragged or empty matrix CSV"):
                read_matrix_csv(path)

    def test_malformed_cell_is_reported_before_a_ragged_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n4,zap\n")
        with pytest.raises(ParseError, match="malformed string"):
            read_matrix_csv(path)

    @pytest.mark.parametrize("writer", [matrix_to_csv_text, matrix_to_json_text])
    def test_build_plus_writer_stays_within_memory_guard(self, writer):
        # the builders refuse a matrix needing more than 48 bytes per entry; what
        # follows a build must fit in that: its 16, about 10 of text, and one copy
        n = 512
        tracemalloc.start()
        try:
            writer(tau_matrix(second_diff(), 0, 0, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * n * n, f"{peak / n / n:.1f} bytes per entry"
