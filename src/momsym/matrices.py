"""Dense structured-matrix builders driven by Laurent symbols.

Square and rectangular Toeplitz matrices, multilevel block Toeplitz
matrices, circulants, shift matrices, truncated identities and
tridiagonal-plus-corners tau matrices, all as plain complex numpy arrays;
multi-index linearization is lexicographic, first variable slowest and block
index fastest.  The one coefficient loop in multilevel_toeplitz_rect builds
every one of them by writing each f_k into its diagonal i - j = k: a
circulant is T_n of its symbol folded mod n, and Z_n is T_n(z + z^(1-n)).
"""

import json
import os

import numpy as np

from ._io import atomic_write_text, fmt_complex, fmt_real
from .errors import ParseError
from .symbols import LaurentSymbol, _tridiagonal_coeffs


def _physical_memory():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _refuse_oversized(rows, cols, bytes_per_entry):
    """ValueError when a dense rows x cols build needing bytes_per_entry would not fit."""
    if bytes_per_entry * rows * cols > _physical_memory():
        raise ValueError(f"a dense {rows} x {cols} build would exceed physical memory")


def toeplitz(f, n):
    """T_n(f): block entry (i, j) is the coefficient of f at i - j."""
    if f.s != f.r:
        raise ValueError("square Toeplitz needs a square-coefficient symbol")
    return multilevel_toeplitz_rect(f, int(n), int(n))


def multilevel_toeplitz(f, n_vec):
    """Square multilevel block Toeplitz: block (i, j) is the coefficient at i - j."""
    if f.s != f.r:
        raise ValueError("square build needs a square-coefficient symbol")
    return multilevel_toeplitz_rect(f, n_vec, n_vec)


def shift_matrix(n):
    """The cyclic shift Z_n with ones where (i - j) mod n == 1."""
    return toeplitz(LaurentSymbol({1: 1, 1 - int(n): 1}), n)


def circulant(f, n):
    """C_n(f) = T_n of f folded mod n: f_j lies on the diagonals j mod n and j mod n - n."""
    if f.d != 1 or not f.is_scalar():
        raise ValueError("circulant needs a scalar univariate symbol")
    n = int(n)
    if n <= 0:
        raise ValueError("matrix order must be positive")
    if any(abs(k[0]) > n - 1 for k in f.support()):
        raise ValueError(f"symbol support must lie within -(n-1)..(n-1) for n={n}")
    folded = {}
    for (k,), m in f.coeffs.items():
        for diag in (k % n, k % n - n):
            folded[diag] = folded.get(diag, 0) + m[0, 0]
    return toeplitz(LaurentSymbol(folded, d=1, s=1, r=1), n)


def tau_matrix(f, eps, phi, n):
    """T_n(f) with corner corrections eps*f1 at (1,1) and phi*f1 at (n,n)."""
    eps, phi = float(eps), float(phi)
    if not (abs(eps) <= 1 and abs(phi) <= 1):
        raise ValueError("corner weights must lie in [-1, 1]")
    _, f1 = _tridiagonal_coeffs(f, real_symmetric=True)
    a = toeplitz(f, n)
    a[0, 0] += eps * f1
    a[-1, -1] += phi * f1
    return a


def identity_rect(n, m):
    """The n x m truncated identity (columns removed for n > m, rows for n < m)."""
    return multilevel_toeplitz_rect(LaurentSymbol({0: 1}), n, m)


def toeplitz_rect(f, n, m):
    """Rectangular scalar Toeplitz with entry (i, j) = coefficient at i - j.

    Equal to T_n(f) I_{n x m} for n > m and I_{n x m} T_m(f) for n < m: the
    leading n x m block of T_max(n,m)(f).
    """
    if not f.is_scalar():
        raise ValueError("rectangular scalar build needs a scalar symbol; "
                         "use multilevel_toeplitz_rect for matrix-valued symbols")
    return multilevel_toeplitz_rect(f, int(n), int(m))


def multilevel_toeplitz_rect(f, n_vec, m_vec):
    """Rectangular multilevel build: block (i, j) is the coefficient at i - j."""
    n_vec = tuple(int(v) for v in np.atleast_1d(n_vec))
    m_vec = tuple(int(v) for v in np.atleast_1d(m_vec))
    if len(n_vec) != f.d or len(m_vec) != f.d:
        raise ValueError(f"sizes {n_vec} x {m_vec} do not match the symbol arity {f.d}")
    if any(v <= 0 for v in n_vec + m_vec):
        raise ValueError("sizes must be positive")
    rows = f.s * int(np.prod(n_vec))
    cols = f.r * int(np.prod(m_vec))
    # a build allocates only its 16-byte-per-entry result; at n=2047 tracemalloc peaks at
    # 32 bytes per entry with eig_hermitian after it, 34 with matrix_to_csv_text and 36
    # with matrix_to_json_text
    _refuse_oversized(rows, cols, 48)
    a = np.zeros((rows, cols), dtype=complex)
    # f_k fills the rows with 0 <= i - k < m on every level, maybe none of them
    blocks = a.reshape(n_vec + (f.s,) + m_vec + (f.r,))
    for k, coeff in f.coeffs.items():
        i = np.ix_(*[np.arange(max(0, ki), min(ni, mi + ki))
                     for ki, ni, mi in zip(k, n_vec, m_vec)])
        blocks[(*i, slice(None), *(il - ki for il, ki in zip(i, k)), slice(None))] += coeff
    return a


def kron(a, b):
    return np.kron(a, b)


# matrix IO goes a block of rows at a time, each block about this many entries, so
# that its temporaries stay small next to the matrix and its text
_BLOCK_ENTRIES = 4096


def _rows_per_block(cols):
    return max(1, _BLOCK_ENTRIES // max(1, cols))


def _matrix_text(a, fmt, sep, row_sep, head, tail):
    """head, then a's rows joined by row_sep with each row's fmt(entry) texts joined
    by sep, then tail.  fmt runs once per distinct 16-byte bit pattern in a block, so
    -0.0 and 0.0 keep their own texts."""
    step = _rows_per_block(a.shape[1])
    pieces = [head]
    for start in range(0, a.shape[0], step):
        block = np.ascontiguousarray(a[start:start + step])
        bits, inverse = np.unique(block.view(np.dtype((np.void, 16))), return_inverse=True)
        texts = np.array([fmt(v) for v in bits.view(complex).tolist()], dtype=object)
        rows = texts[inverse.reshape(block.shape)].tolist()
        if start:
            pieces.append(row_sep)
        pieces.append(row_sep.join([sep.join(row) for row in rows]))
    pieces.append(tail)
    return "".join(pieces)


def matrix_to_csv_text(a):
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    return _matrix_text(a, fmt_complex, ",", "\n", "", "\n")


def write_matrix_csv(a, path):
    atomic_write_text(path, matrix_to_csv_text(a))


def _parse_cells(cells):
    """complex() of every cell, called once per distinct cell text in first-seen order."""
    first = {}  # cell text -> index of its first occurrence
    where = np.fromiter(map(first.setdefault, cells, range(len(cells))), dtype=np.intp,
                        count=len(cells))
    values = np.empty(len(cells), dtype=complex)
    values[np.fromiter(first.values(), dtype=np.intp, count=len(first))] = [
        complex(cell.strip().replace(" ", "")) for cell in first]
    return values[where]


def read_matrix_csv(path):
    try:
        with open(path) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
        step = _rows_per_block(lines[0].count(",") + 1) if lines else 1
        blocks = [_parse_cells(",".join(lines[i:i + step]).split(","))
                  for i in range(0, len(lines), step)]
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read matrix CSV {path}: {exc}") from exc
    if not lines or len({ln.count(",") for ln in lines}) > 1:
        raise ParseError(f"ragged or empty matrix CSV {path}")
    a = np.concatenate(blocks).reshape(len(lines), -1)
    if not np.all(np.isfinite(a)):
        raise ParseError(f"cannot read matrix CSV {path}: non-finite entry")
    return a


def matrix_to_json_text(a):
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    return _matrix_text(a, lambda v: f"[{fmt_real(v.real)},{fmt_real(v.imag)}]", ",", ",",
                        f'{{"rows":{a.shape[0]},"cols":{a.shape[1]},"data":[', "]}\n")


def write_matrix_json(a, path):
    atomic_write_text(path, matrix_to_json_text(a))


def read_matrix_json(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
        rows, cols = obj["rows"], obj["cols"]
        if not all(type(v) is int and v > 0 for v in (rows, cols)):
            raise ValueError(f"rows and cols must be positive integers, got {rows!r}, {cols!r}")
        flat = np.array([complex(re, im) for re, im in obj["data"]], dtype=complex)
        if not np.all(np.isfinite(flat)):
            raise ValueError("non-finite entry")
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError,
            OverflowError) as exc:
        raise ParseError(f"cannot read matrix JSON {path}: {exc}") from exc
    if len(flat) != rows * cols:
        raise ParseError(f"matrix JSON {path} has {len(flat)} entries, expected {rows * cols}")
    return flat.reshape(rows, cols)
