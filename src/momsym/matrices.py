"""Dense structured-matrix builders driven by Laurent symbols.

Square and rectangular Toeplitz matrices, multilevel block Toeplitz
matrices, circulants, shift matrices, and tridiagonal-plus-corners tau
matrices.  All builders return plain complex numpy arrays; multi-index
linearization is lexicographic with the first variable slowest and the
block index fastest.  Every Toeplitz-family matrix (square, multilevel,
rectangular, and the tau matrices on top of them) comes from the one
coefficient loop in multilevel_toeplitz_rect.
"""

import json
import os
from functools import reduce

import numpy as np

from ._io import atomic_write_text, fmt_complex, fmt_real
from .errors import ParseError
from .symbols import _tridiagonal_coeffs


def _physical_memory():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _zeros(rows, cols):
    # a build peaks at about three complex arrays of its result's size
    if 48 * rows * cols > _physical_memory():
        raise ValueError(f"a dense {rows} x {cols} build would exceed physical memory")
    return np.zeros((rows, cols), dtype=complex)


def toeplitz(f, n):
    """T_n(f): block entry (i, j) is the coefficient of f at i - j."""
    if f.s != f.r:
        raise ValueError("square Toeplitz needs a square-coefficient symbol")
    return multilevel_toeplitz_rect(f, int(n), int(n))


def multilevel_toeplitz(f, n_vec):
    """Kronecker sum over coefficients of level shifts tensored with f_k."""
    if f.s != f.r:
        raise ValueError("square build needs a square-coefficient symbol")
    return multilevel_toeplitz_rect(f, n_vec, n_vec)


def shift_matrix(n):
    """The cyclic shift Z_n with ones where (i - j) mod n == 1."""
    n = int(n)
    if n < 1:
        raise ValueError("matrix order must be positive")
    i = np.arange(n)
    z = np.zeros((n, n), dtype=complex)
    z[i, (i - 1) % n] = 1
    return z


def circulant(f, n):
    """C_n(f) = sum of f_j Z_n^j over the support, support limited to |j| <= n-1."""
    if f.d != 1 or not f.is_scalar():
        raise ValueError("circulant needs a scalar univariate symbol")
    n = int(n)
    if n <= 0:
        raise ValueError("matrix order must be positive")
    if any(abs(k[0]) > n - 1 for k in f.support()):
        raise ValueError(f"symbol support must lie within -(n-1)..(n-1) for n={n}")
    a = _zeros(n, n)
    i = np.arange(n)
    for (k,), m in f.coeffs.items():
        a[i, (i - k) % n] += complex(m[0, 0])
    return a


def tau_matrix(f, eps, phi, n):
    """T_n(f) with corner corrections eps*f1 at (1,1) and phi*f1 at (n,n)."""
    eps, phi = float(eps), float(phi)
    if abs(eps) > 1 or abs(phi) > 1:
        raise ValueError("corner weights must lie in [-1, 1]")
    _, f1 = _tridiagonal_coeffs(f, real_symmetric=True)
    a = toeplitz(f, n)
    a[0, 0] += eps * f1
    a[-1, -1] += phi * f1
    return a


def identity_rect(n, m):
    """The n x m truncated identity (columns removed for n > m, rows for n < m)."""
    n, m = int(n), int(m)
    if n < 1 or m < 1:
        raise ValueError("sizes must be positive")
    return np.eye(n, m, dtype=complex)


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
    """Rectangular multilevel build: level factors are n_i x m_i shifted identities."""
    n_vec = tuple(int(v) for v in np.atleast_1d(n_vec))
    m_vec = tuple(int(v) for v in np.atleast_1d(m_vec))
    if len(n_vec) != f.d or len(m_vec) != f.d:
        raise ValueError(f"sizes {n_vec} x {m_vec} do not match the symbol arity {f.d}")
    if any(v <= 0 for v in n_vec + m_vec):
        raise ValueError("sizes must be positive")
    rows = f.s * int(np.prod(n_vec))
    cols = f.r * int(np.prod(m_vec))
    a = _zeros(rows, cols)
    for k, coeff in f.coeffs.items():
        a += np.kron(reduce(np.kron, [np.eye(ni, mi, k=-ki)
                                      for ki, ni, mi in zip(k, n_vec, m_vec)]), coeff)
    return a


def kron(a, b):
    return np.kron(a, b)


def matrix_to_csv_text(a):
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    lines = [",".join(fmt_complex(v) for v in row) for row in a]
    return "\n".join(lines) + "\n"


def write_matrix_csv(a, path):
    atomic_write_text(path, matrix_to_csv_text(a))


def read_matrix_csv(path):
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


def matrix_to_json_text(a):
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    data = ",".join(f"[{fmt_real(v.real)},{fmt_real(v.imag)}]" for v in a.ravel())
    return f'{{"rows":{a.shape[0]},"cols":{a.shape[1]},"data":[{data}]}}\n'


def write_matrix_json(a, path):
    atomic_write_text(path, matrix_to_json_text(a))


def read_matrix_json(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
        rows, cols = int(obj["rows"]), int(obj["cols"])
        flat = np.array([complex(re, im) for re, im in obj["data"]], dtype=complex)
        if not np.all(np.isfinite(flat)):
            raise ValueError("non-finite entry")
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"cannot read matrix JSON {path}: {exc}") from exc
    if len(flat) != rows * cols:
        raise ParseError(f"matrix JSON {path} has {len(flat)} entries, expected {rows * cols}")
    return flat.reshape(rows, cols)
