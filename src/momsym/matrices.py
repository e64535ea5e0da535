"""Dense structured-matrix builders driven by Laurent symbols.

Square and rectangular Toeplitz matrices, multilevel block Toeplitz
matrices, circulants, shift matrices, truncated identities and
tridiagonal-plus-corners tau matrices, all as plain complex numpy arrays;
multi-index linearization is lexicographic, first variable slowest and block
index fastest.  The one coefficient loop in multilevel_toeplitz_rect builds
every one of them by writing each f_k into its diagonal i - j = k: a
circulant is T_n of its symbol folded mod n, and Z_n is T_n(z + z^(1-n)).
"""

import os
import re

import numpy as np

from ._io import atomic_write_text, bad_input, fmt_complex, fmt_real, parse_json, read_text
from .errors import NumericError, ParseError
from .symbols import LaurentSymbol, _tridiagonal_coeffs


def _physical_memory():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _refuse_oversized(rows, cols, bytes_per_entry):
    """ValueError when a dense rows x cols build needing bytes_per_entry would not fit."""
    if bytes_per_entry * rows * cols > _physical_memory():
        raise ValueError(f"a dense {rows} x {cols} build would exceed physical memory")


def _checked_sum(a, b, what):
    """a + b, a sum the build itself forms; NumericError where finite terms overflow."""
    with np.errstate(over="ignore"):
        total = a + b
    if not np.isfinite(total) and np.isfinite(a) and np.isfinite(b):
        raise NumericError(f"{what} overflows in the matrix build")
    return total


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
            folded[diag] = _checked_sum(folded.get(diag, 0), m[0, 0], "the circulant fold")
    return toeplitz(LaurentSymbol(folded, d=1, s=1, r=1), n)


def _corner_terms(f, eps, phi):
    """(eps*f1, phi*f1), the corner corrections of tau_matrix(f, eps, phi, n)."""
    eps, phi = float(eps), float(phi)
    if not (abs(eps) <= 1 and abs(phi) <= 1):
        raise ValueError("corner weights must lie in [-1, 1]")
    _, f1 = _tridiagonal_coeffs(f, real_symmetric=True)
    return eps * f1, phi * f1


def tau_matrix(f, eps, phi, n):
    """T_n(f) with corner corrections eps*f1 at (1,1) and phi*f1 at (n,n)."""
    top, bottom = _corner_terms(f, eps, phi)
    a = toeplitz(f, n)
    a[0, 0] = _checked_sum(a[0, 0], top, "the tau corner")
    a[-1, -1] = _checked_sum(a[-1, -1], bottom, "the tau corner")
    return a


def _tridiagonal_band(f, n, eps=None, phi=None):
    """The (sub, main, super) diagonals of T_n(f), or of tau_matrix(f, eps, phi, n), as
    float arrays built in O(n) with the bits of the dense build: each entry is 0.0 + f_k
    and the corners then add eps*f1 and phi*f1.

    None where that matrix has a nonzero imaginary part, lies off the band or would not
    build; the caller then builds it dense, which raises what it raises.  An order the
    dense build refuses for memory is refused alike, before anything is allocated.
    """
    try:
        corners = None if eps is None else _corner_terms(f, eps, phi)
        coeffs = _tridiagonal_coeffs(f)
        n = int(n)
    except (TypeError, ValueError):
        return None
    if n < 1 or any(c.imag != 0 for c in coeffs[:1 if n == 1 else 3]):
        return None
    _refuse_oversized(n, n, 48)
    f0, f1, fm1 = (0.0 + c.real for c in coeffs)
    main = np.full(n, f0)
    if corners is not None:
        main[0] = _checked_sum(main[0], corners[0], "the tau corner")
        main[-1] = _checked_sum(main[-1], corners[1], "the tau corner")
    return [np.full(n - 1, f1), main, np.full(n - 1, fm1)]


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


def _distinct_bits(block):
    """(the distinct 16-byte bit patterns among a complex block's entries, as complex
    values; each entry's index among them), found by a sort on the two 64-bit words of
    each entry, so -0.0 and 0.0 stay apart and so do NaN payloads."""
    words = block.view(np.uint64).reshape(-1, 2)
    order = np.lexsort((words[:, 1], words[:, 0]))
    ordered = words[order]
    new = np.empty(len(order), dtype=bool)
    new[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new].view(complex).ravel(), inverse


def _matrix_text(a, fmt, sep, row_sep, head, tail):
    """head, then a's rows joined by row_sep with each row's fmt(entry) texts joined
    by sep, then tail.  fmt runs once per distinct 16-byte bit pattern in a block, so
    -0.0 and 0.0 keep their own texts."""
    step = _rows_per_block(a.shape[1])
    pieces = [head]
    for start in range(0, a.shape[0], step):
        block = np.ascontiguousarray(a[start:start + step])
        bits, inverse = _distinct_bits(block)
        texts = np.array([fmt(v) for v in bits.tolist()], dtype=object)
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


def _parse_cells(cells, parse):
    """parse(the distinct cell texts in first-seen order) gives their complex values,
    spread back over every cell; parse runs once per call."""
    first = {}  # cell text -> index of its first occurrence
    where = np.fromiter(map(first.setdefault, cells, range(len(cells))), dtype=np.intp,
                        count=len(cells))
    values = np.empty(len(cells), dtype=complex)
    values[np.fromiter(first.values(), dtype=np.intp, count=len(first))] = parse(list(first))
    return values[where]


def _csv_values(texts):
    return [complex(text.strip().replace(" ", "")) for text in texts]


def read_matrix_csv(path):
    """The matrix in a CSV file, parsed a block of rows at a time into one array.

    Every cell is parsed before ragged rows are reported, so a bad cell's message
    comes first, then ragged rows, then a non-finite entry.
    """
    with bad_input(f"cannot read matrix CSV {path}"):
        lines = [ln for ln in read_text(path).splitlines() if ln.strip()]
        cols = lines[0].count(",") + 1 if lines else 1
        ragged = not lines or any(ln.count(",") != cols - 1 for ln in lines)
        a = np.empty((0 if ragged else len(lines), cols), dtype=complex)
        step = _rows_per_block(cols)
        for i in range(0, len(lines), step):
            values = _parse_cells(",".join(lines[i:i + step]).split(","), _csv_values)
            if not ragged:
                a[i:i + step] = values.reshape(-1, cols)
    if ragged:
        raise ParseError(f"ragged or empty matrix CSV {path}")
    if not np.all(np.isfinite(a)):
        raise ParseError(f"cannot read matrix CSV {path}: non-finite entry")
    return a


def matrix_to_json_text(a):
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    return _matrix_text(a, lambda v: f"[{fmt_real(v.real)},{fmt_real(v.imag)}]", ",", ",",
                        f'{{"rows":{a.shape[0]},"cols":{a.shape[1]},"data":[', "]}\n")


def write_matrix_json(a, path):
    atomic_write_text(path, matrix_to_json_text(a))


# the exact head and tail of matrix_to_json_text's output
_JSON_HEAD = re.compile(r'\{"rows":([1-9][0-9]*),"cols":([1-9][0-9]*),"data":\[\[')
_JSON_TAIL = "]]}\n"
# the fast JSON read takes the data a window of about this many characters at a time
_WINDOW_CHARS = 1 << 16
# the characters of JSON numbers, NaN, Infinity and "],[": no string, object, true,
# false or null can be spelt from them, so text of only these parses to numbers in lists
_NUMERIC = re.compile(r"[-+.0-9eE\[\],NaIfinty]*")


def _json_values(tokens):
    """complex(re, im) of each "re,im" token text, in one parse of all of them."""
    text = "[[" + "],[".join(tokens) + "]]"
    pairs = np.array(parse_json(text), dtype=float) if _NUMERIC.fullmatch(text) else None
    if pairs is None or pairs.shape != (len(tokens), 2):
        raise ValueError("not one [re,im] pair of numbers per token")
    return pairs.view(complex).ravel()  # the same two doubles complex(re, im) holds


def _writer_layout_entries(text):
    """(rows, cols, flat entries) of text laid out exactly as matrix_to_json_text writes
    it; None for any other text, which the general reader then reads or refuses.

    The data is read a window at a time: each window ends at the last "],[" within
    _WINDOW_CHARS characters of its start, and each distinct [re,im] token in it is
    parsed once.
    """
    head = _JSON_HEAD.match(text)
    if head is None or not text.endswith(_JSON_TAIL):
        return None
    rows, cols = int(head[1]), int(head[2])
    start, stop = head.end(), len(text) - len(_JSON_TAIL)
    # a cell takes at least three characters ("1,2") and a "],[" before the next one
    if rows * cols > (stop - start + 3) // 6:
        return None
    flat = np.empty(rows * cols, dtype=complex)
    done = 0
    while start <= stop:
        cut = stop
        if stop - start > _WINDOW_CHARS:
            cut = text.rfind("],[", start, start + _WINDOW_CHARS)
            if cut < 0:  # a cell longer than a window
                return None
        cells = text[start:cut].split("],[")
        if done + len(cells) > len(flat):
            return None
        try:
            flat[done:done + len(cells)] = _parse_cells(cells, _json_values)
        except (ValueError, OverflowError):
            return None
        done += len(cells)
        start = cut + 3
    return (rows, cols, flat) if done == len(flat) else None


def _general_entries(text):
    """(rows, cols, flat entries) of any matrix JSON text, through one full parse."""
    obj = parse_json(text)
    rows, cols = obj["rows"], obj["cols"]
    if not all(type(v) is int and v > 0 for v in (rows, cols)):
        raise ValueError(f"rows and cols must be positive integers, got {rows!r}, {cols!r}")
    return rows, cols, np.fromiter((complex(re, im) for re, im in obj["data"]), dtype=complex)


def read_matrix_json(path):
    with bad_input(f"cannot read matrix JSON {path}"):
        text = read_text(path)
        rows, cols, flat = _writer_layout_entries(text) or _general_entries(text)
        if not np.all(np.isfinite(flat)):
            raise ValueError("non-finite entry")
    if len(flat) != rows * cols:
        raise ParseError(f"matrix JSON {path} has {len(flat)} entries, expected {rows * cols}")
    return flat.reshape(rows, cols)
