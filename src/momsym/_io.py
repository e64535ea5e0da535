"""Small file-output helpers: atomic writes and stable number formatting."""

import os


def atomic_write_text(path, text):
    """Write text to path via a temp file + rename so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    fh = open(tmp, "x")  # O_EXCL; mode 0o666 & ~umask, as open(path, "w") gives
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def fmt_real(x):
    """Shortest round-trip decimal form of a float."""
    return repr(float(x))


def fmt_complex(z):
    z = complex(z)
    return f"{fmt_real(z.real)}{'+' if z.imag >= 0 else '-'}{fmt_real(abs(z.imag))}j"
