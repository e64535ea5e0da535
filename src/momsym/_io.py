"""Small file helpers: atomic writes, stable number formatting and strict JSON objects."""

import math
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
    """re+imj, signed by the sign bit of the imaginary part (so -0.0 too); NaN gives -nanj."""
    z = complex(z)
    sign = "-" if math.isnan(z.imag) or math.copysign(1, z.imag) < 0 else "+"
    return f"{fmt_real(z.real)}{sign}{fmt_real(abs(z.imag))}j"


def unique_keys(pairs):
    """json object_pairs_hook: the object as a dict; ValueError on a repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj
