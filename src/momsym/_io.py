"""Small file helpers: the one input boundary, atomic writes and stable number formatting."""

import contextlib
import json
import math
import os

from .errors import ParseError


def read_text(path):
    """The whole file at path, decoded as UTF-8."""
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def parse_json(text):
    """json.loads that refuses repeated keys; nesting past the parser's depth is a ValueError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


@contextlib.contextmanager
def bad_input(prefix):
    """Re-raise what bad input raises as ParseError(f"{prefix}: {exc}"); a ParseError passes."""
    try:
        yield
    except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"{prefix}: {exc}") from exc


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


def _unique_keys(pairs):
    """json object_pairs_hook: the object as a dict; ValueError on a repeated key."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj
