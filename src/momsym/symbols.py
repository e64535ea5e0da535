"""Generating functions as finite Laurent series, and size-dependent momentary symbols.

A LaurentSymbol stores the finitely many Fourier coefficients of a d-variate,
s x r matrix-valued trigonometric polynomial.  A MomentarySymbol is a finite
sum of (scaling, symbol) terms; the scalings are evaluated at a concrete
matrix size, so one object can be sampled consistently at every truncation
level.  The module also provides quadrature-based coefficient recovery,
tridiagonal symmetrization and the block reinterpretation that turns a
univariate symbol into an equivalent block-valued one.
"""

import json
import math
import numbers
from functools import reduce

import numpy as np

from ._io import bad_input, parse_json, read_text
from .errors import NumericError

PRUNE_TOL = 1e-13


def _as_key(k, d=None):
    if np.isscalar(k):
        key = (int(k),)
    else:
        key = tuple(int(v) for v in k)
    if d is not None and len(key) != d:
        raise ValueError(f"multi-index {key} has arity {len(key)}, expected {d}")
    return key


def _number(x, what):
    """x when it is a real number; ValueError for anything else, bools included."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValueError(f"{what} must be numbers, got {x!r}")
    return x


def _as_coeff(value):
    m = np.atleast_2d(np.asarray(value, dtype=complex))
    if m.ndim != 2:
        raise ValueError("coefficients must be scalars or 2-d matrices")
    return m


class LaurentSymbol:
    """A d-variate trigonometric polynomial with s x r matrix coefficients.

    coeffs maps multi-indices k to complex matrices; unmentioned indices are
    zero.  Exactly-zero coefficients are pruned on construction so structural
    equality is meaningful.  Instances are immutable.
    """

    def __init__(self, coeffs, d=None, s=None, r=None):
        items = {}
        for k, v in dict(coeffs).items():
            key = _as_key(k)
            m = _as_coeff(v)
            if d is None:
                d = len(key)
            if s is None:
                s, r = m.shape
            if len(key) != d:
                raise ValueError("inconsistent multi-index arity in coefficients")
            if m.shape != (s, r):
                raise ValueError(f"coefficient at {key} has shape {m.shape}, expected {(s, r)}")
            if np.count_nonzero(m):
                m = m.copy()
                m.flags.writeable = False
                items[key] = m
        if d is None or s is None:
            raise ValueError("empty symbol needs explicit d, s, r")
        self.d = int(d)
        self.s = int(s)
        self.r = int(r)
        self._coeffs = items

    @classmethod
    def zero(cls, d=1, s=1, r=1):
        return cls({}, d=d, s=s, r=r)

    @property
    def coeffs(self):
        return dict(self._coeffs)

    def coeff(self, k):
        """The coefficient at multi-index k (zero matrix if absent)."""
        key = _as_key(k, self.d)
        m = self._coeffs.get(key)
        if m is None:
            return np.zeros((self.s, self.r), dtype=complex)
        return m

    def support(self):
        return sorted(self._coeffs)

    def degree(self):
        """Max of |k_i| over the support, per variable."""
        if not self._coeffs:
            return (0,) * self.d
        ks = np.array(list(self._coeffs))
        return tuple(np.abs(ks).max(axis=0).tolist())

    def is_scalar(self):
        return self.s == 1 and self.r == 1

    def eval(self, theta):
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.shape != (self.d,):
            raise ValueError(f"theta must have {self.d} components")
        out = np.zeros((self.s, self.r), dtype=complex)
        for k, m in self._coeffs.items():
            out += m * np.exp(1j * float(np.dot(k, theta)))
        return out

    def sample(self, thetas):
        """Evaluate on many points at once; returns shape (npts, s, r), C-contiguous."""
        pts = np.asarray(thetas, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape[1] != self.d:
            raise ValueError(f"grid points must have {self.d} components")
        return self._sum_keys((pts.shape[0],), lambda k: np.exp(1j * (pts @ k)))

    def sample_grid(self, axes):
        """sample(_tensor_grid(axes)) with the same bits, one 1-D axis per variable.

        A key that moves along at most one variable gets its phase and coefficient
        product on that variable's axis alone (a constant key on a longest axis), and
        the products are broadcast into the sum; only a key that moves along two or
        more builds the point array, as its pts @ k keeps BLAS's rounding.  A length-1
        axis of a longer grid is repeated along a longest axis, so its products keep the
        grid's array arithmetic.  A grid of at most one point, whose lone value numpy
        rounds as scalar arithmetic, and one holding a non-finite value, whose
        theta * 0 is NaN, go through the point array.
        """
        axes = [np.asarray(ax, dtype=float).ravel() for ax in axes]
        if len(axes) != self.d:
            raise ValueError(f"grid points must have {self.d} components")
        shape = tuple(map(len, axes))
        if math.prod(shape) <= 1 or not all(np.isfinite(ax).all() for ax in axes):
            return self.sample(_tensor_grid(axes))
        longest = int(np.argmax(shape))
        pts = None

        def phase(k):
            nonlocal pts
            moves = np.flatnonzero(k)
            if len(moves) > 1:
                pts = _tensor_grid(axes) if pts is None else pts
                return np.exp(1j * (pts @ k)).reshape(shape)
            i = moves[0] if len(moves) else longest
            p = np.exp(1j * (axes[i] * k[i]))
            if len(p) == 1:
                p, i = np.repeat(p, shape[longest]), longest
            return p.reshape([-1 if j == i else 1 for j in range(self.d)])

        return self._sum_keys(shape, phase)

    def _sum_keys(self, shape, phase):
        """The (prod(shape), s, r) samples of sum_k phase(k) * m_k, C-contiguous, where
        phase(k) of the float key broadcasts to shape.

        Each coefficient entry is added into its own contiguous block of points, in key
        order from +0 zeros, with the bits of out += phase[:, None, None] * m.
        """
        out = np.zeros((self.s, self.r, *shape), dtype=complex)
        for k, m in self._coeffs.items():
            p = phase(np.asarray(k, dtype=float))
            if out.size == 1:
                # numpy rounds a product with a one-element result as scalar arithmetic
                # does, and one-element rows of a longer product in SIMD, which can
                # round differently (a fused multiply-add); a lone value keeps the former
                out += p * m
                continue
            term = np.empty_like(p)
            for a, b in np.ndindex(self.s, self.r):
                np.multiply(p, m[a, b], out=term)
                out[a, b] += term
        return np.ascontiguousarray(out.reshape(self.s, self.r, -1).transpose(2, 0, 1))

    def __call__(self, theta):
        v = self.eval(theta)
        return complex(v[0, 0]) if self.is_scalar() else v

    def _same_shape(self, other):
        return (self.d, self.s, self.r) == (other.d, other.s, other.r)

    def __add__(self, other):
        if not isinstance(other, LaurentSymbol):
            return NotImplemented
        if not self._same_shape(other):
            raise ValueError("symbol_add needs identical (d, s, r)")
        coeffs = {k: np.array(m) for k, m in self._coeffs.items()}
        for k, m in other._coeffs.items():
            coeffs[k] = coeffs.get(k, 0) + m
        return LaurentSymbol(coeffs, d=self.d, s=self.s, r=self.r)

    def __neg__(self):
        return self.scale(-1.0)

    def __sub__(self, other):
        if not isinstance(other, LaurentSymbol):
            return NotImplemented
        return self + (-other)

    def scale(self, alpha):
        return LaurentSymbol({k: alpha * m for k, m in self._coeffs.items()},
                             d=self.d, s=self.s, r=self.r)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        if not isinstance(other, LaurentSymbol):
            return NotImplemented
        if self.d != other.d or self.r != other.s:
            raise ValueError("symbol_mul needs equal d and inner dimensions r == s")
        coeffs = {}
        for ka, ma in self._coeffs.items():
            for kb, mb in other._coeffs.items():
                key = tuple(a + b for a, b in zip(ka, kb))
                coeffs[key] = coeffs.get(key, 0) + ma @ mb
        return LaurentSymbol(coeffs, d=self.d, s=self.s, r=other.r)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    def hermitian(self):
        """The symbol whose evaluation is the conjugate transpose of this one's."""
        coeffs = {tuple(-v for v in k): m.conj().T for k, m in self._coeffs.items()}
        return LaurentSymbol(coeffs, d=self.d, s=self.r, r=self.s)

    def __eq__(self, other):
        if not isinstance(other, LaurentSymbol):
            return NotImplemented
        if not self._same_shape(other) or set(self._coeffs) != set(other._coeffs):
            return False
        return all(np.array_equal(m, other._coeffs[k]) for k, m in self._coeffs.items())

    def allclose(self, other, tol=1e-12):
        if not self._same_shape(other):
            return False
        keys = set(self._coeffs) | set(other._coeffs)
        return all(np.abs(self.coeff(k) - other.coeff(k)).max() <= tol for k in keys)

    def to_json(self):
        entries = []
        for k in sorted(self._coeffs):
            m = self._coeffs[k]
            entries.append({"k": list(k),
                            "m": [[[v.real, v.imag] for v in row] for row in m]})
        return {"d": self.d, "s": self.s, "r": self.r, "coeffs": entries}

    @classmethod
    def from_json(cls, obj):
        with bad_input("bad symbol JSON"):
            d, s, r = obj["d"], obj["s"], obj["r"]
            if not all(type(v) is int for v in (d, s, r)):
                raise ValueError(f"d, s and r must be integers, got {d!r}, {s!r}, {r!r}")
            if min(d, s, r) < 1:
                raise ValueError("d, s and r must be positive")
            coeffs = {}
            for entry in obj["coeffs"]:
                key = tuple(entry["k"])
                if not all(type(v) is int for v in key) or key in coeffs:
                    raise ValueError(f"each k must be new and hold integers, got {entry['k']!r}")
                coeffs[key] = np.array([[complex(_number(re, "coefficient entries"),
                                                 _number(im, "coefficient entries"))
                                         for re, im in row] for row in entry["m"]])
            if not all(np.all(np.isfinite(m)) for m in coeffs.values()):
                raise ValueError("non-finite coefficient")
            return cls(coeffs, d=d, s=s, r=r)


def evaluate_symbol(f, theta):
    """Value of f at the angle vector theta, as an s x r complex matrix."""
    return f.eval(theta)


def symbol_add(a, b):
    return a + b


def symbol_mul(a, b):
    return a * b


def symbol_hermitian(a):
    return a.hermitian()


def _normalize_k_range(k_range):
    boxes = []
    for entry in [k_range] if np.isscalar(k_range) else k_range:
        lo, hi = (int(entry[0]), int(entry[1])) if not np.isscalar(entry) else (-int(entry), int(entry))
        if lo > hi:
            raise ValueError("empty coefficient range")
        boxes.append((lo, hi))
    if not boxes:
        raise ValueError(f"k_range {k_range!r} names no coefficient range")
    return boxes


def _tensor_grid(axes):
    """(npts, d) points of the tensor grid over per-variable axes, first variable slowest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def fourier_coefficients(f_callable, k_range, quad_points_per_dim=None):
    """Recover Fourier coefficients of a periodic callable by quadrature.

    The trapezoid rule on the equispaced periodic grid is used, which is exact
    for trigonometric polynomials resolved by the grid.  k_range is either a
    single bound K (box |k_i| <= K in every variable) or a list of (lo, hi)
    pairs, one per variable.  The grid has quad_points_per_dim points per
    variable, by default 2K + 2 (the fewest that resolve |k| <= K), and
    f_callable is called once per point.  Coefficients with max modulus
    below 1e-13 are pruned.
    """
    boxes = _normalize_k_range(k_range)
    d = len(boxes)
    kmax = max(max(abs(lo), abs(hi)) for lo, hi in boxes)
    min_pts = 2 * kmax + 2
    pts = min_pts if quad_points_per_dim is None else int(quad_points_per_dim)
    if pts < min_pts:
        raise ValueError(f"{pts} quadrature points cannot resolve |k| <= {kmax}; need >= {min_pts}")

    grid = _tensor_grid([np.arange(pts) * (2 * np.pi / pts)] * d)
    values = np.stack([_as_coeff(f_callable(th) if d > 1 else f_callable(th[0])) for th in grid])
    s, r = values.shape[1:]
    if not np.all(np.isfinite(values)):
        raise NumericError("callable returned non-finite values on the quadrature grid")

    coeffs = {}
    for key in np.ndindex(*[hi - lo + 1 for lo, hi in boxes]):
        k = tuple(int(key[i] + boxes[i][0]) for i in range(d))
        phase = np.exp(-1j * (grid @ np.asarray(k, dtype=float)))
        m = (phase[:, None, None] * values).mean(axis=0)
        if np.abs(m).max() >= PRUNE_TOL:
            coeffs[k] = m
    return LaurentSymbol(coeffs, d=d, s=s, r=r)


_TAG_CODE = {"constant": 0, "decaying": -1, "diverging": 1}
# the JSON keys each form takes besides "form"; no JSON key reaches _factors
_FORM_KEYS = {"one": (), "inverse_power": ("p", "base"), "ratio_N_over_n2": (),
              "table": ("values", "class_tag"), "product": ("factors",)}


def _size_text(size):
    """The JSON key of a scaling-table size: its indices joined by commas."""
    return ",".join(map(str, size))


def _size_key(text):
    """The size a scaling-table key names; only its _size_text is accepted.

    So "07" or " 7" cannot stand for 7, and no two keys name one size.
    """
    size = tuple(map(int, text.split(",")))
    if _size_text(size) != text:
        raise ValueError(f"table key {text!r} is not written as {_size_text(size)!r}")
    return size


def _size_label(size):
    """f"{size}", but an index past Python's int-to-str digit limit is named by its digit
    count, as converting it would raise ValueError."""
    try:
        return f"{size}"
    except ValueError:
        labels = [_index_label(v) for v in _as_key(size)]
        return f"({', '.join(labels)}{',' if len(labels) == 1 else ''})"


def _index_label(v):
    """str(v), or for an integer too long for str, its digit count."""
    try:
        return str(v)
    except ValueError:
        n, digits = abs(v), max(1, int((abs(v).bit_length() - 1) * math.log10(2)))
        while n >= 10 ** digits:  # the estimate is one short, or exact
            digits += 1
        return f"{'-' if v < 0 else ''}<integer of {digits} digits>"


def _exact_inverse_power(den, p):
    """den ** -p for integers, rounded once; OverflowError past the float range.

    A power that surely lies past 2**1100 is not computed, so a huge p costs nothing:
    its inverse rounds to a signed zero, or it overflows itself.
    """
    if (abs(den).bit_length() - 1) * abs(p) > 1100:
        if p < 0:
            raise OverflowError("an inverse power past the float range")
        return -0.0 if den < 0 and p % 2 else 0.0
    return 1 / den ** p if p > 0 else float(den ** -p)


class CoefficientScaling:
    """A size-dependent scalar weight g(n) with a limit-class tag.

    Supported forms: the constant 1, inverse powers (1/n)^p or (1/(n+1))^p
    with integer p (negative p gives a diverging weight), the two-index ratio
    N/n^2, and explicit tables keyed by size.  Products of unlike forms are
    lazy tables serialising as their factors; equal JSON is equal scalings.
    """

    FORMS = ("one", "inverse_power", "ratio_N_over_n2", "table")

    def __init__(self, form, p=None, base=None, values=None, class_tag=None, _factors=None):
        if form not in self.FORMS:
            raise ValueError(f"unknown scaling form {form!r}")
        if form == "inverse_power" and (isinstance(p, bool) or not isinstance(p, (int, np.integer))):
            raise ValueError(f"inverse_power p must be an integer, got {p!r}")
        if class_tag is not None and class_tag not in _TAG_CODE:
            raise ValueError(f"unknown class_tag {class_tag!r}")
        self.form = form
        self.p = None if p is None else int(p)
        self.base = base
        self.values = {}
        self._factors = tuple(_factors) if _factors else None
        # (summed inverse-power exponent, summed ratio and table tag codes)
        if self._factors:
            (pa, ca), (pb, cb) = (g._limit for g in self._factors)
            self._limit = (pa + pb, ca + cb)
        elif form == "inverse_power":
            if base not in ("n", "n+1"):
                raise ValueError("inverse_power base must be 'n' or 'n+1'")
            self._limit = (self.p, 0)
        elif form == "table":
            if not isinstance(values, dict):
                raise ValueError("table values must map sizes to numbers")
            self.values = {_as_key(k): float(_number(v, "table values"))
                           for k, v in values.items()}
            if not np.all(np.isfinite(list(self.values.values()))):
                raise ValueError("table values must be finite")
            self._limit = (0, _TAG_CODE[class_tag or "decaying"])
        else:
            self._limit = (0, -1 if form == "ratio_N_over_n2" else 0)
        exponent, code = self._limit
        code += (exponent < 0) - (exponent > 0)
        tag = "constant" if code == 0 else ("decaying" if code < 0 else "diverging")
        if class_tag is not None and class_tag != tag:
            raise ValueError(f"class_tag {class_tag!r} inconsistent with form")
        self.class_tag = tag

    @classmethod
    def one(cls):
        return cls("one")

    @classmethod
    def inverse_power(cls, p, base="n"):
        return cls("inverse_power", p=p, base=base)

    @classmethod
    def ratio_N_over_n2(cls):
        return cls("ratio_N_over_n2")

    @classmethod
    def table(cls, values, class_tag="decaying"):
        return cls("table", values=values, class_tag=class_tag)

    def _fold(self, leaf, product):
        """leaf(g) for each scaling g without factors, product(g, left, right) for each
        product, combined bottom-up with the left factor first.  An explicit stack
        walks the factor tree, so a product nested past Python's recursion limit folds
        like a shallow one."""
        done, todo = [], [(self, False)]
        while todo:
            g, ready = todo.pop()
            if g._factors is None:
                done.append(leaf(g))
            elif ready:
                right = done.pop()
                done.append(product(g, done.pop(), right))
            else:
                todo += [(g, True), (g._factors[1], False), (g._factors[0], False)]
        return done[0]

    def __call__(self, size):
        key = _as_key(size)

        def finite(g, value):
            if not np.isfinite(value):
                at = size if g is self else key  # factors are called with the key
                raise NumericError(f"scaling {g._json_text()} is not finite at size "
                                   f"{_size_label(at)}")
            return value

        def leaf(g):
            try:
                value = g._value(key)
            except (OverflowError, ZeroDivisionError):  # past the float range; a zero size
                value = np.inf
            return finite(g, value)

        return self._fold(leaf, lambda g, left, right: finite(g, left * right))

    def _value(self, size):
        if self.form == "one":
            return 1.0
        if self.form == "inverse_power":
            if len(size) != 1:
                raise ValueError("inverse_power scaling needs a single-index size")
            n = size[0]
            den = n if self.base == "n" else n + 1
            try:
                return float(den) ** (-self.p)
            except OverflowError:  # past the float range on the way, maybe not at the end
                return _exact_inverse_power(den, self.p)
        if self.form == "ratio_N_over_n2":
            if len(size) != 2:
                raise ValueError("ratio_N_over_n2 scaling needs a 2-index size (N, n)")
            N, n = size
            try:
                return N / float(n) ** 2
            except OverflowError:  # past the float range on the way, maybe not at the end
                return N / (n * n)
        if size not in self.values:
            raise ValueError(f"size {_size_label(size)} not present in scaling table")
        return self.values[size]

    def _json_text(self):
        """json.dumps(self.to_json(), sort_keys=True), product by product."""
        return self._fold(lambda g: json.dumps(g.to_json(), sort_keys=True),
                          lambda g, left, right:
                          f'{{"factors": [{left}, {right}], "form": "product"}}')

    def __eq__(self, other):
        if not isinstance(other, CoefficientScaling):
            return NotImplemented
        return self._json_text() == other._json_text()

    def __hash__(self):
        return hash(self._json_text())

    def multiply(self, other):
        """The pointwise product scaling g(n) = self(n) * other(n)."""
        if self.form == "one":
            return other
        if other.form == "one":
            return self
        if (self.form == other.form == "inverse_power") and self.base == other.base:
            p = self.p + other.p
            return CoefficientScaling.one() if p == 0 else CoefficientScaling.inverse_power(p, self.base)
        return CoefficientScaling("table", _factors=(self, other))

    def to_json(self):
        if self._factors is not None:
            return self._fold(CoefficientScaling.to_json, lambda g, left, right:
                              {"form": "product", "factors": [left, right]})
        if self.form == "inverse_power":
            return {"form": "inverse_power", "p": self.p, "base": self.base}
        if self.form == "table":
            return {"form": "table", "class_tag": self.class_tag,
                    "values": {_size_text(k): v for k, v in sorted(self.values.items())}}
        return {"form": self.form}

    @classmethod
    def from_json(cls, obj):
        """The scaling obj describes.  Each product reduces its factors through multiply;
        an explicit stack reads them, depth first and left to right, however deep they nest."""
        with bad_input("bad scaling JSON"):
            done, todo = [], [(obj, None)]  # (JSON, None) or (None, a product's factor count)
            while todo:
                obj, count = todo.pop()
                if count is not None:  # the product's factors are the last `count` done
                    factors = done[-count:]
                    del done[-count:]
                    done.append(reduce(cls.multiply, factors))
                    continue
                args = {**obj}
                form = args.pop("form")
                extra = sorted(set(args) - set(_FORM_KEYS.get(form, ())))
                if extra:
                    raise ValueError(f"form {form!r} takes no key {', '.join(map(repr, extra))}")
                if form == "product":
                    factors = list(args["factors"])
                    if not factors:
                        raise ValueError("a product needs at least one factor")
                    todo += [(None, len(factors)), *((g, None) for g in reversed(factors))]
                    continue
                if isinstance(args.get("values"), dict):
                    args["values"] = {_size_key(k): x for k, x in args["values"].items()}
                done.append(cls(form, **args))
            return done[0]


class MomentarySymbol:
    """A finite sum of (scaling, symbol) terms evaluated at (theta; size).

    Terms whose scaling class is constant make up the size-independent part;
    decaying and diverging terms carry the finite-size information that a
    plain asymptotic symbol discards.
    """

    def __init__(self, terms):
        terms = [(g, f) for g, f in terms]
        if not terms:
            raise ValueError("momentary symbol needs at least one term")
        shape = (terms[0][1].d, terms[0][1].s, terms[0][1].r)
        for g, f in terms:
            if (f.d, f.s, f.r) != shape:
                raise ValueError("all terms must share (d, s, r)")
            if not isinstance(g, CoefficientScaling):
                raise ValueError("term weights must be CoefficientScaling instances")
        kept = [(g, f) for g, f in terms if f.support()]
        if not kept:
            kept = [(CoefficientScaling.one(), LaurentSymbol.zero(*shape))]
        self.terms = tuple(kept)
        self.d, self.s, self.r = shape

    @classmethod
    def constant(cls, symbol):
        return cls([(CoefficientScaling.one(), symbol)])

    def eval(self, theta, size):
        out = np.zeros((self.s, self.r), dtype=complex)
        for g, f in self.terms:
            out += g(size) * f.eval(theta)
        return out

    def sample(self, thetas, size):
        pts = np.asarray(thetas, dtype=float)
        return self._sum_terms(size, lambda f: f.sample(pts))

    def sample_grid(self, axes, size):
        """sample(_tensor_grid(axes), size) with the same bits (LaurentSymbol.sample_grid)."""
        return self._sum_terms(size, lambda f: f.sample_grid(axes))

    def _sum_terms(self, size, sample):
        """sum of g(size) * sample(f) over the terms, added in order into +0 zeros."""
        out = None
        for g, f in self.terms:
            term = g(size) * sample(f)
            out = np.zeros_like(term) if out is None else out
            out += term
        return out

    def fixed_size(self, size):
        """The plain symbol obtained by freezing all scalings at one size."""
        total = LaurentSymbol.zero(self.d, self.s, self.r)
        for g, f in self.terms:
            total = total + f.scale(g(size))
        return total

    def _merged(self, pairs):
        bucket = {}
        for g, f in pairs:
            bucket[g] = bucket[g] + f if g in bucket else f
        return MomentarySymbol(list(bucket.items()))

    def __add__(self, other):
        if isinstance(other, LaurentSymbol):
            other = MomentarySymbol.constant(other)
        if not isinstance(other, MomentarySymbol):
            return NotImplemented
        return self._merged(list(self.terms) + list(other.terms))

    def __mul__(self, other):
        if isinstance(other, LaurentSymbol):
            other = MomentarySymbol.constant(other)
        if not isinstance(other, MomentarySymbol):
            return NotImplemented
        pairs = [(ga.multiply(gb), fa * fb)
                 for ga, fa in self.terms for gb, fb in other.terms]
        return self._merged(pairs)

    def hermitian(self):
        return MomentarySymbol([(g, f.hermitian()) for g, f in self.terms])

    @property
    def has_diverging(self):
        return any(g.class_tag == "diverging" for g, _ in self.terms)

    def glt_symbol(self):
        """Sum of the constant-class terms: the asymptotic symbol of the sequence.

        Decaying terms vanish in the limit; a diverging term means the
        sequence has no asymptotic symbol without renormalization (check
        has_diverging before trusting the result).
        """
        total = LaurentSymbol.zero(self.d, self.s, self.r)
        for g, f in self.terms:
            if g.class_tag == "constant":
                total = total + f
        return total

    def to_json(self):
        return {"terms": [{"scaling": g.to_json(), "symbol": f.to_json()}
                          for g, f in self.terms]}

    @classmethod
    def from_json(cls, obj):
        with bad_input("bad momentary symbol JSON"):
            return cls([(CoefficientScaling.from_json(t["scaling"]),
                         LaurentSymbol.from_json(t["symbol"])) for t in obj["terms"]])


def momentary_evaluate(m, theta, size):
    return m.eval(theta, size)


def momentary_add(a, b):
    return a + b


def momentary_mul(a, b):
    return a * b


def _tridiagonal_coeffs(f, real_symmetric=False):
    """(f0, f1, f-1) of a scalar univariate symbol supported on {-1, 0, 1}.

    With real_symmetric, also require f1 == f-1 and real f0, f1 to within
    1e-13 * max(1, |f0|, |f1|), and return the real pair (f0, f1).
    """
    if f.d != 1 or not f.is_scalar():
        raise ValueError("tridiagonal symbol must be scalar and univariate")
    if any(abs(k[0]) > 1 for k in f.support()):
        raise ValueError("tridiagonal symbol needs support within {-1, 0, 1}")
    f0, f1, fm1 = (complex(f.coeff(k)[0, 0]) for k in (0, 1, -1))
    if not real_symmetric:
        return f0, f1, fm1
    scale = max(1.0, abs(f0), abs(f1))
    if abs(f1 - fm1) > 1e-13 * scale:
        raise ValueError("tridiagonal symbol needs equal off-diagonal coefficients")
    if max(abs(f0.imag), abs(f1.imag)) > 1e-13 * scale:
        raise ValueError("tridiagonal symbol needs real coefficients")
    return f0.real, f1.real


def symmetrize_tridiagonal(f):
    """Replace off-diagonal coefficients by the geometric mean sqrt(f1)sqrt(f-1).

    Works on scalar univariate symbols supported on {-1, 0, 1}; the result
    generates matrices similar to the originals (same eigenvalues) whenever
    the off-diagonal product is positive or one factor vanishes.  Principal
    square-root branches are used.  A MomentarySymbol is handled termwise.
    """
    if isinstance(f, MomentarySymbol):
        return MomentarySymbol([(g, symmetrize_tridiagonal(t)) for g, t in f.terms])
    f0, f1, fm1 = _tridiagonal_coeffs(f)
    prod = f1 * fm1
    if f1 != 0 and fm1 != 0:
        if abs(prod.imag) > 1e-14 * abs(prod) or prod.real < 0:
            raise ValueError("off-diagonal product must be real nonnegative")
    off = np.sqrt(f1) * np.sqrt(fm1)
    return LaurentSymbol({0: f0, 1: off, -1: off}, d=1, s=1, r=1)


def block_reinterpret(f, s_block):
    """The block symbol f^[s] with T_{n*s}(f) = T_n(f^[s]) for every n.

    Coefficient l of the result is the block matrix whose (a, b) block is the
    original coefficient at l*s_block + a - b, a, b in 1..s_block.
    """
    sb = int(s_block)
    if sb < 1:
        raise ValueError("block size must be positive")
    if f.d != 1:
        raise ValueError("block reinterpretation is defined for univariate symbols")
    ells = set()
    for (k,) in f.support():
        for delta in range(-(sb - 1), sb):
            if (k - delta) % sb == 0:
                ells.add((k - delta) // sb)
    coeffs = {}
    for ell in ells:
        blocks = [[f.coeff(ell * sb + (a + 1) - (b + 1)) for b in range(sb)]
                  for a in range(sb)]
        coeffs[ell] = np.block(blocks)
    return LaurentSymbol(coeffs, d=1, s=f.s * sb, r=f.r * sb)


def load_symbol(path):
    """Read a LaurentSymbol from a JSON file."""
    with bad_input(f"cannot read symbol file {path}"):
        return LaurentSymbol.from_json(parse_json(read_text(path)))


def parse_scaling(text):
    """Parse a CoefficientScaling from inline JSON text or a JSON file path."""
    text = text.strip()
    if not text.startswith("{"):
        with bad_input(f"cannot read scaling file {text!r}"):
            text = read_text(text)
    with bad_input("bad scaling JSON"):
        return CoefficientScaling.from_json(parse_json(text))
