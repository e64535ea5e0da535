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
from functools import reduce

import numpy as np

from .errors import NumericError, ParseError

PRUNE_TOL = 1e-13


def _as_key(k, d=None):
    if np.isscalar(k):
        key = (int(k),)
    else:
        key = tuple(int(v) for v in k)
    if d is not None and len(key) != d:
        raise ValueError(f"multi-index {key} has arity {len(key)}, expected {d}")
    return key


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
        """Evaluate on many points at once; returns shape (npts, s, r)."""
        pts = np.asarray(thetas, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape[1] != self.d:
            raise ValueError(f"grid points must have {self.d} components")
        out = np.zeros((pts.shape[0], self.s, self.r), dtype=complex)
        for k, m in self._coeffs.items():
            phase = np.exp(1j * (pts @ np.asarray(k, dtype=float)))
            out += phase[:, None, None] * m
        return out

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
        try:
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
                coeffs[key] = np.array([[complex(re, im) for re, im in row] for row in entry["m"]])
            if not all(np.all(np.isfinite(m)) for m in coeffs.values()):
                raise ValueError("non-finite coefficient")
            return cls(coeffs, d=d, s=s, r=r)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"bad symbol JSON: {exc}") from exc


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
    if np.isscalar(k_range):
        return [(-int(k_range), int(k_range))]
    boxes = []
    for entry in k_range:
        lo, hi = (int(entry[0]), int(entry[1])) if not np.isscalar(entry) else (-int(entry), int(entry))
        if lo > hi:
            raise ValueError("empty coefficient range")
        boxes.append((lo, hi))
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
            self.values = {_as_key(k): float(v) for k, v in values.items()}
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

    def __call__(self, size):
        try:
            if np.isfinite(value := self._value(_as_key(size))):
                return value
        except OverflowError:  # a float power past the float range
            pass
        raise NumericError(f"scaling {self._json_text()} is not finite at size {size}")

    def _value(self, size):
        if self.form == "one":
            return 1.0
        if self.form == "inverse_power":
            if len(size) != 1:
                raise ValueError("inverse_power scaling needs a single-index size")
            n = size[0]
            den = n if self.base == "n" else n + 1
            return float(den) ** (-self.p)
        if self.form == "ratio_N_over_n2":
            if len(size) != 2:
                raise ValueError("ratio_N_over_n2 scaling needs a 2-index size (N, n)")
            N, n = size
            return N / float(n) ** 2
        if self._factors:
            return self._factors[0](size) * self._factors[1](size)
        if size not in self.values:
            raise ValueError(f"size {size} not present in scaling table")
        return self.values[size]

    def _json_text(self):
        return json.dumps(self.to_json(), sort_keys=True)

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
        if self.form == "inverse_power":
            return {"form": "inverse_power", "p": self.p, "base": self.base}
        if self._factors is not None:
            return {"form": "product", "factors": [g.to_json() for g in self._factors]}
        if self.form == "table":
            return {"form": "table", "class_tag": self.class_tag,
                    "values": {",".join(map(str, k)): v for k, v in sorted(self.values.items())}}
        return {"form": self.form}

    @classmethod
    def from_json(cls, obj):
        try:
            args = {**obj}
            form = args.pop("form")
            extra = sorted(set(args) - set(_FORM_KEYS.get(form, ())))
            if extra:
                raise ValueError(f"form {form!r} takes no key {', '.join(map(repr, extra))}")
            if form == "product":
                factors = [cls.from_json(g) for g in args["factors"]]
                if not factors:
                    raise ValueError("a product needs at least one factor")
                return reduce(cls.multiply, factors)
            if isinstance(args.get("values"), dict):
                args["values"] = {tuple(map(int, k.split(","))): x for k, x in args["values"].items()}
            return cls(form, **args)
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"bad scaling JSON: {exc}") from exc


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
        npts = pts.shape[0]
        out = np.zeros((npts, self.s, self.r), dtype=complex)
        for g, f in self.terms:
            out += g(size) * f.sample(pts)
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
        try:
            return cls([(CoefficientScaling.from_json(t["scaling"]),
                         LaurentSymbol.from_json(t["symbol"])) for t in obj["terms"]])
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad momentary symbol JSON: {exc}") from exc


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
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read symbol file {path}: {exc}") from exc
    return LaurentSymbol.from_json(obj)


def parse_scaling(text):
    """Parse a CoefficientScaling from inline JSON text or a JSON file path."""
    text = text.strip()
    if not text.startswith("{"):
        try:
            with open(text) as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read scaling file {text!r}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad scaling JSON: {exc}") from exc
    return CoefficientScaling.from_json(obj)
