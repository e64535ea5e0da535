"""Sampling grids and transform matrices for the tau and circulant algebras.

Each (eps, phi) corner-correction pair has its own exact eigenvalue grid of
the form theta_j = (j + a) * pi / (n + b), j = 1..n, together with a real
orthogonal sine-type transform Q that diagonalizes the corresponding
tridiagonal-plus-corners matrix.  Circulants get the equispaced grid
(j - 1) * 2*pi / n, the unitary Fourier matrix, and a real orthogonal
alternative valid for the symmetric case.
"""

import math

import numpy as np

from .errors import ParseError
from .matrices import _tridiagonal_band, circulant, tau_matrix, toeplitz
from .spectra import _eig_hermitian_band, _refuse_general_order, eig_general_small

# (eps, phi) -> (a, b): grid theta_j = (j + a) pi / (n + b), denominator h = 1/(n+b)
_TAU_PARAMS = {
    (-1, -1): (0.0, 0.0),
    (-1, 0): (0.0, 0.5),
    (-1, 1): (-0.5, 0.0),
    (0, -1): (0.0, 0.5),
    (0, 0): (0.0, 1.0),
    (0, 1): (-0.5, 0.5),
    (1, -1): (-0.5, 0.0),
    (1, 0): (-0.5, 0.5),
    (1, 1): (-1.0, 0.0),
}


def _check_pair(eps, phi):
    for key in _TAU_PARAMS:
        if key == (eps, phi):
            return key
    raise ValueError(f"unsupported corner pair ({eps}, {phi}); both must be -1, 0 or 1")


def tau_eigen_grid(eps, phi, n):
    """Exact eigenvalue angles for tau_matrix(f, eps, phi, n), ascending, j=1..n."""
    a, b = _TAU_PARAMS[_check_pair(eps, phi)]
    n = int(n)
    if n < 1:
        raise ValueError("grid length must be positive")
    j = np.arange(1, n + 1, dtype=float)
    return (j + a) * math.pi / (n + b)


def tau_eigvec_matrix(eps, phi, n):
    """Real orthogonal Q with columns eigenvectors of tau_matrix(., eps, phi, n).

    Entries sqrt(2h) sin(Theta_ij) with h = 1/(n+b); the row angle pattern
    depends only on eps.  The boundary column whose raw entries have doubled
    norm (last for (-1,-1), first for (1,1)) is scaled by 1/sqrt(2).
    """
    key = _check_pair(eps, phi)
    _, b = _TAU_PARAMS[key]
    theta = tau_eigen_grid(eps, phi, n)
    n = theta.size
    i = np.arange(1, n + 1, dtype=float)[:, None]
    if key[0] == -1:
        big = (i - 0.5) * theta[None, :]
    elif key[0] == 0:
        big = i * theta[None, :]
    else:
        big = (i - 0.5) * theta[None, :] + math.pi / 2
    h = 1.0 / (n + b)
    q = math.sqrt(2.0 * h) * np.sin(big)
    if key == (-1, -1):
        q[:, -1] /= math.sqrt(2.0)
    elif key == (1, 1):
        q[:, 0] /= math.sqrt(2.0)
    return q


def uniform_open_grid(n):
    """n equispaced angles j pi/(n+1) strictly inside (0, pi)."""
    return tau_eigen_grid(0, 0, n)


def circulant_grid(n):
    """Angles (j-1) 2 pi / n, j=1..n."""
    n = int(n)
    if n < 1:
        raise ValueError("grid length must be positive")
    return np.arange(n, dtype=float) * 2.0 * math.pi / n


def fourier_matrix(n):
    """Unitary F with F[i,j] = exp(1i (i-1) theta_j) / sqrt(n); diagonalizes circulants."""
    theta = circulant_grid(n)
    n = theta.size
    i = np.arange(n)[:, None]
    return np.exp(1j * i * theta[None, :]) / math.sqrt(n)


def circulant_real_transform(n):
    """Real orthogonal Q diagonalizing real symmetric circulants of order n.

    Entries sqrt(2/n) sin(Theta_ij) where the first floor((n+2)/2) columns get
    a pi/2 phase shift; columns 1 and n/2+1 (the latter only for even n) are
    scaled by 1/sqrt(2).
    """
    theta = circulant_grid(n)
    n = theta.size
    i = np.arange(1, n + 1, dtype=float)[:, None]
    big = i * theta[None, :]
    ncos = (n + 2) // 2
    big[:, :ncos] += math.pi / 2
    q = math.sqrt(2.0 / n) * np.sin(big)
    q[:, 0] /= math.sqrt(2.0)
    if n % 2 == 0:
        q[:, n // 2] /= math.sqrt(2.0)
    return q


# family -> (grid, builder) for the families without corner weights
_FAMILIES = {"circulant": (circulant_grid, circulant),
             "uniform-open": (uniform_open_grid, toeplitz)}


class GridSpec:
    """A matrix algebra: its exact grid, matrix builder and exact spectrum, for any order n.

    Families: "tau" (with corner weights eps, phi; tau_matrix), "circulant"
    (circulant) and "uniform-open" (the plain Toeplitz T_n(f)).
    """

    def __init__(self, family, eps=None, phi=None):
        family = str(family)
        if family == "tau":
            self.eps, self.phi = _check_pair(eps, phi)
        elif family in _FAMILIES:
            if (eps, phi) != (None, None):
                raise ValueError(f"grid family {family!r} takes no corner weights")
            self.eps = self.phi = None
        else:
            raise ValueError(f"unknown grid family {family!r}")
        self.family = family

    @classmethod
    def tau(cls, eps, phi):
        return cls("tau", eps, phi)

    @classmethod
    def parse(cls, text):
        """Parse a CLI grid name: "tau:EPS,PHI", "circulant" or "uniform-open"."""
        text = str(text).strip()
        if text in _FAMILIES:
            return cls(text)
        if text.startswith("tau:"):
            parts = text[4:].split(",")
            if len(parts) != 2:
                raise ParseError(f"bad tau grid name {text!r}; expected tau:EPS,PHI")
            try:
                eps, phi = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ParseError(f"bad tau grid name {text!r}: {exc}") from exc
            try:
                return cls("tau", eps, phi)
            except ValueError as exc:
                raise ParseError(str(exc)) from exc
        raise ParseError(f"unknown grid name {text!r}")

    def name(self):
        if self.family == "tau":
            return f"tau:{self.eps},{self.phi}"
        return self.family

    def angles(self, n):
        if self.family == "tau":
            return tau_eigen_grid(self.eps, self.phi, n)
        return _FAMILIES[self.family][0](n)

    def matrix(self, f, n):
        """The order-n matrix of f in this grid's algebra."""
        if self.family == "tau":
            return tau_matrix(f, self.eps, self.phi, n)
        return _FAMILIES[self.family][1](f, n)

    def band(self, f, n):
        """matrix(f, n) as [sub, main, super] float diagonals with the same bits, or None
        where it is not real tridiagonal; a circulant's corners lie off the band, so None."""
        if self.family == "tau":
            return _tridiagonal_band(f, n, self.eps, self.phi)
        return _tridiagonal_band(f, n) if self.family == "uniform-open" else None

    def exact_spectrum(self, f, n):
        """Spectrum of matrix(f, n): Hermitian eigenvalues if it is Hermitian, else general
        ones.  A real tridiagonal matrix is solved from its band form, with the same bits."""
        band = self.band(f, n)
        a = None if band is not None else self.matrix(f, n)  # a build error propagates as is
        try:
            return _eig_hermitian_band(band, lambda: a)
        except ValueError:  # not Hermitian
            if a is None:
                _refuse_general_order(len(band[1]))  # before the dense build
                a = self.matrix(f, n)
            return eig_general_small(a)

    def __eq__(self, other):
        return isinstance(other, GridSpec) and self.name() == other.name()

    def __hash__(self):
        return hash(self.name())

    def __repr__(self):
        return f"GridSpec({self.name()!r})"


# The ordering chain across the nine grids, per index j.  Equalities are exact
# by construction; every strict comparison below holds for all j except the
# (-1,1) vs (0,0) link, which reverses: (j-1/2)/n < j/(n+1) iff 2j < n+1, since
# cross-multiplying gives (j-1/2)(n+1) - jn = j - (n+1)/2.
_CHAIN = [
    ("tau(1,1) < tau(0,1)", (1, 1), "<", (0, 1), None),
    ("tau(0,1) = tau(1,0)", (0, 1), "=", (1, 0), None),
    ("tau(1,0) < tau(-1,1)", (1, 0), "<", (-1, 1), None),
    ("tau(-1,1) = tau(1,-1)", (-1, 1), "=", (1, -1), None),
    ("tau(-1,1) < tau(0,0)", (-1, 1), "<", (0, 0), "2j < n+1"),
    ("tau(0,0) < tau(-1,0)", (0, 0), "<", (-1, 0), None),
    ("tau(-1,0) = tau(0,-1)", (-1, 0), "=", (0, -1), None),
    ("tau(-1,0) < tau(-1,-1)", (-1, 0), "<", (-1, -1), None),
]


def _chain_links(n):
    """Yield (label, left grid, right grid, plain-relation mask, restriction) per link."""
    for label, left, rel, right, restriction in _CHAIN:
        gl = tau_eigen_grid(*left, n)
        gr = tau_eigen_grid(*right, n)
        yield label, gl, gr, (gl == gr if rel == "=" else gl < gr), restriction


def grid_ordering_detail(n):
    """Per-link report for the cross-grid ordering chain at length n.

    Returns a dict mapping link labels to dicts with keys "holds_for_all_j"
    (bool) and "failing_j" (1-based indices where the plain relation fails).
    """
    return {label: {"holds_for_all_j": bool(np.all(ok)),
                    "failing_j": [int(j + 1) for j in np.flatnonzero(~ok)]}
            for label, _, _, ok, _ in _chain_links(int(n))}


def grid_ordering_check(n):
    """Verify the cross-grid ordering chain on its exact range of validity.

    Seven of the eight links hold for every index j; the comparison between
    the (-1,1) and (0,0) grids holds exactly when 2j < n+1 and reverses
    beyond that point (the two grids cross mid-spectrum; at 2j = n+1 both
    angles are pi/2, equal up to rounding).  This check verifies each
    equality exactly, each universal strict inequality for all j, and the
    crossing link on both sides of its threshold, so True certifies the
    complete set of orderings that actually hold.
    """
    n = int(n)
    j = np.arange(1, n + 1)
    lo = 2 * j < n + 1
    hi = 2 * j > n + 1
    tie = ~lo & ~hi
    for _, gl, gr, ok, restriction in _chain_links(n):
        if restriction is None:
            if not np.all(ok):
                return False
        elif not (np.all(ok[lo]) and np.all(gl[hi] > gr[hi])
                  and np.all(np.abs(gl[tie] - gr[tie]) <= 8 * np.finfo(float).eps)):
            return False
    return True
