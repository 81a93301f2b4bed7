"""Registry of exact and test fields for the experiment drivers.

Field names accepted in configurations:

* ``poly:<coeffs>``          global polynomial; per-component coefficient
                             groups separated by ';', plain monomials in the
                             order 1, x, y, x^2, xy, y^2, ...
* ``pressure-poly:<coeffs>`` acoustics field (p(x, y), 0, 0)
* ``sine-advect``            sin(2 pi (x - b1 t)) sin(2 pi (y - b2 t))
* ``windowed-sine-advect``   the same sine cut off upstream by a smooth
                             one-sided window, so the advected profile is an
                             exact solution under the zero-inflow condition
* ``bump-advect``            advected C-infinity bump (positive, compact)
"""

import numpy as np

from .errors import ConfigurationError
from .quadrature import DGFunction, _scaled_powers, mode_exponents, monomial_values, n_modes


def _shift_matrices(exps, centers, h):
    """Matrices S with (global monomials)(x) = sum_k S[c, g, k] * (scaled modes of c)_k.

    Expands x^p y^q around each cell center (centers of shape (cells, 2)) via
    the binomial theorem; this is how a global polynomial is written down
    exactly in any cell's block.  The centers' powers come from the basis
    kernel's power tables; the loops run over mode pairs only.
    """
    from math import comb

    n = len(exps)
    index = {(int(p), int(q)): k for k, (p, q) in enumerate(exps)}
    S = np.zeros((len(centers), n, n))
    xc, yc = _scaled_powers(exps, (0.0, 0.0), 1.0, centers)
    for g, (p, q) in enumerate(exps):
        for u in range(p + 1):
            cu = comb(p, u) * xc[p - u] * h**u
            for v in range(q + 1):
                cv = comb(q, v) * yc[q - v] * h**v
                S[:, g, index[(u, v)]] += cu * cv
    return S


class PolynomialField:
    """Global polynomial field with one coefficient vector per component."""

    def __init__(self, component_coeffs, degree):
        self.degree = degree
        self.exps = mode_exponents(degree)
        n = len(self.exps)
        self.coeffs = np.zeros((n, len(component_coeffs)))
        for c, vec in enumerate(component_coeffs):
            vec = np.asarray(vec, dtype=float)
            self.coeffs[: len(vec), c] = vec

    @property
    def m(self):
        return self.coeffs.shape[1]

    def __call__(self, pts, t=0.0):
        return monomial_values(self.exps, (0.0, 0.0), 1.0, pts) @ self.coeffs

    def max_abs(self, pts):
        return float(np.max(np.abs(self(pts)))) if len(pts) else 0.0

    def to_dg(self, space):
        """Exact representation in the discrete space (block-wise re-centering).

        The cell-wise L2 projection of a global polynomial of fitting degree
        is the polynomial itself; writing it down by re-centering avoids the
        ill-conditioned mass solves of sliver cells entirely.
        """
        if self.degree > space.degree:
            raise ConfigurationError("polynomial degree exceeds the discrete space")
        exps = space.exps
        lifted = np.zeros((len(exps), self.m))
        lifted[: len(self.coeffs)] = self.coeffs
        S = _shift_matrices(exps, space.centers, space.h)
        return DGFunction(S.transpose(0, 2, 1) @ lifted, space.degree)


def random_polynomial(rng, degree, m, pressure_only=False):
    """Polynomial with coefficients in [-1, 1]; optionally (p, 0, 0) form."""
    n = n_modes(degree)
    comps = []
    for c in range(m):
        if pressure_only and c > 0:
            comps.append(np.zeros(n))
        else:
            comps.append(rng.uniform(-1.0, 1.0, size=n))
    return PolynomialField(comps, degree)


class SineAdvect:
    """Translating sine product, exact free-space advection profile."""

    def __init__(self, beta):
        self.beta = np.asarray(beta, dtype=float)

    m = 1

    def __call__(self, pts, t=0.0):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        x = pts[:, 0] - self.beta[0] * t
        y = pts[:, 1] - self.beta[1] * t
        return (np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))[:, None]


def _bump(r2):
    """C-infinity bump of squared radius argument, 1 at the center."""
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    return out


class BumpAdvect:
    """Compactly supported advected profile (radial C-infinity bump)."""

    def __init__(self, beta, center, radius):
        self.beta = np.asarray(beta, dtype=float)
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)

    m = 1

    def __call__(self, pts, t=0.0):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        x = pts[:, 0] - self.beta[0] * t
        y = pts[:, 1] - self.beta[1] * t
        r2 = ((x - self.center[0]) ** 2 + (y - self.center[1]) ** 2) / self.radius**2
        return _bump(r2)[:, None]


def _smoothstep(s):
    """C-infinity monotone step: 0 for s <= 0, 1 for s >= 1."""
    s = np.clip(s, 0.0, 1.0)
    lo = np.zeros_like(s)
    hi = np.zeros_like(s)
    with np.errstate(divide="ignore", over="ignore"):
        np.exp(-1.0 / np.where(s > 0, s, 1.0), out=lo, where=s > 0)
        np.exp(-1.0 / np.where(s < 1, 1.0 - s, 1.0), out=hi, where=s < 1)
    return lo / (lo + hi)


class WindowedSineAdvect:
    """Sine product switched on smoothly downstream of the inflow boundary.

    The window vanishes identically for x below ``x_on``, so the advected
    profile never carries data through the inflow boundary: it is an exact
    solution of the zero-inflow initial-boundary-value problem.
    """

    def __init__(self, beta, x_on=0.05, x_full=0.5):
        self.beta = np.asarray(beta, dtype=float)
        self.x_on = float(x_on)
        self.x_full = float(x_full)

    m = 1

    def __call__(self, pts, t=0.0):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        x = pts[:, 0] - self.beta[0] * t
        y = pts[:, 1] - self.beta[1] * t
        w = _smoothstep((x - self.x_on) / (self.x_full - self.x_on))
        return (w * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))[:, None]


def _parse_numbers(name, text):
    """The finite numbers of a comma-separated list in field ``name``."""
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"field {name!r}: cannot parse {text.strip()!r}") from exc
    if not np.all(np.isfinite(values)):
        raise ConfigurationError(f"field {name!r}: values must be finite")
    return values


def _parse_poly_groups(name, text, m):
    groups = text.split(";")
    if len(groups) > m:
        raise ConfigurationError(f"field has {len(groups)} components, system has {m}")
    comps = []
    length = 0
    for g in groups:
        vec = _parse_numbers(name, g)
        comps.append(np.array(vec))
        length = max(length, len(vec))
    while len(comps) < m:
        comps.append(np.zeros(0))
    degree = 0
    while n_modes(degree) < length:
        degree += 1
    if length and n_modes(degree) != length:
        raise ConfigurationError(
            f"polynomial coefficient count {length} is not a full degree block"
        )
    comps = [np.pad(c, (0, n_modes(degree) - len(c))) for c in comps]
    return PolynomialField(comps, degree)


def lookup_field(name, spec):
    """Resolve a registry string to an evaluable field for the given system."""
    name = name.strip()
    if name.startswith("poly:"):
        return _parse_poly_groups(name, name[len("poly:"):], spec.m)
    if name.startswith("pressure-poly:"):
        if spec.kind != "acoustics":
            raise ConfigurationError("pressure-poly requires the acoustics system")
        field = _parse_poly_groups(name, name[len("pressure-poly:"):], 1)
        return PolynomialField(
            [field.coeffs[:, 0], np.zeros(len(field.coeffs)), np.zeros(len(field.coeffs))],
            field.degree,
        )
    if spec.kind != "advection":
        raise ConfigurationError(f"field {name!r} requires the advection system")
    if name == "sine-advect":
        return SineAdvect(spec.beta)
    if name == "windowed-sine-advect":
        return WindowedSineAdvect(spec.beta)
    if name == "bump-advect":
        return BumpAdvect(spec.beta, (0.32, 0.35), 0.15)
    if name.startswith("bump-advect:"):
        text = name[len("bump-advect:"):]
        params = _parse_numbers(name, text)
        if len(params) != 3 or text.count(",") != 2:
            raise ConfigurationError(f"field {name!r}: expected center x, center y and radius")
        cx, cy, radius = params
        if radius <= 0.0:
            raise ConfigurationError(f"field {name!r}: bump radius must be > 0")
        return BumpAdvect(spec.beta, (cx, cy), radius)
    raise ConfigurationError(f"unknown field {name!r}")
