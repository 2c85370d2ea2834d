"""Closed-form evaluation of the static charged black-hole family.

The family is parametrized by the spatial dimension n >= 3, a mass m and a
charge q.  Every quantity here is an elementary function of (n, m, q, r),
which makes this module the oracle layer for the rest of the package: the
surface, flow and graph pipelines are all validated against these formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class NakedSingularityError(ValueError):
    """Horizon operation requested with m < |q| (no horizon exists)."""


class ExtremalParameterError(ValueError):
    """Operation requires a non-degenerate horizon (m > |q|)."""


class LapseDomainError(ValueError):
    """Lapse evaluated strictly between the inner and outer horizon."""


@lru_cache(maxsize=None)
def unit_sphere_area(n: int) -> float:
    """Area of the unit sphere S^(n-1) in R^n (n=3 gives 4*pi, n=4 gives 2*pi^2)."""
    if n < 2:
        raise ValueError("ambient dimension must satisfy n >= 2")
    try:
        return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    except OverflowError:
        raise ValueError(f"unit sphere area overflows in dimension n = {n}") from None


@lru_cache(maxsize=None)
def mass_coefficient(n: int) -> float:
    """Normalization c_n = 1 / (2 (n-1) omega_{n-1}) of the mass flux integral."""
    return 1.0 / (2.0 * (n - 1) * unit_sphere_area(n))


def area_radius_power(area: float, n: int) -> float:
    """Area radius power (|Sigma| / omega_{n-1})^((n-2)/(n-1)) of a closed hypersurface."""
    if area <= 0.0:
        raise ValueError("area must be positive")
    return (area / unit_sphere_area(n)) ** ((n - 2) / (n - 1))


@dataclass(frozen=True)
class RntParams:
    """Dimension, mass and charge of one member of the black-hole family.

    m >= |q| is required by the horizon operations; m = |q| is accepted but
    flagged extremal (inner and outer horizon merge).  The profile embedding
    additionally needs m > |q|.
    """

    n: int
    m: float
    q: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 3:
            raise ValueError("spatial dimension n must be an integer >= 3")
        if not (math.isfinite(self.m) and math.isfinite(self.q)):
            raise ValueError("m and q must be finite")

    @property
    def extremal(self) -> bool:
        return self.m == abs(self.q)

    @property
    def sphere_area(self) -> float:
        """omega_{n-1} for this dimension."""
        return unit_sphere_area(self.n)

    @property
    def mass_coefficient(self) -> float:
        """c_n for this dimension."""
        return mass_coefficient(self.n)


def lapse(params: RntParams, r):
    """Static lapse psi(r) = sqrt(1 - 2m/r^(n-2) + q^2/r^(2n-4)).

    Accepts a scalar radius or an array of radii.  Raises
    :class:`LapseDomainError` if any radius falls strictly between the two
    horizon radii, where the radicand is negative.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("radius must be positive")
    n = params.n
    radicand = 1.0 - 2.0 * params.m / r ** (n - 2) + params.q**2 / r ** (2 * n - 4)
    if np.any(radicand < -1e-12):
        raise LapseDomainError(
            "lapse undefined for radii strictly between the horizons r- and r+"
        )
    out = np.sqrt(np.clip(radicand, 0.0, None))
    return float(out) if out.ndim == 0 else out


def horizon_radii(params: RntParams) -> tuple[float, float]:
    """Inner and outer horizon radii (r-, r+).

    These are the zeros of the squared lapse, r_pm = (m +- sqrt(m^2 - q^2))^(1/(n-2)).
    Raises :class:`NakedSingularityError` when m < |q|; for m = |q| the two
    radii coincide (extremal case), and ValueError when r+ overflows.
    """
    m, q, n = params.m, params.q, params.n
    if m < abs(q):
        raise NakedSingularityError(
            f"naked singularity regime: m = {m} < |q| = {abs(q)}"
        )
    s = math.sqrt(max(m * m - q * q, 0.0))
    expo = 1.0 / (n - 2)
    r_plus = (m + s) ** expo
    if not math.isfinite(r_plus):
        raise ValueError(f"outer horizon radius overflows for m = {m!r}")
    return (max(m - s, 0.0) ** expo, r_plus)


def horizon_area(params: RntParams) -> float:
    """Area omega_{n-1} r_+^(n-1) of the outer horizon sphere (ValueError on overflow)."""
    _, r_plus = horizon_radii(params)
    try:
        return unit_sphere_area(params.n) * r_plus ** (params.n - 1)
    except OverflowError:
        raise ValueError(f"horizon area overflows for m = {params.m!r}") from None


def horizon_radius_power(params: RntParams) -> float:
    """R = r_+^(n-2) = m + sqrt(m^2 - q^2), the quantity entering the mass identity.

    Raises ValueError when R overflows.
    """
    m, q = params.m, params.q
    if m < abs(q):
        raise NakedSingularityError(
            f"naked singularity regime: m = {m} < |q| = {abs(q)}"
        )
    big_r = m + math.sqrt(max(m * m - q * q, 0.0))
    if not math.isfinite(big_r):
        raise ValueError(f"horizon radius power overflows for m = {m!r}")
    return big_r


def mass_from_horizon(area: float, q: float, n: int) -> float:
    """Mass recovered from the horizon area and the charge.

    Inverts the horizon relation: with R = (area/omega_{n-1})^((n-2)/(n-1)),
    the mass is (R + q^2/R) / 2.  Round-trips through
    :func:`horizon_radii` to machine precision for m >= |q|.
    """
    big_r = area_radius_power(area, n)
    return 0.5 * (big_r + q * q / big_r)


def rnt_scalar_curvature(params: RntParams, r):
    """Scalar curvature (n-1)(n-2) q^2 / r^(2n-2) of the spatial slice metric."""
    r = np.asarray(r, dtype=float)
    n = params.n
    out = (n - 1) * (n - 2) * params.q**2 / r ** (2 * n - 2)
    return float(out) if out.ndim == 0 else out


def electric_field_radial(params: RntParams, r):
    """Radial electric field component q / r^(n-1).

    The field is q/r^(n-1) times the unit radial direction, so this value is
    also the metric norm |E|; its flux through any r-sphere, normalized by
    omega_{n-1}, equals q identically.
    """
    r = np.asarray(r, dtype=float)
    out = params.q / r ** (params.n - 1)
    return float(out) if out.ndim == 0 else out


def embedding_slope(params: RntParams, r):
    """Slope du/dr of the isometric radial embedding into flat space.

    du/dr = sqrt((2 m r^(n-2) - q^2) / (r^(2n-4) - 2 m r^(n-2) + q^2)); the
    denominator vanishes at r = r+, so the slope diverges there like
    (r - r+)^(-1/2).  Evaluates to +inf at the horizon.
    """
    r = np.asarray(r, dtype=float)
    n = params.n
    num = 2.0 * params.m * r ** (n - 2) - params.q**2
    den = r ** (2 * n - 4) - 2.0 * params.m * r ** (n - 2) + params.q**2
    with np.errstate(divide="ignore"):
        out = np.sqrt(num / np.where(den <= 0.0, np.inf, den))
        out = np.where(den <= 0.0, np.inf, out)
    return float(out) if out.ndim == 0 else out


# Fixed-order Gauss-Legendre rule used for the embedding quadrature panels.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)


def embed_profile(params: RntParams, r_values) -> np.ndarray:
    """Height profile u(r) of the graph embedding, with u(r+) = 0.

    The slope has an inverse-square-root singularity at the horizon, so the
    quadrature substitutes s = sqrt(r - r+); the transformed integrand
    2 s (du/dr)(r+ + s^2) is bounded and smooth, and composite Gauss panels
    in s resolve it to near machine precision.

    ``r_values`` must be strictly increasing with r_values[0] >= r+.
    """
    m, q = params.m, params.q
    if m < abs(q):
        raise NakedSingularityError("embedding requires m > |q|")
    if m == abs(q):
        raise ExtremalParameterError(
            "embedding undefined in the extremal case m = |q|"
        )
    r = np.asarray(r_values, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise ValueError("r_values must be a non-empty 1-d sequence")
    if np.any(np.diff(r) <= 0.0):
        raise ValueError("r_values must be strictly increasing")
    _, r_plus = horizon_radii(params)
    if r[0] < r_plus - 1e-12 * max(1.0, r_plus):
        raise ValueError("r_values must start at or above the horizon radius r+")

    s_edges = np.concatenate([[0.0], np.sqrt(np.clip(r - r_plus, 0.0, None))])
    scale = math.sqrt(r_plus)

    # Panel widths grow with s so both the horizon region and the power-law
    # tail are resolved by the fixed-order rule.  All panels are laid out
    # first and the slope is evaluated once on all their nodes.
    owner, mids, halves = [], [], []
    for k in range(r.size):
        lo, b = s_edges[k], s_edges[k + 1]
        while lo < b:
            hi = min(b, lo + 0.5 * (lo + scale))
            owner.append(k)
            mids.append(0.5 * (hi + lo))
            halves.append(0.5 * (hi - lo))
            lo = hi
    s = np.array(mids)[:, None] + np.array(halves)[:, None] * _GL_X
    integrand = 2.0 * s * embedding_slope(params, r_plus + s * s)

    acc = [0.0] * r.size  # integral over [r[k-1], r[k]], panel by panel
    for k, half, row in zip(owner, halves, integrand):
        acc[k] += half * float(np.dot(_GL_W, row))
    return np.cumsum(acc)
