"""Rotationally symmetric graphical initial data sets and their mass.

A data set is the graph of a radial profile u(r) over the exterior region
r > r_start of a flat slice, carrying a radial electric field.  The induced
metric is f(r) dr^2 + r^2 h with f = 1 + (du/dr)^2, and the scalar curvature
of such a metric is

    R(r) = (n-1) [ (n-2)(1 - V) - r V' ] / r^2,     V = 1/f,

a closed form validated against the exact charged black-hole family (for
which R = (n-1)(n-2) q^2 / r^(2n-2)) and against a finite-difference
curvature oracle in the test suite.

The total mass is the horizon boundary term plus a bulk integral of the
scalar curvature.  Writing Theta = W^{-1} for the tilt factor and
dM = W dOmega for the graph volume element, the bulk integrand
Theta R dM reduces to R dOmega, so the radial quadrature integrates
R(r) r^(n-1) with no endpoint blow-up; the square-root substitution
s = sqrt(r - r_start) is still used so nodes stay clear of the horizon,
where f itself diverges.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exact_rnt import (
    RntParams,
    embedding_slope,
    horizon_radii,
    mass_coefficient,
    unit_sphere_area,
)


class DecayError(ValueError):
    """Profile decays too slowly for the mass to be defined."""


class ExtrapolationError(RuntimeError):
    """Richardson extrapolation of the flux integral diverged."""


class TruncationWarning(UserWarning):
    """Bulk tail estimate is less reliable than the requested tolerance."""


@dataclass(eq=False)
class RadialGraphData:
    """Radial graph profile with an electric field.

    ``dudr`` and ``e_radial`` are vectorized callables of the radius;
    ``e_radial`` returns the field component along the unit radial direction
    (equal to the metric norm |E|).  ``metric_v``/``metric_v_prime``
    optionally provide the closed form of V = 1/f and its derivative; when
    absent V' falls back to a high-order finite difference of V.
    ``horizon`` marks data whose inner boundary is a minimal sphere; such
    profiles must meet the slice orthogonally (V -> 0 at r_start).
    """

    n: int
    r_start: float
    dudr: object
    e_radial: object
    charge: float
    label: str = ""
    horizon: bool = True
    metric_v: object = None
    metric_v_prime: object = None
    metric_one_minus_v: object = None
    decay_sigma: float | None = None

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("dimension must satisfy n >= 3")
        if self.r_start < 0.0:
            raise ValueError("r_start must be nonnegative")
        if self.horizon:
            if self.r_start <= 0.0:
                raise ValueError("horizon data needs r_start > 0")
            probe = self.r_start * (1.0 + 1e-9)
            if reciprocal_metric(self, probe) > 1e-3:
                raise ValueError(
                    "horizon data must meet the slice orthogonally "
                    "(du/dr has to diverge at r_start)"
                )

    def charge_at(self, r: float) -> float:
        """Charge recovered from the field flux through the r-sphere."""
        return float(np.asarray(self.e_radial(r), dtype=float) * r ** (self.n - 1))


def induced_metric_factor(data: RadialGraphData, r):
    """Radial metric coefficient f(r) = 1 + (du/dr)^2."""
    r = np.asarray(r, dtype=float)
    slope = np.asarray(data.dudr(r), dtype=float)
    out = 1.0 + slope * slope
    return float(out) if out.ndim == 0 else out


def reciprocal_metric(data: RadialGraphData, r):
    """Reciprocal metric coefficient V(r) = 1/f(r), bounded through the horizon."""
    if data.metric_v is not None:
        out = np.asarray(data.metric_v(np.asarray(r, dtype=float)), dtype=float)
        return float(out) if out.ndim == 0 else out
    r = np.asarray(r, dtype=float)
    slope = np.asarray(data.dudr(r), dtype=float)
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + slope * slope)
    return float(out) if out.ndim == 0 else out


def _metric_v_prime(data: RadialGraphData, r):
    if data.metric_v_prime is not None:
        out = np.asarray(data.metric_v_prime(np.asarray(r, dtype=float)), dtype=float)
        return float(out) if out.ndim == 0 else out
    # Fourth-order central difference of V; the step shrinks near the horizon
    # so all stencil points stay inside the domain.
    r = np.asarray(r, dtype=float)
    h = 1e-3 * (1.0 + np.abs(r))
    if data.r_start > 0.0:
        h = np.minimum(h, 0.2 * np.clip(r - data.r_start, 1e-14, None))
    vp = (
        8.0 * (reciprocal_metric(data, r + h) - reciprocal_metric(data, r - h))
        - (reciprocal_metric(data, r + 2 * h) - reciprocal_metric(data, r - 2 * h))
    ) / (12.0 * h)
    return float(vp) if np.ndim(vp) == 0 else vp


def graph_scalar_curvature(data: RadialGraphData, r):
    """Scalar curvature of the induced metric f(r) dr^2 + r^2 h at radius r.

    Uses the closed form (n-1)[(n-2)(1 - V) - r V']/r^2.  When the data
    supplies the metric deviation 1 - V in closed form it is used directly;
    computing 1 - V by subtraction loses all significant digits in the far
    asymptotic regime where V -> 1.
    """
    r = np.asarray(r, dtype=float)
    n = data.n
    if data.metric_one_minus_v is not None:
        omv = np.asarray(data.metric_one_minus_v(r), dtype=float)
    else:
        omv = 1.0 - reciprocal_metric(data, r)
    vp = _metric_v_prime(data, r)
    out = (n - 1) * ((n - 2) * omv - r * vp) / r**2
    return float(out) if out.ndim == 0 else out


def energy_condition_residual(data: RadialGraphData, r_grid):
    """Pointwise dominant-energy margin R - (n-1)(n-2) |E|^2 on the grid."""
    r = np.asarray(r_grid, dtype=float)
    n = data.n
    e = np.asarray(data.e_radial(r), dtype=float)
    return graph_scalar_curvature(data, r) - (n - 1) * (n - 2) * e * e


def check_decay(data: RadialGraphData) -> float:
    """Measured decay exponent sigma of (du/dr)^2; raises unless sigma > (n-2)/2."""
    if data.decay_sigma is not None:
        sigma = float(data.decay_sigma)
    else:
        base = max(data.r_start, 1.0)
        r1, r2 = 1e3 * base, 8e3 * base
        w1 = float(np.asarray(data.dudr(r1), dtype=float)) ** 2
        w2 = float(np.asarray(data.dudr(r2), dtype=float)) ** 2
        if w2 < 1e-280:
            return math.inf
        if w1 < 1e-280:
            raise DecayError(
                f"(du/dr)^2 vanishes at r = {r1:.6g} but not at r = {r2:.6g}; "
                "decay exponent undefined"
            )
        sigma = -(math.log(w2) - math.log(w1)) / (math.log(r2) - math.log(r1))
    if not sigma > 0.5 * (data.n - 2) + 1e-9:
        raise DecayError(
            f"decay exponent sigma = {sigma:.4f} violates sigma > (n-2)/2 = "
            f"{0.5 * (data.n - 2):.4f}; mass undefined"
        )
    return sigma


@dataclass(frozen=True)
class MassBreakdown:
    """Boundary/bulk split of the mass integral formula."""

    boundary_term: float
    bulk_term: float  # quadrature value plus the tail estimate
    total: float
    dec_residual_min: float
    tail_estimate: float
    r_max: float
    tail_uncertainty: float  # error estimate of tail_estimate


_GL_X32, _GL_W32 = np.polynomial.legendre.leggauss(32)


def _bulk_nodes(r_start: float, r_max: float):
    """Gauss nodes of the s = sqrt(r - r_start) substitution, panel by panel."""
    s_max = math.sqrt(r_max - r_start)
    scale = math.sqrt(max(r_start, 0.1))
    edges = [0.0]
    while edges[-1] < s_max:
        step = max(0.05 * scale, 0.5 * edges[-1])
        edges.append(min(s_max, edges[-1] + step))
    s_nodes, s_jac = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        s = mid + half * _GL_X32
        s_nodes.append(s)
        s_jac.append(half * _GL_W32 * 2.0 * s)  # dr = 2 s ds
    return np.concatenate(s_nodes), np.concatenate(s_jac)


def mass_via_formula(
    data: RadialGraphData,
    r_max: float | None = None,
    tolerance: float = 1e-6,
    horizon_surface=None,
) -> MassBreakdown:
    """Mass from the boundary + bulk integral formula.

    The boundary term is c_n times the total mean curvature of the horizon
    viewed as a hypersurface of the flat slice; for the round horizon this is
    r_start^(n-2)/2 analytically (positive with the sign convention of the
    formula).  A non-round horizon can be passed as ``horizon_surface``, in
    which case its total mean curvature is used instead.  The bulk term
    integrates the scalar curvature against the flat volume element up to
    r_max and adds a power-law tail estimated from the measured decay of the
    integrand.
    """
    check_decay(data)
    n = data.n
    cn = mass_coefficient(n)
    omega = unit_sphere_area(n)

    if horizon_surface is not None:
        from . import surface_geometry as sg

        boundary = cn * sg.total_mean_curvature(horizon_surface)
    elif data.horizon:
        boundary = 0.5 * data.r_start ** (n - 2)
    else:
        boundary = 0.0

    if r_max is None:
        r_max = 1e4 * max(data.r_start, 1.0)

    s_nodes, s_jac = _bulk_nodes(data.r_start, r_max)
    r_nodes = data.r_start + s_nodes * s_nodes
    curv = graph_scalar_curvature(data, r_nodes)
    integrand = cn * omega * curv * r_nodes ** (n - 1)
    bulk_quad = float(np.dot(s_jac, integrand))

    tail, tail_unc = _tail_estimate(data, r_max, cn, omega, n)
    if tail_unc > tolerance:
        warnings.warn(
            f"bulk tail estimate uncertain by {tail_unc:.2e} (> tolerance {tolerance:.2e})",
            TruncationWarning,
            stacklevel=2,
        )

    e_nodes = np.asarray(data.e_radial(r_nodes), dtype=float)
    residual = curv - (n - 1) * (n - 2) * e_nodes**2
    return MassBreakdown(
        boundary_term=boundary,
        bulk_term=bulk_quad + tail,
        total=boundary + bulk_quad + tail,
        dec_residual_min=float(residual.min()),
        tail_estimate=tail,
        r_max=float(r_max),
        tail_uncertainty=float(tail_unc),
    )


def _tail_estimate(data, r_max, cn, omega, n):
    def g(r):
        return cn * omega * graph_scalar_curvature(data, r) * r ** (n - 1)

    g2, g1, g0 = g(r_max / 16.0), g(r_max / 4.0), g(r_max)
    if abs(g0) < 1e-280:
        return 0.0, 0.0
    if g0 * g1 <= 0.0 or g1 * g2 <= 0.0:
        return 0.0, abs(g0) * r_max
    p1 = -(math.log(abs(g0)) - math.log(abs(g1))) / math.log(4.0)
    p2 = -(math.log(abs(g1)) - math.log(abs(g2))) / math.log(4.0)
    if p1 <= 1.0 + 1e-6:
        return 0.0, abs(g0) * r_max
    tail = g0 * r_max / (p1 - 1.0)
    return tail, abs(tail) * abs(p1 - p2)


def adm_flux(data: RadialGraphData, r: float) -> float:
    """Flux integrand of the asymptotic mass at radius r.

    For the radial deviation e_ij = (f - 1) x_i x_j / r^2 the flux integral
    collapses to (f(r) - 1) r^(n-2) / 2, with f - 1 = (1 - V)/V evaluated
    through the closed metric deviation when available.
    """
    if data.metric_one_minus_v is not None:
        omv = float(np.asarray(data.metric_one_minus_v(r), dtype=float))
        v = float(np.asarray(reciprocal_metric(data, r), dtype=float))
        deviation = omv / v
    else:
        deviation = induced_metric_factor(data, r) - 1.0
    return 0.5 * deviation * r ** (data.n - 2)


def adm_mass_limit(data: RadialGraphData, radii, exponent: float | None = None) -> float:
    """Asymptotic mass by Richardson extrapolation of :func:`adm_flux`.

    ``radii`` must be increasing; the extrapolation removes successive
    powers of r^(-sigma') with sigma' = n - 2 by default.  Raises
    :class:`ExtrapolationError` if successive corrections grow instead of
    shrinking.
    """
    check_decay(data)
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 2:
        raise ValueError("need at least two radii")
    if np.any(np.diff(radii) <= 0.0):
        raise ValueError("radii must be increasing")
    sig = float(exponent) if exponent is not None else float(data.n - 2)
    table = np.array([adm_flux(data, r) for r in radii])
    scale = max(1.0, float(np.max(np.abs(table))))
    prev_corr = None
    for level in range(1, radii.size):
        ratio = (radii[1:] / radii[:-1]) ** (sig * level)
        new = table[1:] + (table[1:] - table[:-1]) / (ratio[: table.size - 1] - 1.0)
        corr = abs(float(new[-1]) - float(table[-1]))
        if prev_corr is not None and corr > 2.0 * prev_corr and corr > 1e-12 * scale:
            raise ExtrapolationError(
                f"extrapolation diverging at level {level}: corrections "
                f"{prev_corr:.3e} -> {corr:.3e}"
            )
        prev_corr = corr
        table = new
        radii = radii[1:]
    return float(table[-1])


# ---------------------------------------------------------------------------
# constructors


def rnt_graph_data(n: int, m: float, q: float, charge_scale: float = 1.0) -> RadialGraphData:
    """Graph data of the exact black-hole family member (m > |q|).

    ``charge_scale`` rescales the electric field only (the geometry keeps the
    charge q); values below 1 produce strictly positive energy margin, values
    above 1 violate the dominant energy condition.
    """
    params = RntParams(n, m, q)
    _, r_plus = horizon_radii(params)
    if m <= abs(q):
        raise ValueError("graph data requires m > |q|")
    q_eff = charge_scale * q

    def dudr(r):
        return embedding_slope(params, r)

    def e_radial(r):
        r = np.asarray(r, dtype=float)
        return q_eff / r ** (n - 1)

    def v_closed(r):
        r = np.asarray(r, dtype=float)
        return 1.0 - 2.0 * m / r ** (n - 2) + q * q / r ** (2 * n - 4)

    def v_prime_closed(r):
        r = np.asarray(r, dtype=float)
        return 2.0 * m * (n - 2) / r ** (n - 1) - (2 * n - 4) * q * q / r ** (2 * n - 3)

    def one_minus_v_closed(r):
        r = np.asarray(r, dtype=float)
        return 2.0 * m / r ** (n - 2) - q * q / r ** (2 * n - 4)

    return RadialGraphData(
        n=n,
        r_start=r_plus,
        dudr=dudr,
        e_radial=e_radial,
        charge=q_eff,
        label=f"rnt n={n} m={m} q={q}" + (f" scale={charge_scale}" if charge_scale != 1.0 else ""),
        horizon=True,
        metric_v=v_closed,
        metric_v_prime=v_prime_closed,
        metric_one_minus_v=one_minus_v_closed,
    )


def perturbed_rnt_graph_data(
    n: int, m: float, q: float, eps: float, width: float = 1.0, charge_scale: float = 1.0
) -> RadialGraphData:
    """Black-hole profile with du/dr increased by a localized bump.

    The bump eps * exp(-((r - r+)/width)) keeps the profile monotone for
    eps >= 0 and decays fast enough to leave the asymptotics untouched.
    """
    params = RntParams(n, m, q)
    _, r_plus = horizon_radii(params)
    if m <= abs(q):
        raise ValueError("graph data requires m > |q|")
    q_eff = charge_scale * q

    def dudr(r):
        r = np.asarray(r, dtype=float)
        return embedding_slope(params, r) + eps * np.exp(-(r - r_plus) / width)

    def e_radial(r):
        r = np.asarray(r, dtype=float)
        return q_eff / r ** (n - 1)

    return RadialGraphData(
        n=n,
        r_start=r_plus,
        dudr=dudr,
        e_radial=e_radial,
        charge=q_eff,
        label=f"rnt-perturbed n={n} m={m} q={q} eps={eps}",
        horizon=True,
    )


def flat_graph_data(n: int) -> RadialGraphData:
    """The flat slice (u = 0, no field, no horizon); all masses vanish."""

    def zero(r):
        return np.zeros_like(np.asarray(r, dtype=float))

    return RadialGraphData(
        n=n,
        r_start=0.0,
        dudr=zero,
        e_radial=zero,
        charge=0.0,
        label="flat",
        horizon=False,
        metric_v=lambda r: np.ones_like(np.asarray(r, dtype=float)),
        metric_v_prime=zero,
        metric_one_minus_v=zero,
        decay_sigma=math.inf,
    )


def _pchip_end_slope(h0, h1, m0, m1):
    # One-sided three-point estimate, limited so the end interval stays
    # shape-preserving (Fritsch-Carlson end condition).
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_slopes(h, m):
    """Knot derivatives of the monotone piecewise cubic Hermite interpolant.

    ``h`` are the interval widths and ``m`` the secant slopes.  Interior
    knots take the weighted harmonic mean of the neighbouring secants
    (Fritsch & Butland 1984), or 0 at a local extremum, which keeps every
    interval monotone (Fritsch & Carlson, SIAM J. Numer. Anal. 17, 1980).
    This is the scheme of scipy's ``PchipInterpolator``.
    """
    d = np.zeros(m.size + 1)
    k = np.flatnonzero((np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0.0))
    w1, w2 = 2.0 * h[k + 1] + h[k], h[k + 1] + 2.0 * h[k]
    d[k + 1] = 1.0 / ((w1 / m[k] + w2 / m[k + 1]) / (w1 + w2))
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


class _TableProfile:
    """Tabulated du/dr: monotone cubic inside the table, power-law tail past it.

    Inside the table the profile is the PCHIP interpolant (:func:`_pchip_slopes`);
    below the first radius it holds the first value; past the last radius it
    continues as c r^p with p fitted over the last quarter-decade.
    """

    def __init__(self, r, dudr):
        r = np.asarray(r, dtype=float)
        dudr = np.asarray(dudr, dtype=float)
        if r.ndim != 1 or r.size < 4:
            raise ValueError("profile table needs at least 4 rows")
        if np.any(np.diff(r) <= 0.0):
            raise ValueError("table radii must be strictly increasing")
        h = np.diff(r)
        m = np.diff(dudr) / h
        d = _pchip_slopes(h, m)
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        # per-interval cubic in s = r - r_i, highest power first
        self._coef = np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], dudr[:-1]])
        self._knots = r
        self.r_min, self.r_max = float(r[0]), float(r[-1])
        # tail slope from the last decade of the table
        mask = r >= self.r_max / 4.0
        rr, ww = r[mask], np.abs(dudr[mask])
        if np.all(ww > 0.0) and rr.size >= 2:
            self._p = (math.log(ww[-1]) - math.log(ww[0])) / (
                math.log(rr[-1]) - math.log(rr[0])
            )
        else:
            self._p = -1.0
        self._c = dudr[-1] / self.r_max**self._p

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        inside = np.clip(r, self.r_min, self.r_max)
        i = np.clip(np.searchsorted(self._knots, inside, side="right") - 1, 0, self._knots.size - 2)
        s = inside - self._knots[i]
        c3, c2, c1, c0 = self._coef[:, i]
        with np.errstate(over="ignore"):
            tail = self._c * np.clip(r, self.r_min, None) ** self._p
        out = np.where(r > self.r_max, tail, c0 + s * (c1 + s * (c2 + s * c3)))
        return float(out) if out.ndim == 0 else out


def table_graph_data(
    n: int,
    r_table,
    dudr_table,
    charge: float = 0.0,
    horizon: bool = False,
    label: str = "table",
) -> RadialGraphData:
    """Graph data from a tabulated profile; the field is radial with the given charge."""
    profile = _TableProfile(r_table, dudr_table)

    def e_radial(r):
        r = np.asarray(r, dtype=float)
        return charge / r ** (n - 1)

    return RadialGraphData(
        n=n,
        r_start=profile.r_min if horizon else 0.0,
        dudr=profile,
        e_radial=e_radial,
        charge=charge,
        label=label,
        horizon=horizon,
    )


# ---------------------------------------------------------------------------
# data definition files


_DATA_FILE_KEYS = frozenset(
    ("n", "profile", "m", "q", "charge_scale", "eps", "width", "field", "table", "charge",
     "horizon")
)
_HORIZON_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def load_graph_data(path) -> RadialGraphData:
    """Read a data definition file (plain ``key = value`` lines, # comments).

    Recognized keys: n, profile (rnt | rnt-perturbed | flat | table), m, q,
    charge_scale, eps, width, field (rnt | none), table (path to a two-column
    r/dudr file, relative to the definition file), charge, horizon
    (true | false).  Unknown keys, unknown values and missing required keys
    raise ValueError.
    """
    import os

    entries = {}
    with open(path) as handle:
        for line in handle:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed line in data file: {line!r}")
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()

    unknown = sorted(set(entries) - _DATA_FILE_KEYS)
    if unknown:
        raise ValueError(f"unknown key(s) in data file: {', '.join(unknown)}")

    def required(key):
        if key not in entries:
            raise ValueError(f"data file missing required key {key!r}")
        return entries[key]

    n = int(required("n"))
    profile = entries.get("profile", "rnt")
    field = entries.get("field", "rnt")
    if field not in ("rnt", "none"):
        raise ValueError(f"field must be 'rnt' or 'none', got {field!r}")
    charge_scale = float(entries.get("charge_scale", "1.0"))
    if field == "none":
        charge_scale = 0.0

    if profile == "rnt":
        return rnt_graph_data(n, float(required("m")), float(required("q")), charge_scale)
    if profile == "rnt-perturbed":
        return perturbed_rnt_graph_data(
            n,
            float(required("m")),
            float(required("q")),
            float(entries.get("eps", "0.0")),
            float(entries.get("width", "1.0")),
            charge_scale,
        )
    if profile == "flat":
        return flat_graph_data(n)
    if profile == "table":
        table_path = required("table")
        if not os.path.isabs(table_path):
            table_path = os.path.join(os.path.dirname(os.path.abspath(path)), table_path)
        horizon = entries.get("horizon", "false").lower()
        if horizon not in _HORIZON_VALUES:
            raise ValueError(f"horizon must be true or false, got {horizon!r}")
        rows = np.loadtxt(table_path, ndmin=2)
        if rows.shape[1] != 2:
            raise ValueError("profile table needs two columns (r, du/dr)")
        return table_graph_data(
            n,
            rows[:, 0],
            rows[:, 1],
            charge=float(entries.get("charge", "0.0")) * charge_scale,
            horizon=_HORIZON_VALUES[horizon],
        )
    raise ValueError(f"unknown profile kind {profile!r}")
