"""Discrete star-shaped hypersurfaces in R^n and their curvature integrals.

A surface is a positive radial function rho over a quadrature grid on the
unit sphere S^(n-1).  Two grid modes are supported:

* ``axisymmetric`` -- rho depends only on the polar angle.  Nodes are the
  Gauss abscissae in x = cos(theta) for the weight (1 - x^2)^((n-3)/2)
  (plain Gauss-Legendre when n = 3), so quadrature weights sum to
  omega_{n-1} exactly and derivatives are spectral (barycentric collocation
  in x).  Works for every n >= 3 and is division-free at the poles.

* ``full`` -- a latitude-longitude tensor grid, n = 3 only.  Latitudes sit
  at Gauss-Legendre nodes in cos(theta) (no pole rows), longitudes are
  uniform.  Derivatives use five-point stencils in theta (with ghost rows
  obtained by reflecting through the poles, i.e. a half-turn shift in
  longitude) and fourth-order periodic stencils in phi.

Curvature conventions: the unit normal nu points outward and the round
sphere of radius r has H = (n-1)/r > 0.  K denotes the extrinsic scalar
curvature (sum of pairwise products of principal curvatures), so
2K = H^2 - |A|^2, and the intrinsic scalar curvature of a hypersurface of
flat space is R_k = 2K.

Computed once: every array of a grid, of a surface's rho and of its
curvature is read-only.  The grid factories are cached, so equal arguments
return the same grid, which also keeps the unit sphere's Yamabe quotient;
:func:`curvature` evaluates a surface once and stores the result on it.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import legval

from .exact_rnt import unit_sphere_area


class DegenerateMetricError(ValueError):
    """Induced metric determinant vanished or turned negative."""


# ---------------------------------------------------------------------------
# grids


def _freeze(*arrays) -> None:
    for arr in arrays:
        if arr is not None:
            arr.flags.writeable = False


@dataclass(eq=False)
class SphereGrid:
    """Quadrature and differentiation data for S^(n-1).

    Built by the factory functions below, which cache their grids: equal
    arguments return the same instance, and every array is read-only.
    """

    n: int
    mode: str  # "axisymmetric" | "full"
    theta: np.ndarray  # (M,) polar angles, strictly inside (0, pi)
    x: np.ndarray  # cos(theta)
    weights: np.ndarray  # (M,) or (M, K); sums to omega_{n-1}
    phi: np.ndarray | None = None  # (K,) longitudes, full mode only
    # differentiation machinery (mode dependent, private)
    _d1: np.ndarray | None = field(default=None, repr=False)
    _d2: np.ndarray | None = field(default=None, repr=False)
    _theta_ext: np.ndarray | None = field(default=None, repr=False)
    _w1: np.ndarray | None = field(default=None, repr=False)
    _w2: np.ndarray | None = field(default=None, repr=False)
    # Yamabe quotient of the unit sphere on this grid, set by yamabe_quotients
    _unit_yamabe: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        _freeze(self.theta, self.x, self.weights, self.phi,
                self._d1, self._d2, self._theta_ext, self._w1, self._w2)

    @property
    def shape(self):
        return self.theta.shape if self.mode == "axisymmetric" else (
            self.theta.size,
            self.phi.size,
        )

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.shape))


@functools.lru_cache(maxsize=None)
def _gauss_jacobi(nodes: int, alpha: float):
    """Gauss nodes (ascending) and weights for the weight (1 - x^2)^alpha on [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of the Gegenbauer recurrence and the weights are mu_0 times
    the squared first eigenvector components; alpha = 0 is Gauss-Legendre.
    Cached per (nodes, alpha); the arrays are shared, hence read-only.
    """
    k = np.arange(1.0, nodes)
    off = np.sqrt(k * (k + 2.0 * alpha) / ((2.0 * k + 2.0 * alpha) ** 2 - 1.0))
    x, vec = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    mu0 = 2.0 ** (2.0 * alpha + 1.0) * math.exp(
        2.0 * math.lgamma(alpha + 1.0) - math.lgamma(2.0 * alpha + 2.0)
    )
    w = mu0 * vec[0] ** 2
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])  # exact reflection symmetry
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _barycentric_weights(x: np.ndarray) -> np.ndarray:
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, 1.0)
    sign = np.prod(np.sign(d), axis=1)
    logw = -np.sum(np.log(np.abs(d)), axis=1)
    logw -= logw.max()
    return sign * np.exp(logw)


def _diff_matrix(x: np.ndarray) -> np.ndarray:
    lam = _barycentric_weights(x)
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, 1.0)
    dm = (lam[None, :] / lam[:, None]) / d
    np.fill_diagonal(dm, 0.0)
    np.fill_diagonal(dm, -dm.sum(axis=1))
    return dm


# A run uses a handful of grids; the bound keeps a resolution study from
# holding every grid it built (an N-node grid keeps two N x N matrices).
@functools.lru_cache(maxsize=8)
def axisymmetric_grid(n: int, nodes: int = 128) -> SphereGrid:
    """Gauss grid in x = cos(theta) for axisymmetric surfaces in R^n."""
    if n < 3:
        raise ValueError("ambient dimension must be >= 3")
    if nodes < 8:
        raise ValueError("need at least 8 nodes")
    x, w = _gauss_jacobi(nodes, 0.5 * (n - 3))
    order = np.argsort(-x)  # theta increasing from the north pole
    x, w = x[order], w[order]
    weights = w * unit_sphere_area(n - 1)
    weights *= unit_sphere_area(n) / weights.sum()
    d1 = _diff_matrix(x)
    return SphereGrid(
        n=n,
        mode="axisymmetric",
        theta=np.arccos(x),
        x=x,
        weights=weights,
        _d1=d1,
        _d2=d1 @ d1,
    )


def _theta_stencils(theta_ext: np.ndarray, m: int):
    # Five-point differentiation weights at each interior latitude, from the
    # local Vandermonde system on the (smoothly graded) node positions.
    v = np.empty((m, 5, 5))
    rhs = np.zeros((m, 5, 2))
    for i in range(m):
        xi = theta_ext[i : i + 5] - theta_ext[i + 2]
        for j in range(5):
            v[i, j] = xi**j
    rhs[:, 1, 0] = 1.0
    rhs[:, 2, 1] = 2.0
    w = np.linalg.solve(v, rhs)
    return w[:, :, 0], w[:, :, 1]


@functools.lru_cache(maxsize=8)
def full_grid(n_lat: int = 128, n_lon: int = 256) -> SphereGrid:
    """Latitude-longitude tensor grid on S^2 (ambient dimension 3 only)."""
    if n_lat < 8 or n_lon < 8:
        raise ValueError("need at least 8 nodes per direction")
    if n_lon % 2 != 0:
        raise ValueError("longitude count must be even (pole reflection)")
    x, w = _gauss_jacobi(n_lat, 0.0)
    order = np.argsort(-x)
    x, w = x[order], w[order]
    theta = np.arccos(x)
    dphi = 2.0 * math.pi / n_lon
    phi = dphi * np.arange(n_lon)
    weights = np.broadcast_to((w * dphi)[:, None], (n_lat, n_lon)).copy()
    weights *= unit_sphere_area(3) / weights.sum()
    theta_ext = np.concatenate(
        [[-theta[1], -theta[0]], theta, [2 * math.pi - theta[-1], 2 * math.pi - theta[-2]]]
    )
    w1, w2 = _theta_stencils(theta_ext, n_lat)
    return SphereGrid(
        n=3,
        mode="full",
        theta=theta,
        x=x,
        weights=weights,
        phi=phi,
        _theta_ext=theta_ext,
        _w1=w1,
        _w2=w2,
    )


def make_grid(n: int, mode: str = "axisymmetric", resolution: int = 128) -> SphereGrid:
    """Factory used by the CLI: resolution means nodes (axisymmetric) or latitudes."""
    if mode == "axisymmetric":
        return axisymmetric_grid(n, resolution)
    if mode == "full":
        if n != 3:
            raise ValueError("full grids are implemented for n = 3 only")
        return full_grid(resolution, 2 * resolution)
    raise ValueError(f"unknown grid mode {mode!r}")


# ---------------------------------------------------------------------------
# surfaces


@dataclass(eq=False)
class StarShapedSurface:
    """Positive radial graph over a sphere grid.

    rho is a read-only copy of the given values, and :func:`curvature`
    stores its result on the surface, so neither field is rebound.
    """

    grid: SphereGrid
    rho: np.ndarray
    label: str = ""
    _curvature: CurvatureData | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.rho = np.array(self.rho, dtype=float)
        self.rho.flags.writeable = False
        if self.rho.shape != self.grid.shape:
            raise ValueError(
                f"rho shape {self.rho.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.rho)) or np.any(self.rho <= 0.0):
            raise ValueError("rho must be positive at every node (star-shaped)")


@dataclass(eq=False)
class CurvatureData:
    """Per-node curvature output of :func:`curvature`.

    H is the mean curvature (sum of principal curvatures) w.r.t. the outward
    normal, A2 = |A|^2, K = (H^2 - |A|^2)/2 and R_k = 2K.  dA holds the area
    element already multiplied by the quadrature weight, so sums over nodes
    are surface integrals.  nu are outward unit normals: meridian (R, Z)
    components in axisymmetric mode, ambient 3-vectors on full grids.
    points holds node positions in the same components.  Every array is
    read-only: the instance is shared by all callers of :func:`curvature`.
    """

    H: np.ndarray
    A2: np.ndarray
    K: np.ndarray
    Rk: np.ndarray
    dA: np.ndarray
    nu: np.ndarray
    points: np.ndarray
    kappa_mer: np.ndarray | None = None
    kappa_orb: np.ndarray | None = None


def make_sphere(grid: SphereGrid, radius: float) -> StarShapedSurface:
    """Round sphere of the given radius."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    return StarShapedSurface(grid, np.full(grid.shape, float(radius)), label=f"sphere r={radius}")


def make_spheroid(grid: SphereGrid, equatorial: float, polar: float) -> StarShapedSurface:
    """Spheroid with equatorial radius a and polar radius c (axis of symmetry z)."""
    if equatorial <= 0.0 or polar <= 0.0:
        raise ValueError("radii must be positive")
    a, c = float(equatorial), float(polar)
    x = grid.x
    rho_1d = a * c / np.sqrt(c * c + (a * a - c * c) * x * x)
    if grid.mode == "full":
        rho = np.broadcast_to(rho_1d[:, None], grid.shape)
    else:
        rho = rho_1d
    return StarShapedSurface(grid, rho, label=f"spheroid a={a} c={c}")


def random_convex_surface(
    grid: SphereGrid,
    rng: np.random.Generator | int,
    amplitude: float = 0.12,
    max_degree: int = 6,
    radius: float = 1.0,
) -> StarShapedSurface:
    """Seeded random strictly convex axisymmetric surface.

    Draws Legendre coefficients for degrees 2..max_degree and shrinks them
    until both principal curvatures are strictly positive everywhere.
    """
    if grid.mode != "axisymmetric":
        raise ValueError("random convex surfaces are generated on axisymmetric grids")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    degrees = np.arange(2, max_degree + 1)
    coef = rng.uniform(-1.0, 1.0, size=degrees.size) * amplitude / degrees**2
    for _ in range(40):
        full = np.zeros(max_degree + 1)
        full[2:] = coef
        rho = radius * (1.0 + legval(grid.x, full))
        if np.all(rho > 0.05 * radius):
            surface = StarShapedSurface(grid, rho, label="random convex")
            curv = curvature(surface)
            floor = 0.02 / radius
            if curv.kappa_mer.min() > floor and curv.kappa_orb.min() > floor:
                return surface
        coef = coef * 0.6
    raise RuntimeError("failed to generate a convex surface; lower the amplitude")


def random_star_surface(grid: SphereGrid, rng: np.random.Generator | int, amplitude: float = 0.15) -> StarShapedSurface:
    """Seeded random star-shaped (not necessarily convex) surface on a full grid.

    The radial function is a low-order polynomial in the ambient direction
    cosines, hence smooth across the poles.
    """
    if grid.mode != "full":
        raise ValueError("random star surfaces are generated on full grids")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    a = rng.uniform(-amplitude, amplitude, size=6)
    st, ct = np.sin(grid.theta)[:, None], np.cos(grid.theta)[:, None]
    cp, sp = np.cos(grid.phi)[None, :], np.sin(grid.phi)[None, :]
    nx, ny, nz = st * cp, st * sp, ct * np.ones_like(cp)
    rho = 1.0 + a[0] * nz + a[1] * nx * ny + a[2] * (nx * nx - ny * ny) + a[3] * nx * nz + a[4] * ny + a[5] * nz * nz
    return StarShapedSurface(grid, rho, label="random star-shaped")


# ---------------------------------------------------------------------------
# derivatives


def _axi_derivs(grid: SphereGrid, rho: np.ndarray):
    rho_x = grid._d1 @ rho
    rho_xx = grid._d2 @ rho
    return rho_x, rho_xx


def _full_theta_extend(grid: SphereGrid, f: np.ndarray) -> np.ndarray:
    # Ghost rows continue the function smoothly through the poles: a point
    # just past the pole equals the antipodal-longitude value.
    north, south = f[[1, 0], :], f[[-1, -2], :]
    shift = f.shape[1] // 2  # 0 for the one-column axisymmetric work array
    if shift:
        north = np.roll(north, shift, axis=1)
        south = np.roll(south, shift, axis=1)
    return np.concatenate([north, f, south], axis=0)


def _full_theta_apply(grid: SphereGrid, f: np.ndarray, which: int) -> np.ndarray:
    w = grid._w1 if which == 1 else grid._w2
    ext = _full_theta_extend(grid, f)
    m = f.shape[0]
    out = w[:, 0:1] * ext[0:m]
    for j in range(1, 5):
        out = out + w[:, j : j + 1] * ext[j : j + m]
    return out


def _full_phi_d1(f: np.ndarray, dphi: float) -> np.ndarray:
    if f.shape[1] == 1:
        return np.zeros_like(f)
    return (
        8.0 * (np.roll(f, -1, axis=1) - np.roll(f, 1, axis=1))
        - (np.roll(f, -2, axis=1) - np.roll(f, 2, axis=1))
    ) / (12.0 * dphi)


def _full_phi_d2(f: np.ndarray, dphi: float) -> np.ndarray:
    if f.shape[1] == 1:
        return np.zeros_like(f)
    return (
        -np.roll(f, -2, axis=1)
        + 16.0 * np.roll(f, -1, axis=1)
        - 30.0 * f
        + 16.0 * np.roll(f, 1, axis=1)
        - np.roll(f, 2, axis=1)
    ) / (12.0 * dphi * dphi)


def _full_fundamental(grid: SphereGrid, rho: np.ndarray):
    """First and second fundamental form scalars on a full grid.

    Returns (E, F, G, L, M, N, Wt, rho_t, rho_p) where Wt^2 = rho^2 +
    |grad rho|^2.  Exactly axisymmetric input (identical longitude columns)
    takes a meridian fast path on a single column; the result is the same
    field broadcast, which also keeps such data axisymmetric to the last bit
    during flows.
    """
    axisym = rho.shape[1] > 1 and bool(np.all(rho == rho[:, :1]))
    work = rho[:, :1] if axisym else rho
    dphi = 2.0 * math.pi / grid.phi.size

    st = np.sin(grid.theta)[:, None]
    ct = np.cos(grid.theta)[:, None]

    rho_t = _full_theta_apply(grid, work, 1)
    rho_tt = _full_theta_apply(grid, work, 2)
    rho_p = _full_phi_d1(work, dphi)
    rho_tp = _full_phi_d1(rho_t, dphi)
    rho_pp = _full_phi_d2(work, dphi)

    grad2 = rho_t**2 + (rho_p / st) ** 2
    wt2 = work**2 + grad2
    if not (0.0 < wt2.min() and wt2.max() < math.inf):  # also catches NaN
        raise DegenerateMetricError("induced metric degenerated")
    wt = np.sqrt(wt2)

    e = rho_t**2 + work**2
    f = rho_t * rho_p
    g = rho_p**2 + (work * st) ** 2

    if axisym:
        ll = (work**2 + 2.0 * rho_t**2 - work * rho_tt) / wt
        mm = np.zeros_like(work)
        nn = work * st * (work * st - rho_t * ct) / wt
    else:
        # nu = (rho n - grad rho) / Wt expanded on the frame (n, n_t, n_p):
        # <n, nu> = rho/Wt, <n_t, nu> = -rho_t/Wt, <n_p, nu> = -rho_p/Wt
        # (n_p has squared norm sin^2 theta).
        ll = (work**2 + 2.0 * rho_t**2 - work * rho_tt) / wt
        mm = (2.0 * rho_t * rho_p + work * rho_p * ct / st - work * rho_tp) / wt
        nn = (
            (work * st) ** 2
            + 2.0 * rho_p**2
            - work * rho_pp
            - work * rho_t * st * ct
        ) / wt
    return e, f, g, ll, mm, nn, wt, rho_t, rho_p, work, axisym


def _axi_geometry(grid: SphereGrid, rho: np.ndarray):
    """Principal curvatures and area factor for an axisymmetric surface.

    Everything is expressed through x = cos(theta) derivatives, which keeps
    the formulas division-free at the poles.
    """
    x = grid.x
    rho_x, rho_xx = _axi_derivs(grid, rho)
    one_m_x2 = 1.0 - x * x
    grad2 = one_m_x2 * rho_x**2
    w2 = rho**2 + grad2
    if not (0.0 < w2.min() and w2.max() < math.inf):  # also catches NaN
        raise DegenerateMetricError("induced metric degenerated")
    w = np.sqrt(w2)
    kappa_orb = (rho + x * rho_x) / (rho * w)
    kappa_mer = (rho**2 + 2.0 * grad2 + rho * x * rho_x - rho * one_m_x2 * rho_xx) / (w2 * w)
    return kappa_mer, kappa_orb, w, rho_x


# ---------------------------------------------------------------------------
# curvature and integrals


def curvature(surface: StarShapedSurface) -> CurvatureData:
    """All curvature fields of the surface, with respect to the outward normal.

    Evaluated once per surface; later calls return the stored result.
    """
    if surface._curvature is None:
        curv = _curvature(surface)
        _freeze(curv.H, curv.A2, curv.K, curv.Rk, curv.dA, curv.nu, curv.points,
                curv.kappa_mer, curv.kappa_orb)
        surface._curvature = curv
    return surface._curvature


def _curvature(surface: StarShapedSurface) -> CurvatureData:
    grid, rho = surface.grid, surface.rho
    n = grid.n
    if grid.mode == "axisymmetric":
        kmer, korb, w, rho_x = _axi_geometry(grid, rho)
        h = kmer + (n - 2) * korb
        a2 = kmer**2 + (n - 2) * korb**2
        kk = (n - 2) * kmer * korb + 0.5 * (n - 2) * (n - 3) * korb**2
        da = grid.weights * rho ** (n - 2) * w
        st = np.sin(grid.theta)
        ct = grid.x
        rho_t = -st * rho_x
        nu = np.stack(
            [(rho * st - rho_t * ct) / w, (rho * ct + rho_t * st) / w], axis=-1
        )
        points = np.stack([rho * st, rho * ct], axis=-1)
        return CurvatureData(
            H=h, A2=a2, K=kk, Rk=2.0 * kk, dA=da, nu=nu, points=points,
            kappa_mer=kmer, kappa_orb=korb,
        )

    e, f, g, ll, mm, nn, wt, rho_t, rho_p, work, axisym = _full_fundamental(grid, rho)
    det = e * g - f * f
    if not det.min() > 0.0:
        raise DegenerateMetricError("induced metric degenerated")
    h = (e * nn - 2.0 * f * mm + g * ll) / det
    kgauss = (ll * nn - mm * mm) / det
    a2 = h * h - 2.0 * kgauss
    da = grid.weights * work * wt
    shape = grid.shape
    st = np.sin(grid.theta)[:, None]
    ct = np.cos(grid.theta)[:, None]
    cp = np.cos(grid.phi)[None, :]
    sp = np.sin(grid.phi)[None, :]
    nhat = np.stack([st * cp, st * sp, ct * np.ones_like(cp)], axis=-1)
    that = np.stack([ct * cp, ct * sp, -st * np.ones_like(cp)], axis=-1)
    phat = np.stack([-sp * np.ones_like(st), cp * np.ones_like(st), np.zeros(shape)], axis=-1)
    gt = np.broadcast_to(rho_t, shape)[..., None]
    gp = np.broadcast_to(rho_p / st, shape)[..., None]
    rr = np.broadcast_to(work, shape)[..., None]
    wt_b = np.broadcast_to(wt, shape)
    nu = (rr * nhat - gt * that - gp * phat) / wt_b[..., None]
    points = rr * nhat
    return CurvatureData(
        H=np.broadcast_to(h, shape).copy(),
        A2=np.broadcast_to(a2, shape).copy(),
        K=np.broadcast_to(kgauss, shape).copy(),
        Rk=np.broadcast_to(2.0 * kgauss, shape).copy(),
        dA=np.broadcast_to(da, shape).copy(),
        nu=nu,
        points=points,
    )


def mean_curvature_speed(grid: SphereGrid, rho: np.ndarray):
    """(H, W) at rho: the mean curvature and the area factor used by the flow.

    W = sqrt(rho^2 + |grad rho|^2), so the area element is
    weights * rho^(n-2) * W and the radial speed of the flow is (W / rho) / H
    (W / rho converts unit normal speed into radial speed).  Both arrays have
    the grid's shape; for exactly axisymmetric data on a full grid they are
    broadcast views of one meridian column.
    """
    n = grid.n
    if grid.mode == "axisymmetric":
        kmer, korb, w, _ = _axi_geometry(grid, rho)
        return kmer + (n - 2) * korb, w
    e, f, g, ll, mm, nn, wt, _, _, _, axisym = _full_fundamental(grid, rho)
    det = e * g - f * f
    if not det.min() > 0.0:
        raise DegenerateMetricError("induced metric degenerated")
    h = (e * nn - 2.0 * f * mm + g * ll) / det
    if axisym:
        h = np.broadcast_to(h, grid.shape)
        wt = np.broadcast_to(wt, grid.shape)
    return h, wt


def area(surface: StarShapedSurface) -> float:
    """Surface area by quadrature."""
    return float(curvature(surface).dA.sum())


def total_mean_curvature(surface: StarShapedSurface) -> float:
    """Integral of H over the surface."""
    curv = curvature(surface)
    return float((curv.H * curv.dA).sum())


def total_intrinsic_curvature(surface: StarShapedSurface) -> float:
    """Integral of the intrinsic scalar curvature R_k over the surface."""
    curv = curvature(surface)
    return float((curv.Rk * curv.dA).sum())


def yamabe_quotients(surface: StarShapedSurface) -> tuple[float, float]:
    """Yamabe quotient and its value relative to the round unit sphere.

    Y = (integral of R_k) / area^((n-3)/(n-1)); the relative quotient divides
    by Y of the unit sphere computed with the same quadrature pipeline, so
    round spheres give exactly 1 regardless of resolution.  The unit
    sphere's Y is computed once per grid and kept on it.
    """
    grid = surface.grid
    expo = (grid.n - 3) / (grid.n - 1)

    def quotient(curv):
        return float((curv.Rk * curv.dA).sum()) / float(curv.dA.sum()) ** expo

    if grid._unit_yamabe is None:
        grid._unit_yamabe = quotient(curvature(make_sphere(grid, 1.0)))
    y = quotient(curvature(surface))
    return y, y / grid._unit_yamabe


def charge_flux(surface: StarShapedSurface, field) -> float:
    """Normalized flux (1/omega_{n-1}) integral of <E, nu> over the surface.

    ``field`` is either an array of per-node vectors (meridian (R, Z)
    components in axisymmetric mode, ambient 3-vectors on full grids) or a
    callable mapping node positions to such vectors.
    """
    curv = curvature(surface)
    vec = field(curv.points) if callable(field) else np.asarray(field, dtype=float)
    if vec.shape != curv.nu.shape:
        raise ValueError(f"field shape {vec.shape} does not match nodes {curv.nu.shape}")
    integrand = (vec * curv.nu).sum(axis=-1)
    return float((integrand * curv.dA).sum()) / unit_sphere_area(surface.grid.n)


def radial_inverse_power_field(charge: float, n: int):
    """The flat divergence-free radial field with the given charge.

    E(p) = charge * p / |p|^n, so |E| = charge / |p|^(n-1) and the normalized
    flux through any closed hypersurface enclosing the origin equals the
    charge.  Works on meridian (R, Z) or ambient coordinates alike.
    """
    if not math.isfinite(charge):
        raise ValueError(f"charge must be finite, got {charge!r}")

    def evaluate(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        rad = np.sqrt((pts**2).sum(axis=-1))
        return charge * pts / rad[..., None] ** n

    return evaluate


def newton_maclaurin_margin(curv: CurvatureData, n: int) -> np.ndarray:
    """Pointwise margin ((n-2)/(n-1)) H^2 - 2K, nonnegative for real principal curvatures."""
    return ((n - 2) / (n - 1)) * curv.H**2 - 2.0 * curv.K


# ---------------------------------------------------------------------------
# text table import/export


def save_surface(surface: StarShapedSurface, path, field: np.ndarray | None = None) -> None:
    """Write the surface (and optionally a per-node field) as a text table.

    Header lines start with '#' and record the grid mode, the dimension and
    the resolution; each following line holds the node angles, rho and, when
    given, the field components for one node.
    """
    grid = surface.grid
    buf = io.StringIO()
    buf.write("# chargedbh surface table v1\n")
    buf.write(f"# mode: {grid.mode}\n")
    buf.write(f"# n: {grid.n}\n")
    if grid.mode == "axisymmetric":
        buf.write(f"# nodes: {grid.theta.size}\n")
        cols = "theta rho" + (" fR fZ" if field is not None else "")
        buf.write(f"# columns: {cols}\n")
        for i in range(grid.theta.size):
            row = [grid.theta[i], surface.rho[i]]
            if field is not None:
                row.extend(field[i])
            buf.write(" ".join(f"{v:.17g}" for v in row) + "\n")
    else:
        buf.write(f"# nlat: {grid.theta.size}\n")
        buf.write(f"# nlon: {grid.phi.size}\n")
        cols = "theta phi rho" + (" fx fy fz" if field is not None else "")
        buf.write(f"# columns: {cols}\n")
        for i in range(grid.theta.size):
            for j in range(grid.phi.size):
                row = [grid.theta[i], grid.phi[j], surface.rho[i, j]]
                if field is not None:
                    row.extend(field[i, j])
                buf.write(" ".join(f"{v:.17g}" for v in row) + "\n")
    with open(path, "w") as handle:
        handle.write(buf.getvalue())


def load_surface(path) -> tuple[StarShapedSurface, np.ndarray | None]:
    """Read a surface table written by :func:`save_surface`.

    Raises ValueError for a missing header key, an unknown grid mode, too
    few columns, or rows that do not match the declared grid's nodes.
    """
    meta = {}
    rows = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    key, _, value = body.partition(":")
                    meta[key.strip()] = value.strip()
                continue
            rows.append([float(tok) for tok in line.split()])

    def header(key):
        if key not in meta:
            raise ValueError(f"surface table header misses {key!r}")
        return meta[key]

    n, mode = int(header("n")), header("mode")
    if mode == "axisymmetric":
        shape, n_angles, n_field = (int(header("nodes")),), 1, 2
    elif mode == "full":
        if n != 3:
            raise ValueError("full grids are implemented for n = 3 only")
        shape, n_angles, n_field = (int(header("nlat")), int(header("nlon"))), 2, 3
    else:
        raise ValueError(f"unknown grid mode {mode!r}")
    # rows are counted before the grid is built, so a wrong header cannot
    # demand a large grid
    data = np.asarray(rows, dtype=float)
    if data.ndim != 2 or data.shape[0] != math.prod(shape):
        raise ValueError("row count does not match declared resolution")
    if data.shape[1] <= n_angles:
        raise ValueError(f"{mode} surface rows need {n_angles + 1} columns (angles, rho)")
    if mode == "axisymmetric":
        grid = axisymmetric_grid(n, *shape)
        angles = grid.theta[:, None]
    else:
        grid = full_grid(*shape)
        angles = np.stack(np.meshgrid(grid.theta, grid.phi, indexing="ij"), axis=-1)
    if not np.all(np.abs(data[:, :n_angles] - angles.reshape(-1, n_angles)) <= 1e-9):
        raise ValueError("node angles do not match the declared grid")
    rho = data[:, n_angles].reshape(shape)
    cols = slice(n_angles + 1, n_angles + 1 + n_field)
    field = data[:, cols].reshape(shape + (n_field,)) if data.shape[1] >= cols.stop else None
    return StarShapedSurface(grid, rho, label="loaded"), field
