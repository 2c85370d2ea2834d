"""Parametric inverse mean curvature flow of star-shaped surfaces.

The surface moves with outward normal speed 1/H, written as a radial-graph
evolution d(rho)/dt = graph_factor / H with graph_factor =
sqrt(rho^2 + |grad rho|^2) / rho.  Round spheres evolve exactly as
rho(t) = rho(0) exp(t/(n-1)) and areas grow exactly like exp(t), which is
the validation oracle for the discrete evolution law.

Monitors per sampled state: area, total mean curvature, roundness
(max H / min H - 1) and the decay functional
M(t) = exp(-((n-2)/(n-1)) t) * integral of H, which is non-increasing along
the flow for strictly mean-convex surfaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import surface_geometry as sg
from .exact_rnt import mass_coefficient, unit_sphere_area


class FlowBreakdownError(RuntimeError):
    """Mean curvature lost positivity; carries the breakdown time."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


@dataclass(frozen=True)
class FlowMonitors:
    area: float
    total_mean_curvature: float
    roundness: float
    mass_decay: float  # e^(-((n-2)/(n-1)) t) * integral of H


@dataclass(eq=False)
class FlowState:
    t: float
    surface: sg.StarShapedSurface
    curvature: sg.CurvatureData
    monitors: FlowMonitors


@dataclass(frozen=True)
class FluxChainSample:
    """One sample of the co-area / Cauchy-Schwarz / decay chain.

    i0 = integral of <E, nu>^2 / H, i1 = (integral of H)^(-1) times the
    squared flux, i2 = the closed decay bound; i0 >= i1 >= i2 holds at every
    sample up to quadrature error.
    """

    t: float
    i0: float
    i1: float
    i2: float


@dataclass(eq=False)
class FluxChainResult:
    samples: list[FluxChainSample]
    charge: float
    time_integral: float  # trapezoid over samples of i0 plus analytic tail
    bulk_bound_estimate: float  # (n-2)/(2 omega) * time_integral
    closed_form_limit: float  # Q^2/(4 c_n) / integral of H over the initial surface


@dataclass(frozen=True)
class BreakdownInfo:
    time: float
    message: str


@dataclass(eq=False)
class FlowRun:
    states: list[FlowState]
    breakdown: BreakdownInfo | None = None

    @property
    def completed(self) -> bool:
        return self.breakdown is None


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _decay_rate(n: int) -> float:
    return (n - 2) / (n - 1)


def _make_state(t: float, surface: sg.StarShapedSurface) -> FlowState:
    curv = sg.curvature(surface)
    area = float(curv.dA.sum())
    int_h = float((curv.H * curv.dA).sum())
    hmin, hmax = float(curv.H.min()), float(curv.H.max())
    roundness = hmax / hmin - 1.0 if hmin > 0.0 else math.inf
    m_decay = math.exp(-_decay_rate(surface.grid.n) * t) * int_h
    return FlowState(t, surface, curv, FlowMonitors(area, int_h, roundness, m_decay))


def _speed(grid: sg.SphereGrid, rho: np.ndarray, t: float) -> np.ndarray:
    h, factor = sg.mean_curvature_speed(grid, rho)
    hmin = float(h.min())
    if hmin <= 0.0:
        raise FlowBreakdownError(
            f"mean curvature lost positivity (min H = {hmin:.3e}) at t = {t:.6f}", t
        )
    return factor / h


def _guard_dt(
    grid: sg.SphereGrid, rho: np.ndarray, h: np.ndarray, safety_factor: float
) -> float:
    """Parabolic stability bound 2 min((H rho)^2) / lambda_max * safety_factor.

    ``h`` is the mean curvature at ``rho``.  Linearizing the radial evolution
    law shows the flow diffuses with coefficient 1/(H^2 (rho^2 + |grad rho|^2))
    per unit-sphere Laplacian, so explicit RK4 needs dt < ~2.8 min((H rho)^2)
    / lambda_max with lambda_max the spectral radius of the discrete angular
    operator.  H rho is invariant under rho -> lambda rho, so the bound is
    scale-free like the flow itself: a surface and its dilate take the same
    substeps.  It is the only guard: RK4's time error at the steps it admits
    stays far below the spatial error (a min(H) (spacing)^2 cap, which scales
    like 1/lambda, moved the benchmark flows' final roundness by at most
    3e-10 relative while costing four times the substeps).  Longitude
    stiffness is dropped for exactly axisymmetric data on full grids: such
    data stays axisymmetric to the last bit, so longitude modes carry no
    amplitude.
    """
    if float(h.min()) <= 0.0:
        raise FlowBreakdownError("mean curvature not positive", math.nan)
    c_min = float(np.min((h * rho) ** 2))
    if grid.mode == "axisymmetric":
        nn = grid.theta.size
        lam = (nn - 1) * (nn + grid.n - 3)
    else:
        dth = float(np.min(np.diff(grid.theta)))
        lam = (16.0 / 3.0) / dth**2
        if not np.all(rho == rho[:, :1]):
            dphi = 2.0 * math.pi / grid.phi.size
            st_min = float(np.sin(grid.theta).min())
            lam += (16.0 / 3.0) / (dphi * st_min) ** 2
    return 2.0 * c_min / lam * safety_factor


def imcf_step(state: FlowState, dt: float, safety_factor: float = 1.0) -> FlowState:
    """Advance the flow by dt with classical RK4, subdividing to the step guard.

    The guard is the parabolic stability bound of :func:`_guard_dt` times
    ``safety_factor``, evaluated from the state's own H; a requested dt
    above it is split into equal substeps, four speed evaluations each.
    Raises :class:`FlowBreakdownError` if H loses positivity at any stage,
    and ValueError unless dt and safety_factor are finite and positive.
    """
    _require_positive("dt", dt)
    _require_positive("safety_factor", safety_factor)
    grid = state.surface.grid
    rho = state.surface.rho
    guard = _guard_dt(grid, rho, state.curvature.H, safety_factor)
    nsub = max(1, int(math.ceil(dt / guard)))
    if nsub > 2_000_000:
        raise ValueError("step guard demands more than 2e6 substeps; lower dt")
    h = dt / nsub
    t = state.t
    for _ in range(nsub):
        k1 = _speed(grid, rho, t)
        k2 = _speed(grid, rho + 0.5 * h * k1, t)
        k3 = _speed(grid, rho + 0.5 * h * k2, t)
        k4 = _speed(grid, rho + h * k3, t)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    surface = sg.StarShapedSurface(grid, rho, label=state.surface.label)
    new_state = _make_state(state.t + dt, surface)
    if float(new_state.curvature.H.min()) <= 0.0:
        raise FlowBreakdownError(
            f"mean curvature lost positivity after step to t = {new_state.t:.6f}",
            new_state.t,
        )
    return new_state


def run_flow(
    initial: sg.StarShapedSurface,
    t_end: float,
    dt: float,
    sample_every: int = 1,
    safety_factor: float = 1.0,
) -> FlowRun:
    """Flow the surface to t_end, sampling every ``sample_every`` steps.

    The initial surface must be strictly mean convex.  On breakdown the run
    returns the partial trajectory together with the breakdown time instead
    of raising.  t_end and dt must be finite and positive (safety_factor is
    checked by :func:`imcf_step`).
    """
    _require_positive("t_end", t_end)
    _require_positive("dt", dt)
    if not math.isfinite(t_end / dt):
        raise ValueError(f"step count t_end / dt overflows ({t_end!r} / {dt!r})")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    state = _make_state(0.0, initial)
    if float(state.curvature.H.min()) <= 0.0:
        raise ValueError("initial surface is not strictly mean convex")
    states = [state]
    n_steps = int(round(t_end / dt))
    n_steps = max(n_steps, 1)
    try:
        for k in range(1, n_steps + 1):
            state = imcf_step(state, dt, safety_factor=safety_factor)
            if k % sample_every == 0 or k == n_steps:
                states.append(state)
    except FlowBreakdownError as err:
        return FlowRun(states, BreakdownInfo(err.time, str(err)))
    return FlowRun(states)


def flux_chain(states: list[FlowState], field) -> FluxChainResult:
    """Evaluate the flux chain i0 >= i1 >= i2 along a flow and its time integral.

    ``field`` is an ambient vector field evaluator (callable on node
    positions); it must be divergence-free in the flowed region for the
    chain to be meaningful.  The reported integral is the trapezoid rule over
    the samples plus the analytic exponential tail
    (n-1)/(n-2) * (last integrand), the truncation of the infinite-time
    integral appearing in the bulk lower bound.
    """
    if not states:
        raise ValueError("need at least one flow state")
    n = states[0].surface.grid.n
    omega = unit_sphere_area(n)
    rate = _decay_rate(n)

    first = states[0].curvature
    int_h0 = float((first.H * first.dA).sum())
    vec0 = field(first.points)
    charge = float((((vec0 * first.nu).sum(axis=-1)) * first.dA).sum()) / omega

    samples = []
    for state in states:
        curv = state.curvature
        vec = field(curv.points)
        normal_comp = (vec * curv.nu).sum(axis=-1)
        int_h = float((curv.H * curv.dA).sum())
        i0 = float((normal_comp**2 / curv.H * curv.dA).sum())
        i1 = float((normal_comp * curv.dA).sum()) ** 2 / int_h
        i2 = (omega * charge) ** 2 / int_h0 * math.exp(-rate * state.t)
        samples.append(FluxChainSample(state.t, i0, i1, i2))

    times = np.array([s.t for s in samples])
    i0_vals = np.array([s.i0 for s in samples])
    integral = float(np.sum(np.diff(times) * (i0_vals[1:] + i0_vals[:-1]) / 2.0))
    tail = i0_vals[-1] / rate  # = (n-1)/(n-2) * last integrand
    time_integral = integral + float(tail)
    bulk_bound = 0.5 * (n - 2) / omega * time_integral
    closed_form = charge**2 / (4.0 * mass_coefficient(n)) / int_h0
    return FluxChainResult(
        samples=samples,
        charge=charge,
        time_integral=time_integral,
        bulk_bound_estimate=bulk_bound,
        closed_form_limit=closed_form,
    )
