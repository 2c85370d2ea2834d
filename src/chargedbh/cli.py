"""Command-line front end: exact-solution reports, flow runs, data
verification and closed-form parameter sweeps.

Exit codes are stable for scripting: 0 success, 2 input/parameter error,
3 flow breakdown (partial CSV still written), 4 dominant-energy-condition
failure (residual profile still written).  CSV numbers carry 17 significant
digits; JSON documents are emitted with sorted keys so identical
configurations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import exact_rnt as rnt
from . import graph_data as gd
from . import imcf
from . import inequalities as ineq
from . import surface_geometry as sg

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BREAKDOWN = 3
EXIT_ENERGY = 4

MONOTONICITY_TOLERANCE = 1e-8
ENERGY_TOLERANCE = 1e-9


@dataclass
class RunConfig:
    """Validated run parameters shared by the subcommands."""

    command: str
    n: int = 3
    m: float = 1.0
    q: float = 0.0
    data_path: str | None = None
    mode: str = "axisymmetric"
    resolution: int = 128
    t_end: float = 1.0
    dt: float = 1e-3
    sample_every: int = 10
    charge: float = 0.0
    safety_factor: float = 1.0
    jobs: int = 1
    seed: int = 0
    csv_path: str | None = None
    json_path: str | None = None

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("dimension must satisfy n >= 3")
        if self.resolution < 8:
            raise ValueError("resolution must be >= 8")
        if self.t_end <= 0.0 or self.dt <= 0.0:
            raise ValueError("t_end and dt must be positive")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


def _default_resolution() -> int:
    return int(os.environ.get("CPL_DEFAULT_RES", "128"))


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return f"{float(value):.17g}"


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def write_json(document: dict, path: str | None) -> None:
    text = json.dumps(_jsonify(document), indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def write_csv(header: list[str], rows: list[list], path: str) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# rnt-report


def cmd_rnt_report(config: RunConfig) -> int:
    params = rnt.RntParams(config.n, config.m, config.q)
    r_minus, r_plus = rnt.horizon_radii(params)  # may raise -> exit 2 upstream
    area = rnt.horizon_area(params)
    sample_radii = [r_plus * f for f in (1.0, 1.25, 1.5, 2.0, 4.0, 8.0, 16.0)]
    lapse_samples = [{"r": r, "psi": rnt.lapse(params, r)} for r in sample_radii]
    curv_samples = [
        {"r": r, "R": rnt.rnt_scalar_curvature(params, r)} for r in sample_radii
    ]
    if params.extremal:
        embedding = []
        note = "n/a: embedding undefined in the extremal case m = |q|"
    else:
        radii = np.array(sample_radii)
        u = rnt.embed_profile(params, radii)
        embedding = [{"r": float(r), "u": float(v)} for r, v in zip(radii, u)]
        note = "ok"
    certificates = [
        rep.to_dict()
        for rep in ineq.penrose_report(params.m, area, params.q, params.n, tolerance=1e-10)
    ]
    document = {
        "n": params.n,
        "m": params.m,
        "q": params.q,
        "extremal": params.extremal,
        "r_minus": r_minus,
        "r_plus": r_plus,
        "horizon_area": area,
        "area_radius_power": rnt.area_radius_power(area, params.n),
        "lapse_samples": lapse_samples,
        "scalar_curvature_samples": curv_samples,
        "embedding": embedding,
        "embedding_note": note,
        "certificates": certificates,
    }
    write_json(document, config.json_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# imcf-run


def _build_surface(config: RunConfig, args) -> sg.StarShapedSurface:
    if args.surface:
        surface, _ = sg.load_surface(args.surface)
        if surface.grid.n != config.n:
            raise ValueError("surface file dimension does not match --n")
        return surface
    grid = sg.make_grid(config.n, config.mode, config.resolution)
    if args.shape == "sphere":
        return sg.make_sphere(grid, args.radius)
    if args.shape == "spheroid":
        return sg.make_spheroid(grid, args.a, args.c)
    if args.shape == "random-convex":
        if config.mode != "axisymmetric":
            raise ValueError("random-convex initial surfaces need the axisymmetric mode")
        return sg.random_convex_surface(grid, config.seed)
    raise ValueError(f"unknown shape {args.shape!r}")


def cmd_imcf_run(config: RunConfig, args) -> int:
    surface = _build_surface(config, args)
    run = imcf.run_flow(
        surface,
        config.t_end,
        config.dt,
        sample_every=config.sample_every,
        safety_factor=config.safety_factor,
    )
    field = sg.radial_inverse_power_field(config.charge, config.n)
    chain = imcf.flux_chain(run.states, field)

    header = ["t", "area", "intH", "roundness", "M", "I0", "I1", "I2"]
    rows = []
    for state, sample in zip(run.states, chain.samples):
        mon = state.monitors
        rows.append(
            [
                state.t,
                mon.area,
                mon.total_mean_curvature,
                mon.roundness,
                mon.mass_decay,
                sample.i0,
                sample.i1,
                sample.i2,
            ]
        )
    if config.csv_path:
        write_csv(header, rows, config.csv_path)

    decay = [s.monitors.mass_decay for s in run.states]
    increases = [b - a for a, b in zip(decay[:-1], decay[1:])]
    max_increase = max(increases) if increases else 0.0
    ordered = all(
        s.i0 >= s.i1 - MONOTONICITY_TOLERANCE and s.i1 >= s.i2 - MONOTONICITY_TOLERANCE
        for s in chain.samples
    )
    final = run.states[-1]
    summary = {
        "n": config.n,
        "grid_mode": surface.grid.mode,
        "resolution": config.resolution,
        "t_end": config.t_end,
        "dt": config.dt,
        "sample_every": config.sample_every,
        "n_samples": len(run.states),
        "completed": run.completed,
        "breakdown": None
        if run.completed
        else {"time": run.breakdown.time, "message": run.breakdown.message},
        "monotonicity": {
            "decay_non_increasing": bool(max_increase <= MONOTONICITY_TOLERANCE),
            "max_decay_increase": float(max_increase),
            "tolerance": MONOTONICITY_TOLERANCE,
        },
        "chain": {
            "charge": chain.charge,
            "ordered": bool(ordered),
            "time_integral": chain.time_integral,
            "bulk_bound_estimate": chain.bulk_bound_estimate,
            "closed_form_limit": chain.closed_form_limit,
        },
        "final": {
            "t": final.t,
            "area": final.monitors.area,
            "total_mean_curvature": final.monitors.total_mean_curvature,
            "roundness": final.monitors.roundness,
            "mass_decay": final.monitors.mass_decay,
        },
    }
    write_json(summary, config.json_path)
    return EXIT_OK if run.completed else EXIT_BREAKDOWN


# ---------------------------------------------------------------------------
# verify


def cmd_verify(config: RunConfig, args) -> int:
    data = gd.load_graph_data(config.data_path)
    n = data.n
    base = max(data.r_start, 1.0)
    lo = data.r_start * (1.0 + 1e-6) if data.r_start > 0 else 1e-3 * base
    r_grid = np.geomspace(lo, 1e4 * base, 200)
    residual = gd.energy_condition_residual(data, r_grid)
    min_res = float(residual.min())
    scale = max(1.0, float(np.max(np.abs(residual))))
    energy_ok = min_res >= -ENERGY_TOLERANCE * scale

    sigma = data.decay_sigma
    document = {
        "data": {
            "n": n,
            "label": data.label,
            "r_start": data.r_start,
            "horizon": data.horizon,
            "decay_sigma": float(sigma) if sigma is not None and math.isfinite(sigma) else None,
        },
        "charge": data.charge,
        "energy_condition": {
            "ok": bool(energy_ok),
            "min_residual": min_res,
            "tolerance": ENERGY_TOLERANCE,
        },
    }

    if not energy_ok:
        document["energy_condition"]["residual_profile"] = [
            {"r": float(r), "residual": float(v)} for r, v in zip(r_grid, residual)
        ]
        document["mass"] = None
        document["adm_mass_limit"] = None
        document["certificates"] = []
        document["not_applicable"] = []
        write_json(document, config.json_path)
        print("energy condition violated: data rejected", file=sys.stderr)
        return EXIT_ENERGY

    with warnings.catch_warnings():
        # the uncertainty goes into the JSON as mass.tail_uncertainty
        warnings.simplefilter("ignore", gd.TruncationWarning)
        breakdown = gd.mass_via_formula(data)
    document["mass"] = {
        "boundary_term": breakdown.boundary_term,
        "bulk_term": breakdown.bulk_term,
        "total": breakdown.total,
        "dec_residual_min": breakdown.dec_residual_min,
        "tail_estimate": breakdown.tail_estimate,
        "r_max": breakdown.r_max,
        "tail_uncertainty": breakdown.tail_uncertainty,
    }
    radii = [1e2 * base, 1e3 * base, 1e4 * base]
    document["adm_mass_limit"] = gd.adm_mass_limit(data, radii)

    certificates = []
    not_applicable = []
    if data.horizon:
        area = rnt.unit_sphere_area(n) * data.r_start ** (n - 1)
        certificates.extend(
            ineq.penrose_report(breakdown.total, area, data.charge, n, tolerance=1e-6,
                                provenance="quadrature")
        )
        grid = sg.make_grid(n, "axisymmetric", config.resolution)
        horizon = sg.make_sphere(grid, data.r_start)
        field = sg.radial_inverse_power_field(data.charge, n)
        reports, skipped = ineq.theorem_certificates(
            horizon, data, field=field, mass=breakdown.total
        )
        certificates.extend(reports)
        not_applicable.extend(skipped)
    else:
        certificates.append(
            ineq.make_report(
                "positive-mass",
                breakdown.total,
                abs(data.charge),
                1e-6,
                "quadrature",
                {"mass": breakdown.total, "charge": data.charge, "n": n},
            )
        )
    document["certificates"] = [rep.to_dict() for rep in certificates]
    document["not_applicable"] = not_applicable
    write_json(document, config.json_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


_SWEEP_HEADER = [
    "n",
    "m",
    "q",
    "extremal",
    "r_minus",
    "r_plus",
    "horizon_area",
    "area_radius_power",
    "penrose_slack",
    "penrose_lower_slack",
    "penrose_upper_slack",
    "positive_mass_slack",
    "u_at_2rplus",
    "error",
]


def _sweep_row(point) -> list:
    n, m, q = point
    try:
        params = rnt.RntParams(n, m, q)
        r_minus, r_plus = rnt.horizon_radii(params)
    except (ValueError, rnt.NakedSingularityError) as err:
        return [n, m, q, "", "", "", "", "", "", "", "", "", "", str(err)]
    area = rnt.horizon_area(params)
    reports = {rep.name: rep for rep in ineq.penrose_report(m, area, q, n)}
    if params.extremal:
        u_sample = "n/a"
    else:
        u_sample = float(rnt.embed_profile(params, np.array([2.0 * r_plus]))[0])
    return [
        n,
        m,
        q,
        "yes" if params.extremal else "no",
        r_minus,
        r_plus,
        area,
        rnt.area_radius_power(area, n),
        reports["penrose"].slack,
        reports["penrose-lower"].slack if "penrose-lower" in reports else "n/a",
        reports["penrose-upper"].slack if "penrose-upper" in reports else "n/a",
        reports["positive-mass"].slack,
        u_sample,
        "",
    ]


def cmd_sweep(config: RunConfig, args) -> int:
    n_values = [int(v) for v in args.n_list.split(",") if v.strip()]
    m_values = [float(v) for v in args.m_list.split(",") if v.strip()]
    q_values = [float(v) for v in args.q_list.split(",") if v.strip()]
    if not n_values or not m_values or not q_values:
        raise ValueError("empty parameter grid")
    points = [
        (n, m, (q * m if args.q_rel else q))
        for n in n_values
        for m in m_values
        for q in q_values
    ]
    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            rows = list(pool.map(_sweep_row, points))
    else:
        rows = [_sweep_row(p) for p in points]
    if config.csv_path:
        write_csv(_SWEEP_HEADER, rows, config.csv_path)
    else:
        sys.stdout.write(",".join(_SWEEP_HEADER) + "\n")
        for row in rows:
            sys.stdout.write(",".join(_fmt(v) for v in row) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chargedbh",
        description="Charged black-hole initial data, inverse mean curvature flow "
        "and inequality certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rnt-report", help="closed-form report for one (n, m, q)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--out", dest="json_path", default=None, help="JSON output path (default stdout)")

    p = sub.add_parser("imcf-run", help="inverse mean curvature flow run")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--mode", choices=["axisymmetric", "full"], default="axisymmetric")
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--shape", choices=["sphere", "spheroid", "random-convex"], default="sphere")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--a", type=float, default=1.0, help="spheroid equatorial radius")
    p.add_argument("--c", type=float, default=2.0, help="spheroid polar radius")
    p.add_argument("--surface", default=None, help="initial surface table file")
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--sample-every", type=int, default=10)
    p.add_argument("--charge", type=float, default=0.0, help="charge of the radial comparison field")
    p.add_argument(
        "--safety-factor", type=float, default=1.0,
        help="multiplies the RK4 substep bound 2 min((H rho)^2) / lambda_max",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", dest="csv_path", default=None)
    p.add_argument("--json", dest="json_path", default=None)

    p = sub.add_parser("verify", help="verify a graph data definition file")
    p.add_argument("--data", required=True)
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--out", dest="json_path", default=None)

    p = sub.add_parser("sweep", help="closed-form certificate sweep over a parameter grid")
    p.add_argument("--n-list", required=True, help="comma separated dimensions")
    p.add_argument("--m-list", required=True, help="comma separated masses")
    p.add_argument("--q-list", required=True, help="comma separated charges")
    p.add_argument("--q-rel", action="store_true", help="interpret charges as fractions of m")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--csv", dest="csv_path", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        resolution = getattr(args, "resolution", None) or _default_resolution()
        config = RunConfig(
            command=args.command,
            n=getattr(args, "n", 3),
            m=getattr(args, "m", 1.0),
            q=getattr(args, "q", 0.0),
            data_path=getattr(args, "data", None),
            mode=getattr(args, "mode", "axisymmetric"),
            resolution=resolution,
            t_end=getattr(args, "t_end", 1.0),
            dt=getattr(args, "dt", 1e-3),
            sample_every=getattr(args, "sample_every", 10),
            charge=getattr(args, "charge", 0.0),
            safety_factor=getattr(args, "safety_factor", 1.0),
            jobs=getattr(args, "jobs", 1),
            seed=getattr(args, "seed", 0),
            csv_path=getattr(args, "csv_path", None),
            json_path=getattr(args, "json_path", None),
        )
        if config.command == "rnt-report":
            return cmd_rnt_report(config)
        if config.command == "imcf-run":
            return cmd_imcf_run(config, args)
        if config.command == "verify":
            return cmd_verify(config, args)
        if config.command == "sweep":
            return cmd_sweep(config, args)
        raise ValueError(f"unknown command {config.command!r}")
    except (ValueError, OSError, gd.DecayError, gd.ExtrapolationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
