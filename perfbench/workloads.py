"""The benchmark's workloads: seeded inputs, the operations that run the
program on them, and the checks on every output.

An operation is one call into the program: ``chargedbh.cli.main([...])`` or
a short sequence of the package's public functions on one surface.  Only
``call`` is timed.  ``check`` runs afterwards and returns a problem string
(the operation failed) or None.  ``outputs`` returns the bytes that must
repeat exactly from batch to batch, traced or not.

The operations come in four parts, each loading a different route of the
package:

- ``flow-axi``: IMCF in the axisymmetric mode (``imcf`` and the per-call
  overhead of the axisymmetric speed kernel), the two n=4 spheroid flows of
  acceptance criterion 5 plus a round sphere with an exact answer.
- ``flow-full``: the same stepper on the 64x128 lat-lon grid, where the
  speed kernel is bound by array work instead of call overhead.
- ``closed-form``: the closed-form sweep and reports (``exact_rnt``,
  ``inequalities.penrose_report``, CSV/JSON writing); no grid, no flow.
- ``certify``: ``verify`` on generated data files and the horizon
  certificates on random surfaces (``graph_data``, ``surface_geometry``
  curvature and integrals, ``inequalities.theorem_certificates``).

The benchmark has two workloads, ``flow`` (the two flow parts) and
``certify`` (closed-form and certify), so that each run is long enough to
give a steady median on a noisy two-core host; each is the control of the
other, since ``certify`` runs no flow and ``flow`` no closed-form sweep, mass
formula or certificate.  The wall time of each part is reported separately.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from chargedbh import cli
from chargedbh import exact_rnt as rnt
from chargedbh import graph_data as gd
from chargedbh import inequalities as ineq
from chargedbh import surface_geometry as sg


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    outputs: Callable[[object], bytes]
    files: list[str] = field(default_factory=list)  # removed before each call
    surfaces: int = 0  # horizon surfaces evaluated outside a flow
    part: str = ""  # which part of the workload (see the module docstring)


# Final roundness (max H / min H - 1) of each spheroid flow, recorded with the
# package as it was when this benchmark was written; keyed by (mode, n, polar
# radius c, resolution, t_end).  The n=4 values at t=5 are the printouts of
# acceptance criterion 5 (2.51e-2 and 8.38e-3).
REFERENCE_ROUNDNESS = {
    ("axisymmetric", 4, "2", 64, "5"): 0.025077914243781585,
    ("axisymmetric", 4, "0.5", 64, "5"): 0.00837766621045466,
    ("full", 3, "2", 64, "1"): 0.5255475291237146,
    # tiny sizes, used by the warm-up batch and the self-test
    ("axisymmetric", 4, "2", 16, "0.2"): 1.0188628881268644,
    ("axisymmetric", 4, "0.5", 16, "0.2"): 1.5093985170116984,
    ("full", 3, "2", 16, "0.05"): 1.5378081187857204,
}
ROUNDNESS_RTOL = 1e-3
SPHERE_AREA_RTOL = 1e-8
MASS_ATOL = 1e-6  # criterion 2: boundary + bulk formula on the exact family
ADM_ATOL = 1e-4  # criterion 2: Richardson limit of the flux integral
SLACK_RTOL = 1e-10  # closed-form Penrose slack, relative to m
# du/dr is clipped below the first table radius; the resulting quadrature
# error of the boundary + bulk formula is 0.1-0.3% of the mass
TABLE_MASS_RTOL = 1e-2


def _num(value: float) -> str:
    return f"{value:.6g}"


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _cli_op(name, argv, expect, files, check=None, surfaces=0) -> Op:
    """An operation running ``cli.main(argv)``; stderr is captured.

    The call's result is (exit code, stderr text).  The operation fails on
    any other exit code than ``expect`` or when ``check(result)`` names a
    problem.  An expected non-zero exit must print a message; no exit may
    print a traceback.
    """

    def call():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, err.getvalue()

    def run_check(result):
        rc, err = result
        if rc != expect:
            return f"exit {rc}, expected {expect}: {err.strip()[-300:]}"
        if "Traceback" in err:
            return "traceback on stderr"
        if expect != 0 and not err.strip():
            return f"exit {rc} without a message"
        missing = [f for f in files if expect == 0 and not os.path.exists(f)]
        if missing:
            return f"missing output {missing}"
        return check(result) if check else None

    def outputs(result):
        return repr(result[0]).encode() + b"".join(
            _read(f) for f in files if os.path.exists(f)
        )

    return Op(name, call, run_check, outputs, list(files), surfaces)


# ---------------------------------------------------------------------------
# flows


def _flow_op(work, name, n, mode, res, shape_args, t_end, charge, roundness_key=None,
             sphere_radius=None) -> Op:
    json_path = os.path.join(work, name + ".json")
    csv_path = os.path.join(work, name + ".csv")
    argv = ["imcf-run", "--n", str(n), "--mode", mode, "--resolution", str(res),
            *shape_args, "--t-end", t_end, "--dt", "5e-3", "--sample-every", "20",
            "--charge", _num(charge), "--json", json_path, "--csv", csv_path]

    def check(_):
        doc = json.loads(_read(json_path))
        rows = list(csv.DictReader(io.StringIO(_read(csv_path).decode())))
        if not doc["completed"] or doc["breakdown"] is not None:
            return f"flow broke down: {doc['breakdown']}"
        if not doc["monotonicity"]["decay_non_increasing"]:
            return f"decay increased by {doc['monotonicity']['max_decay_increase']:.3e}"
        if not doc["chain"]["ordered"]:
            return "flux chain not ordered"
        if abs(doc["chain"]["charge"] - float(_num(charge))) > 1e-9 * abs(charge):
            return f"chain charge {doc['chain']['charge']!r} != {_num(charge)}"
        if len(rows) != doc["n_samples"] or abs(doc["final"]["t"] - float(t_end)) > 1e-9:
            return "sample count or final time wrong"
        if roundness_key is not None:
            expected = REFERENCE_ROUNDNESS[roundness_key]
            got = doc["final"]["roundness"]
            if abs(got - expected) > ROUNDNESS_RTOL * expected:
                return f"final roundness {got!r}, recorded {expected!r}"
        if sphere_radius is not None:
            omega = rnt.unit_sphere_area(n)
            r0 = float(_num(sphere_radius))
            for row in rows:
                exact = omega * r0 ** (n - 1) * math.exp(float(row["t"]))
                if abs(float(row["area"]) - exact) > SPHERE_AREA_RTOL * exact:
                    return f"sphere area {row['area']} at t={row['t']}, exact {exact!r}"
        return None

    return _cli_op(name, argv, 0, [json_path, csv_path], check)


def flow_axi(rng, work, tiny) -> list[Op]:
    res, t_end, sphere_t = (16, "0.2", "0.1") if tiny else (64, "5", "0.5")
    charge = rng.uniform(0.2, 0.8)
    radius = rng.uniform(0.5, 2.0)
    ops = [
        _flow_op(work, f"spheroid-c{c}", 4, "axisymmetric", res,
                 ["--shape", "spheroid", "--a", "1", "--c", c], t_end, charge,
                 roundness_key=("axisymmetric", 4, c, res, t_end))
        for c in ("2", "0.5")
    ]
    ops.append(_flow_op(work, "sphere", 4, "axisymmetric", res,
                        ["--shape", "sphere", "--radius", _num(radius)], sphere_t, charge,
                        sphere_radius=radius))
    return ops


def flow_full(rng, work, tiny) -> list[Op]:
    res, t_end = (16, "0.05") if tiny else (64, "1")
    charge = rng.uniform(0.2, 0.8)
    return [
        _flow_op(work, "spheroid-full", 3, "full", res,
                 ["--shape", "spheroid", "--a", "1", "--c", "2"], t_end, charge,
                 roundness_key=("full", 3, "2", res, t_end))
    ]


# ---------------------------------------------------------------------------
# closed forms


def _sweep_check(csv_path, n_values, m_count, q_rel):
    def check(_):
        rows = list(csv.DictReader(io.StringIO(_read(csv_path).decode())))
        if len(rows) != len(n_values) * m_count * len(q_rel):
            return f"{len(rows)} sweep rows"
        extremal = 0
        for row in rows:
            m = float(row["m"])
            if row["error"]:
                return f"row error {row['error']!r}"
            if row["extremal"] == "yes":
                extremal += 1
                continue
            if abs(float(row["penrose_slack"])) > SLACK_RTOL * m:
                return f"penrose slack {row['penrose_slack']} at n={row['n']} m={m} q={row['q']}"
            low, up = float(row["penrose_lower_slack"]), float(row["penrose_upper_slack"])
            if min(low, up, float(row["positive_mass_slack"])) < -SLACK_RTOL * m:
                return f"negative slack at n={row['n']} m={m} q={row['q']}"
            if not float(row["u_at_2rplus"]) > 0.0:
                return f"embedding height {row['u_at_2rplus']} at 2 r+"
        if extremal != len(n_values) * m_count:  # exactly the rows with q = m
            return f"{extremal} extremal rows"
        return None

    return check


def _report_check(json_path, n, m, q, extremal):
    def check(_):
        doc = json.loads(_read(json_path))
        r_plus = doc["r_plus"]
        area = rnt.unit_sphere_area(n) * r_plus ** (n - 1)
        if abs(doc["horizon_area"] - area) > 1e-12 * area:
            return f"horizon area {doc['horizon_area']!r}, expected {area!r}"
        if doc["extremal"] != extremal or (extremal and doc["embedding"]):
            return "extremal flag or embedding wrong"
        if extremal != doc["embedding_note"].startswith("n/a"):
            return f"embedding note {doc['embedding_note']!r}"
        for cert in doc["certificates"]:
            if cert["verdict"] != "pass":
                return f"certificate {cert['name']} failed"
        penrose = [c for c in doc["certificates"] if c["name"] == "penrose"][0]
        if abs(penrose["slack"]) > SLACK_RTOL * m:
            return f"penrose slack {penrose['slack']!r}"
        return None

    return check


def closed_form(rng, work, tiny) -> list[Op]:
    n_values = [3, 4] if tiny else [3, 4, 5, 6, 7]
    m_count, q_count = (4, 5) if tiny else (20, 25)
    masses = [_num(v) for v in np.sort(rng.uniform(0.5, 5.0, m_count))]
    # q/m = 0 and 1 (extremal) are always present
    q_rel = ["0", "1"] + [_num(v) for v in rng.uniform(0.0, 0.99, q_count - 2)]
    base = ["sweep", "--n-list", ",".join(map(str, n_values)), "--m-list", ",".join(masses),
            "--q-list", ",".join(q_rel), "--q-rel"]
    csv1, csv2 = os.path.join(work, "sweep-j1.csv"), os.path.join(work, "sweep-j2.csv")

    def same_as_jobs1(_):
        return None if _read(csv2) == _read(csv1) else "--jobs 2 CSV differs from --jobs 1"

    ops = [
        _cli_op("sweep-jobs1", base + ["--jobs", "1", "--csv", csv1], 0, [csv1],
                _sweep_check(csv1, n_values, m_count, q_rel)),
        _cli_op("sweep-jobs2", base + ["--jobs", "2", "--csv", csv2], 0, [csv2], same_as_jobs1),
    ]
    points = []
    for kind in ("regular", "regular", "extremal", "naked"):
        n = int(rng.integers(3, 8))
        m = float(_num(rng.uniform(0.5, 5.0)))
        if kind == "extremal":
            q = m
        elif kind == "naked":
            q = rng.uniform(1.1, 2.0) * m
        else:
            q = rng.uniform(0.0, 0.9) * m
        points.append((kind, n, m, float(_num(q))))
    for k, (kind, n, m, q) in enumerate(points):
        path = os.path.join(work, f"report-{k}.json")
        argv = ["rnt-report", "--n", str(n), "--m", _num(m), "--q", _num(q), "--out", path]
        if kind == "naked":
            ops.append(_cli_op(f"report-{kind}", argv, 2, [path],
                               lambda _, p=path: "output written" if os.path.exists(p) else None))
        else:
            ops.append(_cli_op(f"report-{kind}", argv, 0, [path],
                               _report_check(path, n, m, q, kind == "extremal")))
    return ops


# ---------------------------------------------------------------------------
# certificates


def _verify_check(path, kind, m=None, adm=None):
    def check(result):
        doc = json.loads(_read(path))
        if kind == "rejected":
            if doc["energy_condition"]["ok"] or doc["mass"] is not None:
                return "energy-condition rejection not reported"
            return None
        if not doc["energy_condition"]["ok"]:
            return "energy condition reported violated"
        total, limit = doc["mass"]["total"], doc["adm_mass_limit"]
        if kind == "exact" and (abs(total - m) > MASS_ATOL or abs(limit - m) > ADM_ATOL):
            return f"mass {total!r}, ADM limit {limit!r}, expected {m!r}"
        if kind == "flat" and (total != 0.0 or limit != 0.0):
            return f"flat data mass {total!r}, ADM limit {limit!r}"
        if kind == "table" and (abs(limit - adm) > ADM_ATOL * adm
                                or abs(total - adm) > TABLE_MASS_RTOL * adm):
            return f"table mass {total!r}, ADM limit {limit!r}, expected {adm!r}"
        for cert in doc["certificates"]:
            if cert["verdict"] != "pass":
                return f"certificate {cert['name']} failed"
        return None

    return check


def _horizon_op(k, n, full, surface_seed, m, q, tiny) -> Op:
    """Horizon certificates on one random surface, against exact graph data."""

    def call():
        if full:
            grid = sg.full_grid(16, 32) if tiny else sg.full_grid(64, 128)
            surface = sg.random_star_surface(grid, surface_seed)
        else:
            grid = sg.axisymmetric_grid(n, 48)
            surface = sg.random_convex_surface(grid, surface_seed)
        data = gd.rnt_graph_data(n, m, q)
        field_fn = sg.radial_inverse_power_field(q, n)
        curv = sg.curvature(surface)
        margin = float(np.min(sg.newton_maclaurin_margin(curv, n)))
        values = (
            sg.area(surface),
            sg.total_mean_curvature(surface),
            sg.total_intrinsic_curvature(surface),
            *sg.yamabe_quotients(surface),
            margin,
            float(np.max(curv.H**2)),
        )
        reports, skipped = ineq.theorem_certificates(surface, data, field=field_fn)
        return values, [r.to_dict() for r in reports], skipped

    def check(result):
        (area, int_h, int_rk, _, y_rel, margin, h2max), reports, _ = result
        if not (area > 0.0 and int_h > 0.0):
            return f"area {area!r}, total mean curvature {int_h!r}"
        if margin < -1e-9 * h2max:
            return f"Newton-Maclaurin margin {margin!r}"
        if n == 3:  # Gauss-Bonnet: the total of R_k = 2K is 8 pi on a sphere
            tol = 1e-4 if full else 1e-8
            if abs(int_rk - 8.0 * math.pi) > tol * 8.0 * math.pi or abs(y_rel - 1.0) > tol:
                return f"Gauss-Bonnet total {int_rk!r}, relative Yamabe quotient {y_rel!r}"
        by_name = {r["name"]: r for r in reports}
        if abs(by_name["mass-meancurv"]["lhs"] - m) > MASS_ATOL:
            return f"formula mass {by_name['mass-meancurv']['lhs']!r}, expected {m!r}"
        if by_name["af-meancurv"]["verdict"] != "pass":  # Minkowski inequality
            return "af-meancurv failed on a mean-convex star-shaped surface"
        return None

    return Op(f"horizon-{k}", call, check, lambda r: repr(r).encode(), surfaces=1)


def certify(rng, work, tiny) -> list[Op]:
    ops = []

    def data_file(name, text):
        path = os.path.join(work, name + ".txt")
        with open(path, "w") as handle:
            handle.write(text)
        return path

    def mq():
        m = float(_num(rng.uniform(0.5, 3.0)))
        return m, float(_num(rng.uniform(0.0, 0.9) * m))

    cases = []
    for n in (3, 4, 5):
        m, q = mq()
        cases.append((f"exact-n{n}", f"n = {n}\nprofile = rnt\nm = {m!r}\nq = {q!r}\n",
                      0, "exact", m, None, 1))
    n = int(rng.integers(3, 6))
    m, q = mq()
    scale = _num(rng.uniform(0.3, 0.9))
    cases.append(("undercharged", f"n = {n}\nprofile = rnt\nm = {m!r}\nq = {q!r}\n"
                  f"charge_scale = {scale}\n", 0, "exact", m, None, 1))
    n = int(rng.integers(3, 6))
    m, q = mq()
    q = max(q, 0.1 * m)
    scale = _num(rng.uniform(1.1, 1.5))
    cases.append(("overcharged", f"n = {n}\nprofile = rnt\nm = {m!r}\nq = {q!r}\n"
                  f"charge_scale = {scale}\n", 4, "rejected", None, None, 0))
    cases.append(("flat", f"n = {int(rng.integers(3, 6))}\nprofile = flat\n",
                  0, "flat", None, None, 0))
    # An outward bump on the uncharged profile makes the scalar curvature
    # negative outside the horizon, so verify must reject it (exit 4).
    n = int(rng.integers(3, 6))
    m, _ = mq()
    cases.append(("perturbed", f"n = {n}\nprofile = rnt-perturbed\nm = {m!r}\nq = 0\n"
                  f"eps = {_num(rng.uniform(0.01, 0.1))}\n", 4, "rejected", None, None, 0))
    # du/dr = sqrt(2a/r): the flux integral (f - 1) r / 2 equals a exactly.
    a = float(_num(rng.uniform(0.5, 2.0)))
    r = np.geomspace(1.0, 1e4, 200)
    table = os.path.join(work, "profile.tsv")
    np.savetxt(table, np.column_stack([r, np.sqrt(2.0 * a / r)]))
    cases.append(("table", "n = 3\nprofile = table\ntable = profile.tsv\ncharge = 0\n",
                  0, "table", None, a, 0))

    for name, text, expect, kind, m, adm, surfaces in cases:
        path = data_file(name, text)
        out = os.path.join(work, name + ".json")
        argv = ["verify", "--data", path, "--resolution", "48", "--out", out]
        ops.append(_cli_op(f"verify-{name}", argv, expect, [out],
                           _verify_check(out, kind, m, adm), surfaces))

    m, q = mq()
    n_convex, n_star = (6, 1) if tiny else (300, 20)
    seeds = rng.integers(0, 2**31, size=n_convex + n_star)
    for k in range(n_convex):
        ops.append(_horizon_op(k, 3 + k % 3, False, int(seeds[k]), m, q, tiny))
    for k in range(n_convex, n_convex + n_star):
        ops.append(_horizon_op(k, 3, True, int(seeds[k]), m, q, tiny))
    return ops


WORKLOADS = {
    "flow": {"flow-axi": flow_axi, "flow-full": flow_full},
    "certify": {"closed-form": closed_form, "certify": certify},
}


def build(name: str, seed: int, work: str, tiny: bool = False) -> list[Op]:
    """The operations of one workload; inputs are written under ``work``."""
    ops = []
    for index, (part, make) in enumerate(WORKLOADS[name].items()):
        folder = os.path.join(work, part)
        os.makedirs(folder, exist_ok=True)
        for op in make(np.random.default_rng([seed, index]), folder, tiny):
            op.part = part
            ops.append(op)
    return ops
