"""Named inequality certificates with signed slack and pass/fail verdicts.

Each certificate compares a left- and right-hand side oriented so that
slack = lhs - rhs >= 0 means the inequality holds.  A slack within the
tolerance of zero is additionally flagged as saturated (the equality case).
Certificates whose hypotheses fail (wrong dimension, quotient gate above 1,
lack of 2-convexity) are reported separately as not applicable rather than
as failures.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field

from .exact_rnt import area_radius_power, mass_coefficient, unit_sphere_area

CERTIFICATE_NAMES = (
    "penrose",
    "penrose-lower",
    "penrose-upper",
    "positive-mass",
    "mass-meancurv",
    "af-meancurv",
    "af-scalar",
    "gibbons",
    "yamabe-gate",
    "penrose-2convex",
)


def af_scalar_constant(n: int) -> float:
    """Constant d_n of the total-scalar-curvature inequality for n >= 4."""
    if n < 4:
        raise ValueError("the scalar-curvature inequality needs n >= 4")
    omega = unit_sphere_area(n)
    return (n - 1) * (n - 2) * omega / ((n - 1) * omega) ** ((n - 3) / (n - 2))


def _canonical(value) -> str:
    # numbers hash by their float value, so 3, 3.0 and np.float64(3.0) agree
    if isinstance(value, numbers.Real):
        return float(value).hex()
    return repr(value)


def _digest(payload: dict) -> str:
    canon = json.dumps({k: _canonical(v) for k, v in sorted(payload.items())})
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class InequalityReport:
    """One certificate.

    ``inputs_digest`` (12 hex digits of SHA-256 over the canonical inputs
    and the name) is computed on first read from ``_inputs``, the snapshot
    :func:`make_report` takes, so reports whose digest is never read cost no
    hashing.
    """

    name: str
    lhs: float
    rhs: float
    slack: float
    tolerance: float
    verdict: str  # "pass" | "fail"
    saturated: bool
    tolerance_provenance: str
    _inputs: dict = field(compare=False, repr=False)

    @functools.cached_property
    def inputs_digest(self) -> str:
        return _digest(self._inputs)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "saturated": self.saturated,
            "tolerance_provenance": self.tolerance_provenance,
            "inputs_digest": self.inputs_digest,
        }


def make_report(name, lhs, rhs, tolerance, provenance, inputs) -> InequalityReport:
    if name not in CERTIFICATE_NAMES:
        raise ValueError(f"unknown certificate name {name!r}")
    slack = lhs - rhs
    return InequalityReport(
        name=name,
        lhs=float(lhs),
        rhs=float(rhs),
        slack=float(slack),
        tolerance=float(tolerance),
        verdict="pass" if slack >= -tolerance else "fail",
        saturated=bool(abs(slack) < tolerance),
        tolerance_provenance=provenance,
        _inputs=dict(inputs, name=name),
    )


def penrose_report(
    mass: float,
    horizon_area: float,
    charge: float,
    n: int,
    tolerance: float = 1e-10,
    provenance: str = "closed-form",
) -> list[InequalityReport]:
    """Closed-form certificate set: the mass bound, its two-sided area form,
    and the positive mass inequality.

    The two-sided reports are emitted only when mass >= |Q|, since the
    equivalence with the mass bound needs the positive mass inequality.
    """
    if horizon_area <= 0.0:
        raise ValueError("horizon_area must be positive")
    inputs = {"mass": mass, "area": horizon_area, "charge": charge, "n": n}
    big_r = area_radius_power(horizon_area, n)
    reports = [
        make_report(
            "penrose",
            mass,
            0.5 * (big_r + charge**2 / big_r),
            tolerance,
            provenance,
            inputs,
        ),
        make_report("positive-mass", mass, abs(charge), tolerance, provenance, inputs),
    ]
    if mass >= abs(charge):
        s = math.sqrt(max(mass * mass - charge * charge, 0.0))
        reports.append(
            make_report("penrose-lower", big_r, mass - s, tolerance, provenance, inputs)
        )
        reports.append(
            make_report("penrose-upper", mass + s, big_r, tolerance, provenance, inputs)
        )
    return reports


def theorem_certificates(
    surface,
    data,
    field=None,
    mass: float | None = None,
    tolerance: float = 1e-6,
    provenance: str = "quadrature",
) -> tuple[list[InequalityReport], list[dict]]:
    """Certificates tying the mass to integral invariants of the horizon.

    ``surface`` is the horizon as a hypersurface of the flat slice (must be
    star-shaped and strictly mean convex), ``data`` the graph data set.  The
    charge is the field flux through the surface when ``field`` is given,
    else the charge carried by the data; the mass defaults to the
    boundary+bulk integral formula.  Returns (reports, not_applicable) where
    the second list holds {name, reason} markers for certificates whose
    hypotheses exclude them.
    """
    from . import graph_data as gd
    from . import surface_geometry as sg

    n = surface.grid.n
    if n != data.n:
        raise ValueError("surface and data dimensions disagree")
    curv = sg.curvature(surface)
    if float(curv.H.min()) <= 0.0:
        raise ValueError("horizon surface must be strictly mean convex")

    if mass is None:
        mass = gd.mass_via_formula(data).total
    if field is not None:
        charge = sg.charge_flux(surface, field)
    else:
        charge = data.charge

    area_val = float(curv.dA.sum())
    int_h = float((curv.H * curv.dA).sum())
    int_rk = float((curv.Rk * curv.dA).sum())
    big_r = area_radius_power(area_val, n)
    cn = mass_coefficient(n)
    x = 2.0 * cn * int_h
    y, y_rel = sg.yamabe_quotients(surface)

    inputs = {
        "mass": mass,
        "charge": charge,
        "area": area_val,
        "int_h": int_h,
        "int_rk": int_rk,
        "y_rel": y_rel,
        "n": n,
    }

    reports = [
        make_report(
            "mass-meancurv", mass, 0.5 * (x + charge**2 / x), tolerance, provenance, inputs
        ),
        make_report("af-meancurv", x, big_r, tolerance, provenance, inputs),
        make_report("gibbons", y_rel * big_r**2, charge**2, tolerance, provenance, inputs),
    ]
    not_applicable: list[dict] = []

    if y_rel <= 1.0 + tolerance:
        reports.append(
            make_report("yamabe-gate", 1.0, y_rel, tolerance, provenance, inputs)
        )
    else:
        not_applicable.append(
            {
                "name": "yamabe-gate",
                "reason": f"relative quotient {y_rel:.6g} exceeds 1; the optimal-route gate does not apply",
            }
        )

    if n == 3:
        # The scalar-curvature route degenerates in three dimensions and its
        # certificates are never emitted there.
        pass
    else:
        two_convex = float(curv.Rk.min()) >= -tolerance
        if two_convex:
            d_n = af_scalar_constant(n)
            reports.append(
                make_report(
                    "af-scalar",
                    int_rk,
                    d_n * int_h ** ((n - 3) / (n - 2)),
                    tolerance,
                    provenance,
                    inputs,
                )
            )
            reports.append(
                make_report(
                    "penrose-2convex",
                    mass,
                    0.5 * (big_r + y_rel ** (-(n - 2) / (n - 3)) * charge**2 / big_r),
                    tolerance,
                    provenance,
                    inputs,
                )
            )
        else:
            reason = "horizon is not 2-convex (R_k changes sign)"
            not_applicable.append({"name": "af-scalar", "reason": reason})
            not_applicable.append({"name": "penrose-2convex", "reason": reason})
    return reports, not_applicable
