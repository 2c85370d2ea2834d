"""Certificate construction, verdict logic and the theorem report set."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import chargedbh as cb
from chargedbh.inequalities import _digest, make_report


class TestReportLogic:
    def test_verdict_respects_tolerance(self):
        rep = make_report("positive-mass", 1.0, 1.0 + 5e-11, 1e-10, "closed-form", {})
        assert rep.verdict == "pass" and rep.saturated

    def test_fail_below_tolerance(self):
        rep = make_report("positive-mass", 1.0, 1.1, 1e-10, "closed-form", {})
        assert rep.verdict == "fail" and rep.slack == pytest.approx(-0.1)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_report("bogus", 1.0, 0.0, 1e-10, "closed-form", {})

    def test_digest_deterministic(self):
        a = make_report("penrose", 1.0, 0.5, 1e-10, "closed-form", {"m": 1.0})
        b = make_report("penrose", 1.0, 0.5, 1e-10, "closed-form", {"m": 1.0})
        c = make_report("penrose", 1.0, 0.5, 1e-10, "closed-form", {"m": 2.0})
        assert a.inputs_digest == b.inputs_digest != c.inputs_digest

    def test_digest_ignores_numeric_type(self):
        plain = cb.penrose_report(1.0, 10.0, 0.5, 3)
        numpy_args = cb.penrose_report(
            np.float64(1.0), np.float64(10.0), np.float64(0.5), np.int64(3)
        )
        assert [r.inputs_digest for r in plain] == [r.inputs_digest for r in numpy_args]
        shifted = cb.penrose_report(np.nextafter(1.0, 2.0), 10.0, 0.5, 3)
        assert shifted[0].inputs_digest != plain[0].inputs_digest

    def test_to_dict_schema(self, schema_validator):
        rep = make_report("gibbons", 2.0, 1.0, 1e-6, "quadrature", {"q": 1.0})
        schema_validator(rep.to_dict(), "inequality_report.schema.json")


class TestPenroseReport:
    def test_exact_family_saturates(self):
        params = cb.RntParams(3, 1.0, 0.5)
        reports = {r.name: r for r in cb.penrose_report(1.0, cb.horizon_area(params), 0.5, 3)}
        assert abs(reports["penrose"].slack) < 1e-12
        assert reports["penrose"].saturated
        assert reports["positive-mass"].slack == pytest.approx(0.5)
        # two-sided: R = m + s saturates the upper bound
        assert abs(reports["penrose-upper"].slack) < 1e-12
        assert reports["penrose-lower"].slack == pytest.approx(2 * math.sqrt(0.75), rel=1e-12)

    def test_schwarzschild_saturates(self):
        # uncharged: the area radius sits exactly at the upper bound 2m while
        # the lower bound degenerates to 0
        area = 4 * math.pi * 4.0
        reports = {r.name: r for r in cb.penrose_report(1.0, area, 0.0, 3)}
        assert abs(reports["penrose"].slack) < 1e-14
        assert abs(reports["penrose-upper"].slack) < 1e-14
        assert reports["penrose-lower"].slack == pytest.approx(2.0, rel=1e-14)
        assert reports["penrose-lower"].verdict == "pass"

    def test_overcharged_fails_positive_mass(self):
        reports = {r.name: r for r in cb.penrose_report(1.0, 4 * math.pi * 4, 1.1, 3)}
        assert reports["positive-mass"].verdict == "fail"
        assert reports["positive-mass"].slack == pytest.approx(-0.1)
        # two-sided bounds are suppressed without positive mass
        assert "penrose-lower" not in reports and "penrose-upper" not in reports

    def test_area_must_be_positive(self):
        with pytest.raises(ValueError):
            cb.penrose_report(1.0, 0.0, 0.0, 3)


class TestMonotoneStep:
    @settings(max_examples=80, deadline=None)
    @given(
        q=st.floats(min_value=0.0, max_value=5.0),
        x=st.floats(min_value=1e-3, max_value=50.0),
        dx=st.floats(min_value=0.0, max_value=10.0),
    )
    def test_x_plus_q2_over_x_nondecreasing_from_q(self, q, x, dx):
        a = max(x, q)
        b = a + dx
        f = lambda t: t + q * q / t if t > 0 else math.inf
        assert f(b) >= f(a) - 1e-12 * max(1.0, abs(f(a)))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=8))
    def test_newton_maclaurin_for_real_curvatures(self, kappas):
        # 2 K <= ((n-2)/(n-1)) H^2 holds for any real principal curvatures
        k = np.asarray(kappas)
        nm1 = k.size
        h = k.sum()
        two_k = h * h - (k * k).sum()
        assert two_k <= (nm1 - 1) / nm1 * h * h + 1e-12


class TestTheoremCertificates:
    def test_exact_family_round_horizon_n4(self):
        data = cb.rnt_graph_data(4, 2.0, 1.0)
        horizon = cb.make_sphere(cb.axisymmetric_grid(4, 64), data.r_start)
        field = cb.radial_inverse_power_field(1.0, 4)
        reports, skipped = cb.theorem_certificates(horizon, data, field=field)
        by_name = {r.name: r for r in reports}
        assert skipped == []
        for name in ("mass-meancurv", "af-meancurv", "yamabe-gate", "af-scalar", "penrose-2convex"):
            assert by_name[name].verdict == "pass"
            assert abs(by_name[name].slack) < 1e-8, name
        assert by_name["gibbons"].verdict == "pass"
        assert by_name["gibbons"].slack > 0

    def test_n3_never_emits_scalar_route(self):
        data = cb.rnt_graph_data(3, 1.0, 0.5)
        horizon = cb.make_sphere(cb.axisymmetric_grid(3, 64), data.r_start)
        reports, skipped = cb.theorem_certificates(horizon, data)
        names = {r.name for r in reports} | {s["name"] for s in skipped}
        assert "af-scalar" not in names
        assert "penrose-2convex" not in names

    def test_yamabe_gate_not_applicable_above_one(self):
        # 2-convex non-round horizon: relative quotient exceeds 1, the gate
        # does not apply but the scalar route does
        data = cb.rnt_graph_data(4, 2.0, 1.0)
        horizon = cb.make_spheroid(cb.axisymmetric_grid(4, 64), data.r_start, 1.3 * data.r_start)
        reports, skipped = cb.theorem_certificates(horizon, data)
        names = {r.name for r in reports}
        assert "yamabe-gate" not in names
        assert any(s["name"] == "yamabe-gate" for s in skipped)
        assert "af-scalar" in names

    def test_scaled_charge_strictly_positive_penrose_slack(self):
        data = cb.rnt_graph_data(3, 1.0, 0.5, charge_scale=0.9)
        mass = cb.mass_via_formula(data).total
        area = cb.unit_sphere_area(3) * data.r_start**2
        reports = {r.name: r for r in cb.penrose_report(mass, area, data.charge, 3,
                                                        tolerance=1e-6, provenance="quadrature")}
        assert reports["penrose"].verdict == "pass"
        assert reports["penrose"].slack > 1e-3

    def test_mean_convexity_required(self):
        data = cb.rnt_graph_data(3, 1.0, 0.0)
        grid = cb.axisymmetric_grid(3, 96)
        rho = data.r_start * (1.0 + 2.0 * np.cos(grid.theta) ** 2)
        surface = cb.StarShapedSurface(grid, rho)
        assert float(cb.curvature(surface).H.min()) < 0
        with pytest.raises(ValueError):
            cb.theorem_certificates(surface, data)

    def test_implication_mass_meancurv_to_positive_mass(self):
        # whenever the mean-curvature bound passes, positive mass follows
        rng = np.random.default_rng(5)
        for _ in range(200):
            mass = rng.uniform(0.0, 3.0)
            x = rng.uniform(0.05, 3.0)
            charge = rng.uniform(-2.0, 2.0)
            mm_pass = mass >= 0.5 * (x + charge**2 / x) - 1e-12
            if mm_pass:
                assert mass >= abs(charge) - 1e-9


class TestConstants:
    def test_d4_value(self):
        assert cb.af_scalar_constant(4) == pytest.approx(2 * math.sqrt(6) * math.pi, rel=1e-14)

    def test_d_n_sphere_consistency(self):
        # d_n is calibrated so round spheres saturate the scalar bound
        for n in (4, 5, 6):
            omega = cb.unit_sphere_area(n)
            r = 1.23
            int_h = (n - 1) * omega * r ** (n - 2)
            int_rk = (n - 1) * (n - 2) * omega * r ** (n - 3)
            assert int_rk == pytest.approx(
                cb.af_scalar_constant(n) * int_h ** ((n - 3) / (n - 2)), rel=1e-12
            )

    def test_d_n_needs_n4(self):
        with pytest.raises(ValueError):
            cb.af_scalar_constant(3)


class TestLazyDigest:
    def test_lazy_digest_equals_eager(self):
        reports = cb.penrose_report(1.0, 10.0, 0.5, 3)
        assert all("inputs_digest" not in vars(r) for r in reports)  # not hashed yet
        inputs = {"mass": 1.0, "area": 10.0, "charge": 0.5, "n": 3}
        for r in reports:
            assert r.inputs_digest == _digest(dict(inputs, name=r.name))

        data = cb.rnt_graph_data(4, 2.0, 1.0)
        horizon = cb.make_spheroid(cb.axisymmetric_grid(4, 32), data.r_start, 1.1 * data.r_start)
        field = cb.radial_inverse_power_field(1.0, 4)
        reports, _ = cb.theorem_certificates(horizon, data, field=field, mass=2.0)
        inputs = {
            "mass": 2.0,
            "charge": cb.charge_flux(horizon, field),
            "area": cb.area(horizon),
            "int_h": cb.total_mean_curvature(horizon),
            "int_rk": cb.total_intrinsic_curvature(horizon),
            "y_rel": cb.yamabe_quotients(horizon)[1],
            "n": 4,
        }
        for r in reports:
            assert r.inputs_digest == _digest(dict(inputs, name=r.name))

    def test_digest_snapshots_the_inputs(self):
        inputs = {"m": 1.0}
        rep = make_report("penrose", 1.0, 0.5, 1e-10, "closed-form", inputs)
        inputs["m"] = 2.0
        assert rep.inputs_digest == _digest({"m": 1.0, "name": "penrose"})
