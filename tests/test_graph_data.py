"""Graph data sets: metric, curvature, mass formula, asymptotic flux."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

import chargedbh as cb
from chargedbh.graph_data import (
    _TableProfile,
    DecayError,
    RadialGraphData,
    TruncationWarning,
    check_decay,
    reciprocal_metric,
)


# ---------------------------------------------------------------------------
# independent scalar-curvature oracle: finite-difference Christoffel route
# for the diagonal metric diag(f(r), r^2, r^2 sin^2 t1, ...)


def _metric_diag(point, n, f):
    r = point[0]
    comps = np.empty(n)
    comps[0] = f(r)
    comps[1] = r * r
    for k in range(2, n):
        comps[k] = comps[k - 1] * math.sin(point[k - 1]) ** 2
    return comps


def _christoffel_fd(point, n, f, h):
    g0 = _metric_diag(point, n, f)
    dg = np.empty((n, n))  # dg[c, a] = d g_aa / d x_c
    for c in range(n):
        plus, minus = point.copy(), point.copy()
        plus[c] += h
        minus[c] -= h
        dg[c] = (_metric_diag(plus, n, f) - _metric_diag(minus, n, f)) / (2 * h)
    gamma = np.zeros((n, n, n))
    for c in range(n):
        for a in range(n):
            for b in range(n):
                # diagonal metric: only three derivative patterns survive
                term = 0.0
                if c == a:
                    term += dg[b, a]
                if c == b:
                    term += dg[a, b]
                if a == b:
                    term -= dg[c, a]
                gamma[c, a, b] = 0.5 * term / g0[c]
    return gamma


def scalar_curvature_fd_oracle(point, n, f, h=1e-4):
    """Textbook R = g^{ab}(d_c Gamma^c_ab - d_a Gamma^c_cb + ...)."""
    point = np.asarray(point, dtype=float)
    g0 = _metric_diag(point, n, f)
    gamma = _christoffel_fd(point, n, f, h)
    dgamma = np.empty((n, n, n, n))  # dgamma[e, c, a, b] = d_e Gamma^c_ab
    for e in range(n):
        plus, minus = point.copy(), point.copy()
        plus[e] += h
        minus[e] -= h
        dgamma[e] = (_christoffel_fd(plus, n, f, h) - _christoffel_fd(minus, n, f, h)) / (
            2 * h
        )
    ricci = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            val = 0.0
            for c in range(n):
                val += dgamma[c, c, a, b] - dgamma[a, c, c, b]
                for d in range(n):
                    val += gamma[c, c, d] * gamma[d, a, b] - gamma[c, a, d] * gamma[d, c, b]
            ricci[a, b] = val
    return float(sum(ricci[a, a] / g0[a] for a in range(n)))


def _oracle_point(n, r):
    return np.array([r] + [1.0 - 0.08 * k for k in range(n - 1)])


class TestCurvatureOracle:
    def test_oracle_on_flat_space(self):
        for n in (3, 4):
            val = scalar_curvature_fd_oracle(_oracle_point(n, 2.3), n, lambda r: 1.0)
            assert abs(val) < 1e-7

    def test_oracle_on_hyperbolic_space(self):
        # f = 1/(1+r^2) gives the hyperbolic metric with R = -n(n-1)
        for n in (3, 4):
            val = scalar_curvature_fd_oracle(
                _oracle_point(n, 1.7), n, lambda r: 1.0 / (1.0 + r * r)
            )
            assert val == pytest.approx(-n * (n - 1), abs=1e-5)

    @pytest.mark.parametrize("n,m,q", [(3, 1.0, 0.5), (4, 2.0, 1.0)])
    def test_graph_curvature_matches_oracle(self, n, m, q):
        data = cb.rnt_graph_data(n, m, q)
        r = 2.0 * data.r_start
        lib = cb.graph_scalar_curvature(data, r)
        oracle = scalar_curvature_fd_oracle(
            _oracle_point(n, r), n, lambda rr: cb.induced_metric_factor(data, rr)
        )
        assert lib == pytest.approx(oracle, abs=1e-6)

    def test_perturbed_profile_matches_oracle(self):
        data = cb.perturbed_rnt_graph_data(3, 1.0, 0.3, eps=0.05)
        r = 2.5 * data.r_start
        lib = cb.graph_scalar_curvature(data, r)
        oracle = scalar_curvature_fd_oracle(
            _oracle_point(3, r), 3, lambda rr: cb.induced_metric_factor(data, rr)
        )
        assert lib == pytest.approx(oracle, abs=1e-5)


class TestMetricFactor:
    def test_rnt_equals_inverse_lapse_squared(self):
        params = cb.RntParams(3, 1.0, 0.5)
        data = cb.rnt_graph_data(3, 1.0, 0.5)
        r = np.linspace(2.0, 12.0, 9)
        assert np.abs(
            cb.induced_metric_factor(data, r) - cb.lapse(params, r) ** -2
        ).max() < 1e-12

    def test_flat_is_one(self):
        data = cb.flat_graph_data(4)
        assert cb.induced_metric_factor(data, 3.0) == 1.0

    def test_perturbed_definition(self):
        data = cb.perturbed_rnt_graph_data(3, 1.0, 0.0, eps=0.1)
        r = 4.0
        slope = data.dudr(r)
        assert cb.induced_metric_factor(data, r) == pytest.approx(1 + slope**2, rel=1e-15)

    def test_orthogonal_intersection_enforced(self):
        # a profile with finite slope at its inner boundary is not a horizon
        with pytest.raises(ValueError):
            cb.table_graph_data(
                3, np.linspace(1.0, 50.0, 40), np.full(40, 0.3), horizon=True
            )


class TestScalarCurvatureClosure:
    @pytest.mark.parametrize("n,m,q", [(3, 1.0, 0.5), (3, 2.0, 1.0), (4, 1.0, 0.5), (4, 2.0, 1.0)])
    def test_matches_exact_family(self, n, m, q):
        data = cb.rnt_graph_data(n, m, q)
        params = cb.RntParams(n, m, q)
        r = np.geomspace(data.r_start * 1.000001, 100 * data.r_start, 1000)
        assert np.abs(
            cb.graph_scalar_curvature(data, r) - cb.rnt_scalar_curvature(params, r)
        ).max() < 1e-9

    def test_flat_zero(self):
        data = cb.flat_graph_data(3)
        assert np.abs(cb.graph_scalar_curvature(data, np.linspace(0.5, 9, 20))).max() == 0.0


class TestMass:
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("m,q", [(1.0, 0.0), (1.0, 0.5), (2.0, 1.0)])
    def test_mass_closure(self, n, m, q):
        breakdown = cb.mass_via_formula(cb.rnt_graph_data(n, m, q))
        assert breakdown.total == pytest.approx(m, abs=1e-6)
        assert breakdown.total == breakdown.boundary_term + breakdown.bulk_term

    def test_vacuum_split(self):
        breakdown = cb.mass_via_formula(cb.rnt_graph_data(3, 1.0, 0.0))
        assert breakdown.boundary_term == pytest.approx(1.0, abs=1e-14)
        assert breakdown.bulk_term == pytest.approx(0.0, abs=1e-14)

    def test_charged_split(self):
        # boundary (R)/2, bulk q^2/(2 R)
        n, m, q = 4, 2.0, 1.0
        breakdown = cb.mass_via_formula(cb.rnt_graph_data(n, m, q))
        big_r = cb.horizon_radius_power(cb.RntParams(n, m, q))
        assert breakdown.boundary_term == pytest.approx(big_r / 2, rel=1e-12)
        assert breakdown.bulk_term == pytest.approx(q**2 / (2 * big_r), rel=1e-8)

    def test_energy_margin_recorded(self):
        breakdown = cb.mass_via_formula(cb.rnt_graph_data(3, 1.0, 0.5))
        assert abs(breakdown.dec_residual_min) < 1e-12

    @staticmethod
    def _bumped_data(n, m, q, eps, r1=3.0, width=2.0):
        # add eps * step((r-r1)/width) / r^(n-2) to the metric deviation
        # w = 1 - V; then r^(n-2) w gains a nondecreasing term, which is
        # exactly the condition for the added scalar curvature to be
        # pointwise nonnegative, and the mass gains eps/2
        base = cb.rnt_graph_data(n, m, q)

        def smoothstep(x):
            x = np.clip(x, 0.0, 1.0)
            return x**3 * (10.0 - 15.0 * x + 6.0 * x * x)

        def w_new(r):
            r = np.asarray(r, dtype=float)
            w = np.asarray(base.metric_one_minus_v(r), dtype=float)
            return w + eps * smoothstep((r - r1) / width) / r ** (n - 2)

        def dudr(r):
            w = w_new(r)
            return np.sqrt(w / (1.0 - w))

        return cb.RadialGraphData(
            n=n,
            r_start=base.r_start,
            dudr=dudr,
            e_radial=base.e_radial,
            charge=base.charge,
            label=f"bumped eps={eps}",
            horizon=True,
            metric_one_minus_v=w_new,
        )

    def test_monotone_under_nonnegative_bump(self):
        masses = []
        base_curv = None
        r = None
        for eps in (0.0, 0.01, 0.02):
            data = self._bumped_data(3, 1.0, 0.4, eps)
            if r is None:
                r = np.geomspace(data.r_start * 1.00001, 50.0, 400)
            curv = cb.graph_scalar_curvature(data, r)
            if base_curv is None:
                base_curv = curv
            assert float((curv - base_curv).min()) > -1e-6  # bump adds curvature
            masses.append(cb.mass_via_formula(data).total)
        assert masses[0] <= masses[1] <= masses[2]
        assert masses[1] - masses[0] == pytest.approx(0.005, abs=1e-4)
        assert masses[2] - masses[1] == pytest.approx(0.005, abs=1e-4)

    def test_flat_mass_zero(self):
        assert cb.mass_via_formula(cb.flat_graph_data(3)).total == 0.0

    def test_truncation_warning_for_slowly_decaying_bulk(self):
        # sigma = 0.7 passes the decay gate for n = 3 but the bulk integrand
        # decays too slowly for a trustworthy tail
        data = cb.table_graph_data(
            3,
            np.geomspace(1.0, 2e4, 400),
            np.geomspace(1.0, 2e4, 400) ** -0.35,
            horizon=False,
        )
        with pytest.warns(TruncationWarning):
            breakdown = cb.mass_via_formula(data, tolerance=1e-9)
        assert breakdown.tail_uncertainty > 1e-9


class TestAdmFlux:
    def test_flat_zero(self):
        data = cb.flat_graph_data(3)
        assert cb.adm_flux(data, 100.0) == 0.0
        assert cb.adm_mass_limit(data, [1e2, 1e3, 1e4]) == 0.0

    @pytest.mark.parametrize("n,m,q", [(3, 1.0, 0.5), (4, 2.0, 1.0)])
    def test_limit_recovers_mass(self, n, m, q):
        data = cb.rnt_graph_data(n, m, q)
        assert cb.adm_mass_limit(data, [1e2, 1e3, 1e4]) == pytest.approx(m, abs=1e-4)

    def test_cross_consistency_with_mass_formula(self):
        for n, m, q in [(3, 1.0, 0.0), (3, 1.0, 0.5), (4, 2.0, 1.0)]:
            data = cb.rnt_graph_data(n, m, q)
            total = cb.mass_via_formula(data).total
            limit = cb.adm_mass_limit(data, [1e2, 1e3, 1e4])
            assert abs(total - limit) < 2e-4

    def test_flux_converges_from_above_or_below(self):
        data = cb.rnt_graph_data(3, 1.0, 0.5)
        fluxes = [cb.adm_flux(data, r) for r in (1e2, 1e3, 1e4)]
        assert abs(fluxes[-1] - 1.0) < abs(fluxes[0] - 1.0)


class TestEnergyCondition:
    def test_exact_family_saturates(self):
        data = cb.rnt_graph_data(3, 1.0, 0.5)
        r = np.geomspace(data.r_start * 1.001, 100, 60)
        assert np.abs(cb.energy_condition_residual(data, r)).max() < 1e-9

    def test_scaled_charge_sign(self):
        r = None
        for scale, sign in ((0.9, 1), (1.1, -1)):
            data = cb.rnt_graph_data(3, 1.0, 0.5, charge_scale=scale)
            r = np.geomspace(data.r_start * 1.001, 100, 60)
            residual = cb.energy_condition_residual(data, r)
            if sign > 0:
                assert residual.min() > 0
            else:
                assert residual.max() < 0


class TestDecayGate:
    def test_exact_family_passes(self):
        # measured slope of (du/dr)^2 approaches n-2 (subleading corrections
        # shift the two-point fit at finite radius)
        assert check_decay(cb.rnt_graph_data(3, 1.0, 0.5)) == pytest.approx(1.0, abs=5e-3)
        assert check_decay(cb.rnt_graph_data(5, 1.0, 0.5)) == pytest.approx(3.0, abs=5e-3)

    def test_violating_profile_rejected(self):
        # (du/dr)^2 ~ r^(-0.4) violates sigma > 1/2 for n = 3
        data = cb.table_graph_data(
            3, np.geomspace(1.0, 2e4, 300), np.geomspace(1.0, 2e4, 300) ** -0.2,
            horizon=False,
        )
        with pytest.raises(DecayError):
            cb.mass_via_formula(data)
        with pytest.raises(DecayError):
            cb.adm_mass_limit(data, [1e2, 1e3])


    @staticmethod
    def _step_profile(vanishes_inside: bool) -> RadialGraphData:
        # du/dr = 1/r on one side of r = 3e3 and exactly 0 on the other, so
        # one of the two decay probes (1e3 and 8e3) reads (du/dr)^2 = 0
        def dudr(r):
            r = np.asarray(r, dtype=float)
            outer = r > 3e3
            return np.where(outer if vanishes_inside else ~outer, 1.0 / r, 0.0)

        return RadialGraphData(
            n=3, r_start=0.0, dudr=dudr, e_radial=lambda r: 0.0 * np.asarray(r),
            charge=0.0, horizon=False,
        )

    def test_profile_vanishing_outside_decays_arbitrarily_fast(self):
        assert check_decay(self._step_profile(vanishes_inside=False)) == math.inf

    def test_profile_vanishing_only_inside_rejected(self):
        with pytest.raises(DecayError, match="r = 1000 but not at r = 8000"):
            check_decay(self._step_profile(vanishes_inside=True))


class TestChargeConsistency:
    def test_flux_charge_matches_at_every_radius(self):
        data = cb.rnt_graph_data(4, 2.0, 1.0, charge_scale=0.9)
        for r in (data.r_start, 2.0, 10.0, 1e3):
            assert data.charge_at(r) == pytest.approx(0.9, abs=1e-10)
            assert data.charge_at(r) == pytest.approx(data.charge, abs=1e-10)


class TestDataFiles:
    def test_rnt_file(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("n = 4\nprofile = rnt\nm = 2\nq = 1\n# comment\n")
        data = cb.load_graph_data(path)
        assert data.n == 4 and data.horizon
        assert cb.mass_via_formula(data).total == pytest.approx(2.0, abs=1e-6)

    def test_scaled_field_file(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("n = 3\nprofile = rnt\nm = 1\nq = 0.5\ncharge_scale = 0.9\n")
        data = cb.load_graph_data(path)
        assert data.charge == pytest.approx(0.45)

    def test_field_none(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("n = 3\nprofile = rnt\nm = 1\nq = 0.5\nfield = none\n")
        assert cb.load_graph_data(path).charge == 0.0

    def test_perturbed_file(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("n = 3\nprofile = rnt-perturbed\nm = 1\nq = 0.4\neps = 0.02\n")
        data = cb.load_graph_data(path)
        assert "perturbed" in data.label

    def test_table_file(self, tmp_path):
        r = np.geomspace(1.0, 1e4, 200)
        table = tmp_path / "profile.tsv"
        np.savetxt(table, np.column_stack([r, np.sqrt(2.0 / r)]))
        path = tmp_path / "d.txt"
        path.write_text("n = 3\nprofile = table\ntable = profile.tsv\ncharge = 0\n")
        data = cb.load_graph_data(path)
        assert data.n == 3 and not data.horizon
        assert data.dudr(2.0) == pytest.approx(1.0, rel=1e-6)

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("n 3\n")
        with pytest.raises(ValueError):
            cb.load_graph_data(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n = 3\nprofile = rnt-perturbed\nm = 1\n", "missing required key 'q'"),
            ("profile = rnt\nm = 1\nq = 0\n", "missing required key 'n'"),
            ("n = 3\nprofile = table\n", "missing required key 'table'"),
            ("n = 3\nm = 1\nq = 0.5\nmass = 2\n", "unknown key(s) in data file: mass"),
        ],
    )
    def test_bad_keys_rejected(self, tmp_path, text, message):
        path = tmp_path / "d.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(message)):
            cb.load_graph_data(path)

    def test_table_file_values_checked(self, tmp_path):
        np.savetxt(tmp_path / "one.tsv", np.geomspace(1.0, 10.0, 8))
        path = tmp_path / "d.txt"
        path.write_text("n = 3\nprofile = table\ntable = one.tsv\n")
        with pytest.raises(ValueError, match="two columns"):
            cb.load_graph_data(path)
        path.write_text("n = 3\nprofile = table\ntable = one.tsv\nhorizon = maybe\n")
        with pytest.raises(ValueError, match="horizon must be"):
            cb.load_graph_data(path)

    def test_reciprocal_metric_vanishes_at_horizon(self):
        data = cb.rnt_graph_data(3, 1.0, 0.5)
        assert reciprocal_metric(data, data.r_start * (1 + 1e-12)) < 1e-10


class TestTableProfile:
    @pytest.mark.parametrize("shape", ["decaying", "oscillating", "flat-spots"])
    def test_pchip_matches_scipy(self, shape):
        rng = np.random.default_rng(11)
        r = np.unique(rng.uniform(0.5, 50.0, 40))
        y = {
            "decaying": np.sqrt(2.0 / r),
            "oscillating": np.sin(r / 3.0) + rng.normal(0.0, 0.1, r.size),
            "flat-spots": np.round(np.sin(r / 5.0), 1),
        }[shape]
        profile, oracle = _TableProfile(r, y), PchipInterpolator(r, y)
        x = np.concatenate([np.linspace(r[0], r[-1], 2001), r])
        scale = np.max(np.abs(y))
        assert np.max(np.abs(profile(x) - oracle(x))) <= 1e-14 * scale
