"""Closed-form family: lapse, horizons, mass round trips, embedding."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

import chargedbh as cb
from chargedbh.exact_rnt import (
    ExtremalParameterError,
    LapseDomainError,
    NakedSingularityError,
)


def test_unit_sphere_areas():
    assert cb.unit_sphere_area(3) == pytest.approx(4 * math.pi, abs=1e-14)
    assert cb.unit_sphere_area(4) == pytest.approx(2 * math.pi**2, abs=1e-13)
    assert cb.unit_sphere_area(2) == pytest.approx(2 * math.pi, abs=1e-14)


def test_mass_coefficient():
    assert cb.mass_coefficient(3) == pytest.approx(1.0 / (16 * math.pi), rel=1e-15)


class TestLapse:
    def test_vanishes_at_horizon(self):
        params = cb.RntParams(3, 1.0, 0.0)
        assert cb.lapse(params, 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_asymptotically_one(self):
        params = cb.RntParams(3, 1.0, 0.5)
        values = cb.lapse(params, np.array([1e2, 1e4, 1e6]))
        assert np.all(np.diff(values) > 0)
        assert values[-1] == pytest.approx(1.0, abs=1e-5)

    def test_known_value(self):
        # radicand at r=3 is 1 - 2/3 + 0.25/9 = 13/36
        params = cb.RntParams(3, 1.0, 0.5)
        assert cb.lapse(params, 3.0) == pytest.approx(math.sqrt(13.0) / 6.0, abs=1e-14)

    def test_domain_error_between_horizons(self):
        params = cb.RntParams(3, 1.0, 0.5)
        with pytest.raises(LapseDomainError):
            cb.lapse(params, 1.0)

    def test_positive_outside_horizon(self):
        params = cb.RntParams(5, 2.0, 1.5)
        _, r_plus = cb.horizon_radii(params)
        r = np.linspace(r_plus * 1.0001, r_plus * 50, 100)
        assert np.all(cb.lapse(params, r) > 0)


class TestHorizons:
    def test_schwarzschild(self):
        assert cb.horizon_radii(cb.RntParams(3, 1.0, 0.0)) == (0.0, 2.0)

    def test_extremal_merge(self):
        r_minus, r_plus = cb.horizon_radii(cb.RntParams(3, 1.0, 1.0))
        assert r_minus == r_plus == 1.0
        assert cb.RntParams(3, 1.0, 1.0).extremal

    def test_known_n4_value_against_root_finder(self):
        params = cb.RntParams(4, 1.0, 0.6)
        _, r_plus = cb.horizon_radii(params)
        assert r_plus == pytest.approx(math.sqrt(1.8), abs=1e-14)
        # independent oracle: outermost zero of the squared lapse
        radicand = lambda r: 1 - 2 / r**2 + 0.36 / r**4
        root = brentq(radicand, 1.2, 3.0, xtol=1e-14)
        assert r_plus == pytest.approx(root, abs=1e-12)

    def test_naked_singularity_rejected(self):
        with pytest.raises(NakedSingularityError):
            cb.horizon_radii(cb.RntParams(3, 1.0, 2.0))

    def test_overflow_rejected_naming_the_parameter(self):
        with pytest.raises(ValueError, match="n = 1000"):
            cb.unit_sphere_area(1000)
        huge = cb.RntParams(3, 1e300, 0.0)
        for fn in (cb.horizon_radii, cb.horizon_radius_power, cb.horizon_area):
            with pytest.raises(ValueError, match=r"m = 1e\+300"):
                fn(huge)
        with pytest.raises(ValueError, match=r"m = 1e\+154"):
            cb.horizon_area(cb.RntParams(3, 1e154, 0.0))


class TestMassFromHorizon:
    def test_schwarzschild_round_trip(self):
        area = 4 * math.pi * 4.0
        assert cb.mass_from_horizon(area, 0.0, 3) == pytest.approx(1.0, abs=1e-15)

    def test_charged_round_trip_n3(self):
        params = cb.RntParams(3, 1.0, 0.5)
        assert cb.mass_from_horizon(cb.horizon_area(params), 0.5, 3) == pytest.approx(
            1.0, abs=1e-13
        )

    def test_charged_round_trip_n4(self):
        params = cb.RntParams(4, 2.0, 1.0)
        assert cb.mass_from_horizon(cb.horizon_area(params), 1.0, 4) == pytest.approx(
            2.0, abs=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=8),
        m=st.floats(min_value=0.1, max_value=10.0),
        frac=st.floats(min_value=0.0, max_value=0.999),
    )
    def test_round_trip_property(self, n, m, frac):
        q = frac * m
        params = cb.RntParams(n, m, q)
        recovered = cb.mass_from_horizon(cb.horizon_area(params), q, n)
        assert recovered == pytest.approx(m, rel=1e-12)

    def test_penrose_equality_identity(self):
        # (R + q^2/R)/2 = m with R = r_+^(n-2)
        for n, m, q in [(3, 1.0, 0.5), (4, 2.0, 1.0), (5, 0.5, 0.45), (7, 2.0, 1.8)]:
            big_r = cb.horizon_radius_power(cb.RntParams(n, m, q))
            assert 0.5 * (big_r + q**2 / big_r) == pytest.approx(m, rel=1e-14)


class TestCurvatureAndField:
    def test_vacuum_curvature_zero(self):
        assert cb.rnt_scalar_curvature(cb.RntParams(4, 1.0, 0.0), 3.0) == 0.0

    def test_known_values(self):
        # (n-1)(n-2) q^2 / r^(2n-2) evaluated directly
        assert cb.rnt_scalar_curvature(cb.RntParams(3, 2.0, 1.0), 2.0) == pytest.approx(
            0.125, abs=1e-15
        )
        assert cb.rnt_scalar_curvature(cb.RntParams(4, 1.0, 0.5), 2.0) == pytest.approx(
            0.0234375, abs=1e-15
        )

    def test_electric_field(self):
        assert cb.electric_field_radial(cb.RntParams(3, 1.0, 1.0), 2.0) == 0.25
        assert cb.electric_field_radial(cb.RntParams(4, 1.0, 0.0), 2.0) == 0.0

    def test_curvature_equals_field_square(self):
        params = cb.RntParams(5, 2.0, 1.0)
        r = np.geomspace(1.5, 50.0, 40)
        n = params.n
        expected = (n - 1) * (n - 2) * cb.electric_field_radial(params, r) ** 2
        assert np.allclose(cb.rnt_scalar_curvature(params, r), expected, rtol=1e-14)


class TestEmbedding:
    def test_zero_at_horizon(self):
        params = cb.RntParams(3, 1.0, 0.5)
        _, r_plus = cb.horizon_radii(params)
        u = cb.embed_profile(params, np.array([r_plus, 2 * r_plus]))
        assert u[0] == 0.0
        assert u[1] > 0.0

    def test_flamm_closed_form(self):
        # q = 0, n = 3: u(r) = sqrt(8 m (r - 2m))
        params = cb.RntParams(3, 1.0, 0.0)
        r = np.array([2.0, 2.5, 4.0, 10.0])
        u = cb.embed_profile(params, r)
        assert np.allclose(u, np.sqrt(8.0 * (r - 2.0)), atol=1e-10)

    def test_dual_quadrature_oracle(self):
        params = cb.RntParams(3, 1.0, 0.5)
        _, r_plus = cb.horizon_radii(params)
        u_lib = cb.embed_profile(params, np.array([3.0]))[0]

        def regular_part(x):
            if x <= r_plus:
                return 0.0
            return cb.embedding_slope(params, x) * math.sqrt(x - r_plus)

        import warnings
        from scipy.integrate import IntegrationWarning

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            val, est = quad(
                regular_part, r_plus, 3.0, weight="alg", wvar=(-0.5, 0.0),
                limit=400, epsabs=1e-11, epsrel=1e-11,
            )
        assert abs(u_lib - val) < 1e-8

    def test_monotone_increasing(self):
        params = cb.RntParams(4, 2.0, 1.5)
        _, r_plus = cb.horizon_radii(params)
        r = np.geomspace(r_plus * 1.000001, 100 * r_plus, 60)
        u = cb.embed_profile(params, r)
        assert np.all(np.diff(u) > 0)
        assert np.all(cb.embedding_slope(params, r) > 0)

    def test_extremal_rejected(self):
        with pytest.raises(ExtremalParameterError):
            cb.embed_profile(cb.RntParams(3, 1.0, 1.0), np.array([2.0]))

    def test_naked_rejected(self):
        with pytest.raises(NakedSingularityError):
            cb.embed_profile(cb.RntParams(3, 1.0, 1.5), np.array([2.0]))

    def test_input_validation(self):
        params = cb.RntParams(3, 1.0, 0.0)
        with pytest.raises(ValueError):
            cb.embed_profile(params, np.array([4.0, 3.0]))
        with pytest.raises(ValueError):
            cb.embed_profile(params, np.array([1.0, 3.0]))
