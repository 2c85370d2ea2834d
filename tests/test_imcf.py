"""Flow evolution, monotonicity monitors and the flux chain."""

import math

import numpy as np
import pytest

import chargedbh as cb
from chargedbh import imcf
from chargedbh import surface_geometry as sg
from chargedbh.imcf import FlowBreakdownError


class TestSphereExactness:
    @pytest.mark.parametrize("n", [3, 4])
    def test_radius_growth(self, n):
        grid = cb.axisymmetric_grid(n, 48)
        run = imcf.run_flow(cb.make_sphere(grid, 1.0), 0.5, 1e-3, sample_every=100)
        expected = math.exp(0.5 / (n - 1))
        assert np.abs(run.states[-1].surface.rho - expected).max() < 1e-10

    def test_area_growth_exact_rate(self):
        grid = cb.axisymmetric_grid(3, 48)
        run = imcf.run_flow(cb.make_sphere(grid, 2.0), 1.0, 2e-3, sample_every=50)
        a0 = run.states[0].monitors.area
        for state in run.states:
            assert state.monitors.area == pytest.approx(
                a0 * math.exp(state.t), rel=1e-8
            )

    def test_decay_functional_constant_on_spheres(self):
        grid = cb.axisymmetric_grid(3, 48)
        run = imcf.run_flow(cb.make_sphere(grid, 1.0), 1.0, 2e-3, sample_every=25)
        values = [s.monitors.mass_decay for s in run.states]
        assert max(abs(v - values[0]) for v in values) < 1e-10

    def test_full_grid_sphere(self):
        grid = cb.full_grid(32, 64)
        run = imcf.run_flow(cb.make_sphere(grid, 1.0), 0.3, 2e-3, sample_every=100)
        assert np.abs(run.states[-1].surface.rho - math.exp(0.15)).max() < 1e-9


class TestMonotonicity:
    def test_spheroid_decay_non_increasing_axisymmetric(self):
        grid = cb.axisymmetric_grid(4, 48)
        run = imcf.run_flow(cb.make_spheroid(grid, 1.0, 1.8), 1.0, 2e-3, sample_every=10)
        values = [s.monitors.mass_decay for s in run.states]
        increments = np.diff(values)
        assert increments.max() <= 1e-8
        assert values[-1] < values[0]

    def test_spheroid_decay_non_increasing_full(self):
        grid = cb.full_grid(32, 64)
        run = imcf.run_flow(cb.make_spheroid(grid, 1.0, 0.6), 0.6, 2e-3, sample_every=10)
        increments = np.diff([s.monitors.mass_decay for s in run.states])
        assert increments.max() <= 1e-8

    def test_chain_inequality_from_samples(self):
        # (int H)^(-1) >= (int H at 0)^(-1) e^(-(n-2)/(n-1) t)
        grid = cb.axisymmetric_grid(3, 48)
        run = imcf.run_flow(cb.make_spheroid(grid, 1.0, 1.7), 1.5, 2e-3, sample_every=20)
        h0 = run.states[0].monitors.total_mean_curvature
        for state in run.states:
            lhs = 1.0 / state.monitors.total_mean_curvature
            rhs = math.exp(-0.5 * state.t) / h0
            assert lhs >= rhs - 1e-8

    def test_roundness_decreases(self):
        grid = cb.axisymmetric_grid(3, 48)
        run = imcf.run_flow(cb.make_spheroid(grid, 1.0, 2.0), 2.0, 2e-3, sample_every=100)
        assert run.states[-1].monitors.roundness < 0.1 * run.states[0].monitors.roundness

    def test_newton_maclaurin_along_flow(self):
        grid = cb.axisymmetric_grid(4, 48)
        run = imcf.run_flow(cb.make_spheroid(grid, 1.0, 0.6), 0.8, 2e-3, sample_every=20)
        for state in run.states:
            margin = cb.newton_maclaurin_margin(state.curvature, 4)
            assert margin.min() >= -1e-10


class TestFluxChain:
    def test_sphere_equality_and_tail(self):
        n, q = 3, 0.5
        params = cb.RntParams(n, 1.0, q)
        _, r_plus = cb.horizon_radii(params)
        grid = cb.axisymmetric_grid(n, 48)
        run = imcf.run_flow(cb.make_sphere(grid, r_plus), 2.0, 2e-3, sample_every=10)
        chain = imcf.flux_chain(run.states, cb.radial_inverse_power_field(q, n))
        assert chain.charge == pytest.approx(q, abs=1e-12)
        for sample in chain.samples:
            # constant normal component makes Cauchy-Schwarz an equality
            assert sample.i0 == pytest.approx(sample.i1, rel=1e-12)
            assert sample.i1 >= sample.i2 - 1e-10
        closed = chain.samples[0].i0 * (n - 1) / (n - 2)
        assert chain.time_integral == pytest.approx(closed, rel=1e-4)
        assert chain.bulk_bound_estimate == pytest.approx(
            chain.closed_form_limit, rel=1e-4
        )

    def test_ordering_on_spheroid(self):
        grid = cb.axisymmetric_grid(3, 48)
        run = imcf.run_flow(cb.make_spheroid(grid, 1.0, 1.6), 1.0, 2e-3, sample_every=10)
        chain = imcf.flux_chain(run.states, cb.radial_inverse_power_field(0.8, 3))
        for s in chain.samples:
            assert s.i0 >= s.i1 - 1e-8
            assert s.i1 >= s.i2 - 1e-8

    def test_zero_charge_gives_zero_chain(self):
        grid = cb.axisymmetric_grid(3, 32)
        run = imcf.run_flow(cb.make_sphere(grid, 1.0), 0.2, 2e-3, sample_every=20)
        chain = imcf.flux_chain(run.states, cb.radial_inverse_power_field(0.0, 3))
        assert chain.charge == 0.0
        assert all(s.i0 == 0.0 and s.i1 == 0.0 and s.i2 == 0.0 for s in chain.samples)
        assert chain.time_integral == 0.0


class TestStepGuard:
    def test_requested_dt_above_guard_is_subdivided(self):
        grid = cb.axisymmetric_grid(3, 48)
        state = imcf._make_state(0.0, cb.make_sphere(grid, 1.0))
        stepped = imcf.imcf_step(state, 0.05)  # far above the guard
        assert np.abs(stepped.surface.rho - math.exp(0.025)).max() < 1e-9

    def test_breakdown_raises_with_time(self):
        grid = cb.axisymmetric_grid(3, 48)
        state = imcf._make_state(0.0, cb.make_spheroid(grid, 1.0, 0.5))
        with pytest.raises(FlowBreakdownError) as err:
            # gigantic safety factor disables the guard; the explicit update
            # is then unstable and H loses positivity
            imcf.imcf_step(state, 0.5, safety_factor=1e12)
        assert err.value.time >= 0.0

    def test_run_flow_returns_partial_on_breakdown(self):
        grid = cb.axisymmetric_grid(3, 48)
        run = imcf.run_flow(
            cb.make_spheroid(grid, 1.0, 0.5), 2.0, 0.5, sample_every=1,
            safety_factor=1e12,
        )
        assert not run.completed
        assert run.breakdown is not None
        assert len(run.states) >= 1
        assert run.breakdown.message

    @pytest.mark.parametrize("scale", [1e-2, 1e2])
    @pytest.mark.parametrize("mode", ["axisymmetric", "full"])
    def test_guard_is_scale_free(self, mode, scale):
        # IMCF commutes with dilations, and so does its stability bound
        if mode == "axisymmetric":
            surface = cb.make_spheroid(cb.axisymmetric_grid(4, 48), 1.0, 0.5)
        else:
            surface = cb.random_star_surface(cb.full_grid(16, 32), 3, amplitude=0.05)
        grid, rho = surface.grid, surface.rho
        h = cb.curvature(surface).H
        base = imcf._guard_dt(grid, rho, h, 0.7)
        assert imcf._guard_dt(grid, scale * rho, h / scale, 0.7) == pytest.approx(
            base, rel=1e-14
        )

    def test_speed_calls_scale_free_and_four_per_substep(self, monkeypatch):
        calls = []
        per_step = []
        speed, step = sg.mean_curvature_speed, imcf.imcf_step

        def counted_speed(grid, rho):
            calls.append(1)
            return speed(grid, rho)

        def counted_step(state, dt, safety_factor=1.0):
            before = len(calls)
            new_state = step(state, dt, safety_factor=safety_factor)
            per_step.append(len(calls) - before)
            return new_state

        monkeypatch.setattr(sg, "mean_curvature_speed", counted_speed)
        monkeypatch.setattr(imcf, "imcf_step", counted_step)
        grid = cb.axisymmetric_grid(4, 32)
        totals = []
        for scale in (1.0, 100.0):
            calls.clear()
            imcf.run_flow(cb.make_spheroid(grid, scale, 0.5 * scale), 0.2, 0.02)
            totals.append(len(calls))
        assert totals[0] == totals[1] > 0
        assert len(per_step) == 20 and all(c > 0 and c % 4 == 0 for c in per_step)

    def test_non_mean_convex_initial_rejected(self):
        grid = cb.axisymmetric_grid(3, 96)
        # deep dumbbell-like waist: H < 0 near the equator, still star-shaped
        rho = 1.0 + 2.0 * np.cos(grid.theta) ** 2
        surface = cb.StarShapedSurface(grid, rho)
        assert float(cb.curvature(surface).H.min()) < 0
        with pytest.raises(ValueError):
            imcf.run_flow(surface, 0.1, 1e-3)


class TestOneEvaluationPerStep:
    @pytest.mark.parametrize("case", ["axi-3", "axi-4", "axi-5", "full-spheroid", "full-star"])
    def test_monitors_equal_curvature_integrals(self, case):
        if case.startswith("axi"):
            surface = cb.make_spheroid(cb.axisymmetric_grid(int(case[-1]), 48), 1.0, 1.6)
        elif case == "full-spheroid":
            surface = cb.make_spheroid(cb.full_grid(16, 32), 1.0, 0.6)
        else:  # not axisymmetric
            surface = cb.random_star_surface(cb.full_grid(16, 32), 3, amplitude=0.05)
        t = 0.3
        state = imcf._make_state(t, surface)
        curv = sg.curvature(surface)
        int_h = float((curv.H * curv.dA).sum())
        assert state.monitors.area == float(curv.dA.sum())
        assert state.monitors.total_mean_curvature == int_h
        assert state.monitors.roundness == float(curv.H.max()) / float(curv.H.min()) - 1.0
        assert state.monitors.mass_decay == math.exp(-imcf._decay_rate(surface.grid.n) * t) * int_h
        assert np.array_equal(state._h, curv.H)
        assert state.curvature is curv

    def test_curvature_built_only_for_kept_states(self, monkeypatch):
        built = []
        evaluate = sg._curvature

        def counted(surface):
            built.append(surface)
            return evaluate(surface)

        monkeypatch.setattr(sg, "_curvature", counted)
        grid = cb.axisymmetric_grid(4, 32)
        run = imcf.run_flow(cb.make_spheroid(grid, 1.0, 1.5), 0.1, 2e-3, sample_every=10)
        assert len(run.states) == 6 and not built
        imcf.flux_chain(run.states, cb.radial_inverse_power_field(0.5, 4))
        assert [s.surface for s in run.states] == built

    def test_first_stage_reuses_state_speed(self, monkeypatch):
        calls = []
        guards = []
        speed, guard = sg.mean_curvature_speed, imcf._guard_dt

        def counted_speed(grid, rho):
            calls.append(1)
            return speed(grid, rho)

        def recorded_guard(*args):
            guards.append(guard(*args))
            return guards[-1]

        monkeypatch.setattr(sg, "mean_curvature_speed", counted_speed)
        monkeypatch.setattr(imcf, "_guard_dt", recorded_guard)
        dt = 0.02
        grid = cb.axisymmetric_grid(4, 32)
        imcf.run_flow(cb.make_spheroid(grid, 1.0, 0.5), 0.2, dt)
        nsub = [max(1, math.ceil(dt / g)) for g in guards]
        assert len(nsub) == 10 and max(nsub) > 1
        # one evaluation for the initial state, then four per substep with
        # the end-point evaluation standing in for the next step's k1
        assert len(calls) == 1 + 4 * sum(nsub)

    @pytest.mark.parametrize("n, below, above", [(3, 354.8, 354.9), (5, 567.8, 567.9)])
    def test_t_end_bound_from_enclosing_sphere(self, n, below, above):
        # e^(t/(n-1)) to the power max(4, n) stays finite just below the bound
        sphere = cb.make_sphere(cb.axisymmetric_grid(n, 16), 1.0)
        imcf._check_radius_range(sphere, below)
        with pytest.raises(ValueError, match=f"t_end = {above}"):
            imcf._check_radius_range(sphere, above)


class TestResolutionRobustness:
    def test_monitors_stable_under_refinement(self):
        # spectral axisymmetric monitors move by less than 10x the claimed
        # 1e-8 once resolution doubles and dt halves
        vals = {}
        for nodes, dt in ((48, 2e-3), (96, 1e-3)):
            grid = cb.axisymmetric_grid(4, nodes)
            run = imcf.run_flow(cb.make_spheroid(grid, 1.0, 1.4), 0.5, dt, sample_every=1000)
            final = run.states[-1].monitors
            vals[nodes] = (final.area, final.total_mean_curvature, final.mass_decay)
        for a, b in zip(vals[48], vals[96]):
            assert abs(a - b) / max(abs(b), 1.0) < 1e-7


class TestLinearisedDecayOracle:
    @pytest.mark.parametrize(
        "n, polar, gate",
        [(3, 2.0, 0.01), (3, 0.5, 0.01), (4, 2.0, 0.05), (4, 0.5, 0.05)],
    )
    def test_l2_rate(self, n, polar, gate):
        # rho = r(t)(1 + eps u) linearises to u_t = Delta_S u / (n-1)^2, so the
        # slowest (l = 2) deviation from roundness decays like
        # exp(-2n/(n-1)^2 t); the n = 4 oblate start is still the least linear
        grid = cb.axisymmetric_grid(n, 48)
        run = imcf.run_flow(cb.make_spheroid(grid, 1.0, polar), 5.0, 5e-3, sample_every=20)
        assert run.completed
        t = np.array([s.t for s in run.states])
        roundness = np.array([s.monitors.roundness for s in run.states])
        late = t >= 3.0 - 1e-9
        rate = -np.polyfit(t[late], np.log(roundness[late]), 1)[0]
        assert rate == pytest.approx(2.0 * n / (n - 1) ** 2, rel=gate)
