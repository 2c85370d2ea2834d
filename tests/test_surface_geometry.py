"""Grids, curvature, surface integrals, quotients and flux."""

import math

import numpy as np
import pytest
from scipy.special import roots_jacobi, roots_legendre

import chargedbh as cb
from chargedbh import surface_geometry as sg
from chargedbh.surface_geometry import DegenerateMetricError, _gauss_jacobi


def spheroid_exact_curvatures(theta, a, c):
    """Principal curvatures of the spheroid at polar angle theta.

    Uses the ellipse parameter psi with tan(psi) = (c/a) tan(theta); the
    meridian curvature is a*c/den^(3/2) and the orbit curvature
    c/(a sqrt(den)) with den = a^2 cos^2 psi + c^2 sin^2 psi.
    """
    psi = np.arctan2(c * np.sin(theta), a * np.cos(theta))
    den = a * a * np.cos(psi) ** 2 + c * c * np.sin(psi) ** 2
    return a * c / den**1.5, c / (a * np.sqrt(den))


class TestGrids:
    @pytest.mark.parametrize("n", [3, 4, 5, 7])
    def test_axisymmetric_weight_sum(self, n):
        grid = cb.axisymmetric_grid(n, 128)
        assert np.all(grid.weights > 0)
        assert abs(grid.weights.sum() - cb.unit_sphere_area(n)) < 1e-12

    def test_full_weight_sum(self):
        grid = cb.full_grid(64, 128)
        assert np.all(grid.weights > 0)
        assert abs(grid.weights.sum() - 4 * math.pi) < 1e-12

    def test_full_grid_needs_n3(self):
        with pytest.raises(ValueError):
            cb.make_grid(4, "full", 32)

    def test_nodes_exclude_poles(self):
        grid = cb.axisymmetric_grid(4, 64)
        assert grid.theta.min() > 0 and grid.theta.max() < math.pi

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("nodes", [16, 48, 64, 128])
    def test_gauss_jacobi_matches_scipy(self, alpha, nodes):
        # scipy's own weights carry up to ~5e-11 relative error at 128
        # nodes (Golub-Welsch is ~3e-13 against 30-digit Legendre weights)
        x, w = _gauss_jacobi(nodes, alpha)
        xs, ws = roots_legendre(nodes) if alpha == 0.0 else roots_jacobi(nodes, alpha, alpha)
        assert np.max(np.abs(x - xs)) <= 1e-15
        assert np.max(np.abs(w / ws - 1.0)) <= 1e-10

    def test_gauss_jacobi_cached_read_only(self):
        x, w = _gauss_jacobi(24, 0.5)
        assert _gauss_jacobi(24, 0.5)[0] is x
        assert not x.flags.writeable and not w.flags.writeable
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


class TestSphere:
    def test_area_n3(self):
        grid = cb.axisymmetric_grid(3, 128)
        assert cb.area(cb.make_sphere(grid, 1.0)) == pytest.approx(4 * math.pi, abs=1e-12)

    def test_area_n4(self):
        grid = cb.axisymmetric_grid(4, 128)
        r = 1.7
        assert cb.area(cb.make_sphere(grid, r)) == pytest.approx(
            2 * math.pi**2 * r**3, abs=1e-10
        )

    @pytest.mark.parametrize("mode", ["axisymmetric", "full"])
    def test_mean_curvature_constant(self, mode):
        grid = cb.make_grid(3, mode, 48)
        curv = cb.curvature(cb.make_sphere(grid, 2.0))
        assert np.abs(curv.H - 1.0).max() < 1e-10
        assert np.abs(curv.Rk - 0.5).max() < 1e-10

    def test_total_mean_curvature_n3(self):
        grid = cb.axisymmetric_grid(3, 96)
        r = 1.3
        assert cb.total_mean_curvature(cb.make_sphere(grid, r)) == pytest.approx(
            8 * math.pi * r, rel=1e-12
        )

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_af_equality_case(self, n):
        # 2 c_n * total mean curvature = r^(n-2) on round spheres
        grid = cb.axisymmetric_grid(n, 64)
        r = 1.9
        x = 2 * cb.mass_coefficient(n) * cb.total_mean_curvature(cb.make_sphere(grid, r))
        assert x == pytest.approx(r ** (n - 2), rel=1e-12)

    def test_gauss_bonnet(self):
        grid = cb.axisymmetric_grid(3, 96)
        total = cb.total_intrinsic_curvature(cb.make_sphere(grid, 1.0))
        assert total == pytest.approx(8 * math.pi, rel=1e-12)


class TestSpheroidCurvature:
    def test_axisymmetric_spectral_accuracy(self):
        grid = cb.axisymmetric_grid(3, 96)
        curv = cb.curvature(cb.make_spheroid(grid, 1.0, 2.0))
        kmer, korb = spheroid_exact_curvatures(grid.theta, 1.0, 2.0)
        assert np.abs(curv.kappa_mer - kmer).max() < 1e-10
        assert np.abs(curv.kappa_orb - korb).max() < 1e-10

    def test_equatorial_example(self):
        # a=1, c=2 at the equator: H = a/c^2 + 1/a = 1.25 (odd node count puts
        # a node exactly on the equator)
        grid = cb.axisymmetric_grid(3, 95)
        curv = cb.curvature(cb.make_spheroid(grid, 1.0, 2.0))
        i = int(np.argmin(np.abs(grid.x)))
        assert grid.x[i] == pytest.approx(0.0, abs=1e-15)
        assert curv.H[i] == pytest.approx(1.25, abs=1e-11)

    def test_higher_dimension_curvatures(self):
        # orbit direction carries multiplicity n-2
        grid = cb.axisymmetric_grid(5, 64)
        curv = cb.curvature(cb.make_spheroid(grid, 1.0, 1.5))
        kmer, korb = spheroid_exact_curvatures(grid.theta, 1.0, 1.5)
        assert np.abs(curv.H - (kmer + 3 * korb)).max() < 1e-9

    def test_full_grid_convergence_order(self):
        errs = []
        for nlat in (32, 64, 128):
            grid = cb.full_grid(nlat, 2 * nlat)
            curv = cb.curvature(cb.make_spheroid(grid, 1.0, 2.0))
            kmer, korb = spheroid_exact_curvatures(grid.theta, 1.0, 2.0)
            errs.append(np.abs(curv.H - (kmer + korb)[:, None]).max())
        order1 = math.log2(errs[0] / errs[1])
        order2 = math.log2(errs[1] / errs[2])
        assert order1 > 3.0 and order2 > 3.0
        assert errs[2] < 2e-4

    def test_full_grid_triaxial_against_level_set_oracle(self):
        # independent oracle: curvature of the implicit quadric via the
        # level-set formulas H = div(grad F/|grad F|), K from the adjugate
        a, b, c = 1.0, 1.3, 0.8
        grid = cb.full_grid(64, 128)
        st = np.sin(grid.theta)[:, None]
        ct = np.cos(grid.theta)[:, None]
        cp = np.cos(grid.phi)[None, :]
        sp = np.sin(grid.phi)[None, :]
        nx, ny, nz = st * cp, st * sp, ct * np.ones_like(cp)
        rho = 1.0 / np.sqrt((nx / a) ** 2 + (ny / b) ** 2 + (nz / c) ** 2)
        curv = cb.curvature(cb.StarShapedSurface(grid, rho))

        x, y, z = rho * nx, rho * ny, rho * nz
        gx, gy, gz = 2 * x / a**2, 2 * y / b**2, 2 * z / c**2
        gn2 = gx * gx + gy * gy + gz * gz
        hxx, hyy, hzz = 2 / a**2, 2 / b**2, 2 / c**2
        g_h_g = gx * gx * hxx + gy * gy * hyy + gz * gz * hzz
        h_oracle = ((hxx + hyy + hzz) * gn2 - g_h_g) / gn2**1.5
        k_oracle = (gx * gx * hyy * hzz + gy * gy * hxx * hzz + gz * gz * hxx * hyy) / gn2**2
        assert np.abs(curv.H - h_oracle).max() < 5e-4
        assert np.abs(curv.K - k_oracle).max() < 5e-4

    def test_gauss_identity_pointwise(self):
        for grid in (cb.axisymmetric_grid(4, 48), cb.full_grid(32, 64)):
            surface = cb.make_spheroid(grid, 1.0, 1.6)
            curv = cb.curvature(surface)
            assert np.abs(2 * curv.K - (curv.H**2 - curv.A2)).max() < 1e-10
            assert np.abs(curv.Rk - 2 * curv.K).max() == 0.0


class TestValidation:
    def test_positive_rho_required(self):
        grid = cb.axisymmetric_grid(3, 32)
        rho = np.full(32, 1.0)
        rho[5] = -0.1
        with pytest.raises(ValueError):
            cb.StarShapedSurface(grid, rho)

    def test_shape_mismatch(self):
        grid = cb.full_grid(16, 32)
        with pytest.raises(ValueError):
            cb.StarShapedSurface(grid, np.ones(16))

    def test_degenerate_metric_detected(self):
        # radii small enough that the metric determinant underflows to zero
        grid = cb.axisymmetric_grid(3, 64)
        with pytest.raises(DegenerateMetricError):
            cb.curvature(cb.make_sphere(grid, 1e-200))

    @pytest.mark.parametrize("mode", ["axisymmetric", "full"])
    @pytest.mark.parametrize("bad", ["nan-node", "zero"])
    def test_speed_kernel_rejects_degenerate_rho(self, mode, bad):
        # the min/max reductions must still catch NaN and a vanishing metric
        grid = cb.make_grid(3 if mode == "full" else 4, mode, 16)
        if bad == "zero":
            rho = np.zeros(grid.shape)
        else:
            rho = np.ones(grid.shape)
            rho.flat[3] = np.nan
        with pytest.raises(DegenerateMetricError):
            sg.mean_curvature_speed(grid, rho)


class TestYamabe:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_round_sphere_relative_one(self, n):
        grid = cb.axisymmetric_grid(n, 64)
        _, y_rel = cb.yamabe_quotients(cb.make_sphere(grid, 2.7))
        assert y_rel == pytest.approx(1.0, abs=1e-10)

    def test_n3_gauss_bonnet_star_shaped(self):
        # any n=3 star-shaped surface has relative quotient 1
        grid = cb.full_grid(48, 96)
        surface = cb.random_star_surface(grid, 7, amplitude=0.15)
        _, y_rel = cb.yamabe_quotients(surface)
        assert y_rel == pytest.approx(1.0, abs=5e-3)
        grid_ax = cb.axisymmetric_grid(3, 96)
        _, y_rel_ax = cb.yamabe_quotients(cb.make_spheroid(grid_ax, 1.0, 1.8))
        assert y_rel_ax == pytest.approx(1.0, abs=1e-10)

    def test_n4_round_value(self):
        grid = cb.axisymmetric_grid(4, 64)
        y, _ = cb.yamabe_quotients(cb.make_sphere(grid, 1.0))
        assert y == pytest.approx(6 * (2 * math.pi**2) ** (2 / 3), rel=1e-10)

    def test_n4_spheroid_exceeds_one(self):
        # 2-convex non-round surfaces sit strictly above the round value
        grid = cb.axisymmetric_grid(4, 64)
        _, y_rel = cb.yamabe_quotients(cb.make_spheroid(grid, 1.0, 1.5))
        assert y_rel > 1.0 + 1e-4


class TestChargeFlux:
    def test_radial_field_on_sphere(self):
        grid = cb.axisymmetric_grid(3, 64)
        field = cb.radial_inverse_power_field(0.7, 3)
        assert cb.charge_flux(cb.make_sphere(grid, 2.0), field) == pytest.approx(
            0.7, abs=1e-12
        )

    def test_zero_field(self):
        grid = cb.axisymmetric_grid(4, 48)
        surface = cb.make_sphere(grid, 1.0)
        assert cb.charge_flux(surface, np.zeros((48, 2))) == 0.0

    def test_quasi_local(self):
        # divergence-free field: same flux through sphere and spheroid
        for n in (3, 4):
            grid = cb.axisymmetric_grid(n, 96)
            field = cb.radial_inverse_power_field(1.3, n)
            f1 = cb.charge_flux(cb.make_sphere(grid, 2.0), field)
            f2 = cb.charge_flux(cb.make_spheroid(grid, 1.5, 3.0), field)
            assert abs(f1 - 1.3) < 1e-8
            assert abs(f1 - f2) < 1e-8

    def test_full_grid_flux(self):
        grid = cb.full_grid(48, 96)
        field = cb.radial_inverse_power_field(0.9, 3)
        surface = cb.random_star_surface(grid, 3, amplitude=0.1)
        assert cb.charge_flux(surface, field) == pytest.approx(0.9, abs=1e-6)


class TestNewtonMaclaurin:
    def test_pointwise_on_random_surfaces(self):
        for n in (3, 4, 5):
            grid = cb.axisymmetric_grid(n, 64)
            for seed in range(8):
                surface = cb.random_convex_surface(grid, seed)
                margin = cb.newton_maclaurin_margin(cb.curvature(surface), n)
                assert margin.min() >= -1e-10

    def test_equality_on_spheres(self):
        grid = cb.axisymmetric_grid(4, 48)
        margin = cb.newton_maclaurin_margin(cb.curvature(cb.make_sphere(grid, 3.0)), 4)
        assert np.abs(margin).max() < 1e-12


class TestAlexandrovFenchel:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_mean_curvature_bound_random_convex(self, n):
        grid = cb.axisymmetric_grid(n, 64)
        cn = cb.mass_coefficient(n)
        for seed in range(10):
            surface = cb.random_convex_surface(grid, 100 + seed)
            x = 2 * cn * cb.total_mean_curvature(surface)
            big_r = cb.area_radius_power(cb.area(surface), n)
            assert x >= big_r - 1e-10

    @pytest.mark.parametrize("n", [4, 5])
    def test_scalar_curvature_bound_random_convex(self, n):
        grid = cb.axisymmetric_grid(n, 64)
        d_n = cb.af_scalar_constant(n)
        for seed in range(10):
            surface = cb.random_convex_surface(grid, 200 + seed)
            int_rk = cb.total_intrinsic_curvature(surface)
            int_h = cb.total_mean_curvature(surface)
            assert int_rk >= d_n * int_h ** ((n - 3) / (n - 2)) - 1e-8

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_sphere_equalities(self, n):
        grid = cb.axisymmetric_grid(n, 64)
        surface = cb.make_sphere(grid, 1.4)
        cn = cb.mass_coefficient(n)
        x = 2 * cn * cb.total_mean_curvature(surface)
        big_r = cb.area_radius_power(cb.area(surface), n)
        assert abs(x - big_r) < 1e-8
        if n >= 4:
            int_rk = cb.total_intrinsic_curvature(surface)
            int_h = cb.total_mean_curvature(surface)
            assert abs(int_rk - cb.af_scalar_constant(n) * int_h ** ((n - 3) / (n - 2))) < 1e-8


class TestSurfaceIO:
    def test_axisymmetric_round_trip(self, tmp_path):
        grid = cb.axisymmetric_grid(4, 48)
        surface = cb.make_spheroid(grid, 1.0, 1.5)
        curv = cb.curvature(surface)
        field = cb.radial_inverse_power_field(0.5, 4)(curv.points)
        path = tmp_path / "surface.txt"
        cb.save_surface(surface, path, field=field)
        loaded, loaded_field = cb.load_surface(path)
        assert loaded.grid.n == 4
        assert np.abs(loaded.rho - surface.rho).max() < 1e-15
        assert np.abs(loaded_field - field).max() < 1e-15

    def test_full_round_trip(self, tmp_path):
        grid = cb.full_grid(16, 32)
        surface = cb.random_star_surface(grid, 11)
        path = tmp_path / "surface_full.txt"
        cb.save_surface(surface, path)
        loaded, field = cb.load_surface(path)
        assert field is None
        assert loaded.grid.mode == "full"
        assert np.abs(loaded.rho - surface.rho).max() < 1e-15


class TestComputeOnce:
    @pytest.mark.parametrize("full", [False, True])
    def test_horizon_sequence_evaluates_each_surface_once(self, monkeypatch, full):
        # the benchmark's horizon operation: at most the surface itself and
        # the grid's unit-sphere reference reach a curvature kernel
        calls = []

        def counting(kernel):
            def wrapper(*args):
                calls.append(kernel.__name__)
                return kernel(*args)

            return wrapper

        for name in ("_axi_geometry", "_full_fundamental"):
            monkeypatch.setattr(sg, name, counting(getattr(sg, name)))
        n = 3 if full else 4
        if full:
            surface = cb.random_star_surface(cb.full_grid(16, 32), 11)
        else:
            surface = cb.random_convex_surface(cb.axisymmetric_grid(n, 48), 11)
        data = cb.rnt_graph_data(n, 1.5, 0.6)
        cb.curvature(surface)
        cb.area(surface)
        cb.total_mean_curvature(surface)
        cb.total_intrinsic_curvature(surface)
        cb.yamabe_quotients(surface)
        cb.theorem_certificates(surface, data, field=cb.radial_inverse_power_field(0.6, n))
        assert 1 <= len(calls) <= 2

    def test_arrays_are_read_only_and_shared(self):
        grid = cb.axisymmetric_grid(3, 48)
        assert grid is cb.axisymmetric_grid(3, 48)
        assert cb.full_grid(16, 32) is cb.full_grid(16, 32)
        rho = 1.0 + 0.1 * grid.x**2
        surface = cb.StarShapedSurface(grid, rho)
        curv = cb.curvature(surface)
        assert cb.curvature(surface) is curv
        for arr in (surface.rho, curv.H, grid.weights, cb.full_grid(16, 32).weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        rho[0] = 5.0  # the caller's array is copied, not frozen
        assert surface.rho[0] != 5.0
